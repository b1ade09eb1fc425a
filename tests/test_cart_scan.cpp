// Tests for Scan/Exscan and the Cartesian topology machinery.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "mpi/cart.hpp"
#include "mpi/collectives.hpp"
#include "mpi/error.hpp"
#include "mpi/world.hpp"

using namespace ombx;
using mpi::Comm;
using mpi::ConstView;
using mpi::MutView;

namespace {
mpi::WorldConfig world_cfg(int nranks) {
  mpi::WorldConfig wc;
  wc.cluster = net::ClusterSpec::frontera();
  wc.tuning = net::MpiTuning::mvapich2();
  wc.nranks = nranks;
  wc.ppn = std::min(nranks, wc.cluster.topo.cores_per_node());
  return wc;
}

template <typename T>
ConstView cv(const std::vector<T>& v) {
  return ConstView{reinterpret_cast<const std::byte*>(v.data()),
                   v.size() * sizeof(T)};
}
template <typename T>
MutView mv(std::vector<T>& v) {
  return MutView{reinterpret_cast<std::byte*>(v.data()),
                 v.size() * sizeof(T)};
}
}  // namespace

// ---- Scan / Exscan ---------------------------------------------------------------

class ScanTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanTest, InclusivePrefixSums) {
  const int n = GetParam();
  mpi::World w(world_cfg(n));
  w.run([](Comm& c) {
    const std::vector<std::int64_t> mine{c.rank() + 1, 10 * (c.rank() + 1)};
    std::vector<std::int64_t> out(2, -1);
    mpi::scan(c, cv(mine), mv(out), mpi::Datatype::kInt64, mpi::Op::kSum);
    const std::int64_t r = c.rank();
    EXPECT_EQ(out[0], (r + 1) * (r + 2) / 2);
    EXPECT_EQ(out[1], 10 * (r + 1) * (r + 2) / 2);
  });
}

TEST_P(ScanTest, ExclusivePrefixSums) {
  const int n = GetParam();
  mpi::World w(world_cfg(n));
  w.run([](Comm& c) {
    const std::vector<std::int64_t> mine{c.rank() + 1};
    std::vector<std::int64_t> out{-77};
    mpi::exscan(c, cv(mine), mv(out), mpi::Datatype::kInt64, mpi::Op::kSum);
    const std::int64_t r = c.rank();
    if (r == 0) {
      EXPECT_EQ(out[0], -77);  // rank 0's exscan result is undefined
    } else {
      EXPECT_EQ(out[0], r * (r + 1) / 2);
    }
  });
}

TEST_P(ScanTest, ScanWithMaxTracksRunningMaximum) {
  const int n = GetParam();
  mpi::World w(world_cfg(n));
  w.run([](Comm& c) {
    // Values bounce around; the running max is monotone.
    const std::vector<std::int32_t> mine{
        static_cast<std::int32_t>((c.rank() * 37) % 11)};
    std::vector<std::int32_t> out{-1};
    mpi::scan(c, cv(mine), mv(out), mpi::Datatype::kInt32, mpi::Op::kMax);
    std::int32_t expect = 0;
    for (int r = 0; r <= c.rank(); ++r) {
      expect = std::max(expect, static_cast<std::int32_t>((r * 37) % 11));
    }
    EXPECT_EQ(out[0], expect);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16));

// 128 KiB per rank: past every eager threshold, so each log step's send
// of the running accumulator is a rendezvous, and the accumulator is
// combined into before that send completes.
class ScanRendezvousTest : public ::testing::TestWithParam<int> {};

constexpr std::size_t kScanElems = 16 * 1024;

std::vector<std::int64_t> scan_contribution(int rank) {
  std::vector<std::int64_t> v(kScanElems);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::int64_t>(rank + 1) *
           static_cast<std::int64_t>(i + 1);
  }
  return v;
}

TEST_P(ScanRendezvousTest, InclusivePrefixSums) {
  mpi::World w(world_cfg(GetParam()));
  w.run([](Comm& c) {
    const std::vector<std::int64_t> mine = scan_contribution(c.rank());
    std::vector<std::int64_t> out(kScanElems, -1);
    mpi::scan(c, cv(mine), mv(out), mpi::Datatype::kInt64, mpi::Op::kSum);
    const std::int64_t r = c.rank();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::int64_t expect =
          static_cast<std::int64_t>(i + 1) * (r + 1) * (r + 2) / 2;
      ASSERT_EQ(out[i], expect) << "rank " << r << " element " << i;
    }
  });
}

TEST_P(ScanRendezvousTest, ExclusivePrefixSums) {
  mpi::World w(world_cfg(GetParam()));
  w.run([](Comm& c) {
    const std::vector<std::int64_t> mine = scan_contribution(c.rank());
    std::vector<std::int64_t> out(kScanElems, -77);
    mpi::exscan(c, cv(mine), mv(out), mpi::Datatype::kInt64, mpi::Op::kSum);
    const std::int64_t r = c.rank();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::int64_t expect =
          r == 0 ? -77 : static_cast<std::int64_t>(i + 1) * r * (r + 1) / 2;
      ASSERT_EQ(out[i], expect) << "rank " << r << " element " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanRendezvousTest,
                         ::testing::Values(3, 5, 8, 13));

// ---- dims_create --------------------------------------------------------------------

TEST(DimsCreate, BalancedFactorizations) {
  EXPECT_EQ(mpi::dims_create(16, 2), (std::vector<int>{4, 4}));
  EXPECT_EQ(mpi::dims_create(12, 2), (std::vector<int>{4, 3}));
  EXPECT_EQ(mpi::dims_create(7, 2), (std::vector<int>{7, 1}));
  EXPECT_EQ(mpi::dims_create(24, 3), (std::vector<int>{4, 3, 2}));
  EXPECT_EQ(mpi::dims_create(1, 2), (std::vector<int>{1, 1}));
  EXPECT_THROW((void)mpi::dims_create(0, 2), mpi::Error);
}

TEST(DimsCreate, VolumeAlwaysMatches) {
  for (int n = 1; n <= 64; ++n) {
    for (int d = 1; d <= 3; ++d) {
      const auto dims = mpi::dims_create(n, d);
      long vol = 1;
      for (const int v : dims) vol *= v;
      EXPECT_EQ(vol, n) << "n=" << n << " d=" << d;
    }
  }
}

// ---- CartComm -------------------------------------------------------------------------

TEST(Cart, CoordsRoundTrip) {
  mpi::World w(world_cfg(12));
  w.run([](Comm& c) {
    mpi::CartComm cart(c, {3, 4}, {false, false});
    for (int r = 0; r < c.size(); ++r) {
      const auto xy = cart.coords(r);
      EXPECT_EQ(cart.rank_at(xy), r);
    }
    // Row-major layout: rank 5 on a 3x4 grid is (1, 1).
    EXPECT_EQ(cart.coords(5), (std::vector<int>{1, 1}));
  });
}

TEST(Cart, OpenBoundariesReturnNull) {
  mpi::World w(world_cfg(6));
  w.run([](Comm& c) {
    mpi::CartComm cart(c, {2, 3}, {false, false});
    if (cart.coords(c.rank()) == std::vector<int>{0, 0}) {
      const auto [src, dst] = cart.shift(0, 1);
      EXPECT_EQ(src, mpi::CartComm::kNull);  // nothing above row 0
      EXPECT_NE(dst, mpi::CartComm::kNull);
    }
  });
}

TEST(Cart, PeriodicBoundariesWrap) {
  mpi::World w(world_cfg(6));
  w.run([](Comm& c) {
    mpi::CartComm cart(c, {2, 3}, {true, true});
    const auto me = cart.coords(c.rank());
    const auto [src, dst] = cart.shift(1, 1);
    EXPECT_NE(src, mpi::CartComm::kNull);
    EXPECT_NE(dst, mpi::CartComm::kNull);
    EXPECT_EQ(cart.coords(dst)[1], (me[1] + 1) % 3);
    EXPECT_EQ(cart.coords(src)[1], (me[1] + 2) % 3);
  });
}

TEST(Cart, RejectsBadGrids) {
  mpi::World w(world_cfg(6));
  EXPECT_THROW(
      w.run([](Comm& c) { mpi::CartComm cart(c, {2, 2}, {false, false}); }),
      mpi::Error);
  EXPECT_THROW(
      w.run([](Comm& c) { mpi::CartComm cart(c, {2, 3}, {false}); }),
      mpi::Error);
}

TEST(Cart, HaloExchangeRingPassesValues) {
  // 1-D periodic ring: everyone passes its rank to the right.
  constexpr int kN = 5;
  mpi::World w(world_cfg(kN));
  w.run([](Comm& c) {
    mpi::CartComm cart(c, {c.size()}, {true});
    const auto [src, dst] = cart.shift(0, 1);
    const std::vector<std::int32_t> mine{c.rank()};
    std::vector<std::int32_t> got{-1};
    cart.neighbor_sendrecv(cv(mine), dst, mv(got), src, 9);
    EXPECT_EQ(got[0], (c.rank() + c.size() - 1) % c.size());
  });
}

TEST(Cart, NullNeighborsAreSilentlySkipped) {
  mpi::World w(world_cfg(4));
  w.run([](Comm& c) {
    mpi::CartComm cart(c, {4}, {false});
    const auto [src, dst] = cart.shift(0, 1);
    const std::vector<std::int32_t> mine{c.rank() * 11};
    std::vector<std::int32_t> got{-1};
    cart.neighbor_sendrecv(cv(mine), dst, mv(got), src, 3);
    if (c.rank() == 0) {
      EXPECT_EQ(got[0], -1);  // no upstream neighbour
    } else {
      EXPECT_EQ(got[0], (c.rank() - 1) * 11);
    }
  });
}
