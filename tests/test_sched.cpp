// Rank-scheduler tests (ombx::sched): mode parsing/resolution, the fiber
// pool's basic run contract, the context switch (per-fiber rounding mode,
// aligned entry frames, unwinding after a park) and stack reuse across
// worlds, fibers-vs-threads byte-identity of benchmark
// rows (the determinism contract's regression gate at np = 2/8/16), a
// np=512 smoke world proving paper-scale worlds no longer need 512 host
// threads, fiber-mode ULFM kill/shrink recovery, and explore record/
// replay identity on the fiber backend.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cfenv>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/suite.hpp"
#include "explore/explore.hpp"
#include "explore/explorer.hpp"
#include "ft/ft.hpp"
#include "mpi/collectives.hpp"
#include "mpi/error.hpp"
#include "mpi/world.hpp"
#include "sched/sched.hpp"

using namespace ombx;
using mpi::Comm;

namespace {

mpi::ConstView cv(const std::vector<std::byte>& v) {
  return mpi::ConstView{v.data(), v.size(), net::MemSpace::kHost};
}
mpi::MutView mv(std::vector<std::byte>& v) {
  return mpi::MutView{v.data(), v.size(), net::MemSpace::kHost};
}

mpi::WorldConfig world_with(int nranks, sched::Mode mode, int ppn = 4) {
  mpi::WorldConfig wc;
  wc.cluster = net::ClusterSpec::frontera();
  wc.tuning = net::MpiTuning::mvapich2();
  wc.nranks = nranks;
  wc.ppn = ppn;
  wc.sched = mode;
  return wc;
}

}  // namespace

// ---- Mode selection ---------------------------------------------------------

TEST(SchedMode, NamesRoundTrip) {
  EXPECT_EQ(sched::mode_by_name("auto"), sched::Mode::kAuto);
  EXPECT_EQ(sched::mode_by_name("threads"), sched::Mode::kThreads);
  EXPECT_EQ(sched::mode_by_name("fibers"), sched::Mode::kFibers);
  EXPECT_STREQ(sched::to_string(sched::Mode::kAuto), "auto");
  EXPECT_STREQ(sched::to_string(sched::Mode::kThreads), "threads");
  EXPECT_STREQ(sched::to_string(sched::Mode::kFibers), "fibers");
  EXPECT_THROW((void)sched::mode_by_name("green-threads"),
               std::invalid_argument);
}

TEST(SchedMode, ResolveHonorsSanitizerDegradation) {
  EXPECT_EQ(sched::resolve(sched::Mode::kThreads), sched::Mode::kThreads);
  // Explicit fibers pass through, except on sanitized builds where every
  // request degrades to threads (fiber switches are opaque to TSan/ASan).
  EXPECT_EQ(sched::resolve(sched::Mode::kFibers),
            sched::sanitizers_active() ? sched::Mode::kThreads
                                       : sched::Mode::kFibers);
  // kAuto resolves to one of the two concrete backends (which one depends
  // on sanitizer instrumentation and OMBX_SCHED, both host properties).
  const sched::Mode r = sched::resolve(sched::Mode::kAuto);
  EXPECT_TRUE(r == sched::Mode::kThreads || r == sched::Mode::kFibers);
  if (sched::sanitizers_active()) {
    EXPECT_EQ(r, sched::Mode::kThreads);
  }
}

// ---- FiberPool basics -------------------------------------------------------

// Direct FiberPool tests bypass resolve()'s sanitizer degradation, so
// they must skip themselves on instrumented builds.
#define OMBX_SKIP_IF_SANITIZED()                                        \
  if (sched::sanitizers_active())                                       \
  GTEST_SKIP() << "fibers degrade to threads on sanitized builds"

TEST(FiberPool, RunsEveryRankExactlyOnce) {
  OMBX_SKIP_IF_SANITIZED();
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  sched::FiberPool::instance().run_world(
      257, [&](int r) { hits[static_cast<std::size_t>(r)].fetch_add(1); },
      [](int) { return 0.0; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(FiberPool, RankExceptionPropagatesToCaller) {
  OMBX_SKIP_IF_SANITIZED();
  EXPECT_THROW(sched::FiberPool::instance().run_world(
                   4,
                   [](int r) {
                     if (r == 2) throw std::runtime_error("boom");
                   },
                   [](int) { return 0.0; }),
               std::runtime_error);
}

TEST(FiberPool, ExecIdDistinguishesFibersOnOneWorker) {
  // All fibers may share a single worker thread (the pool is sized by the
  // host), yet each must see a distinct exec_id — the mailbox's self-send
  // Dekker skip is keyed on it.
  OMBX_SKIP_IF_SANITIZED();
  std::vector<std::uintptr_t> ids(16, 0);
  sched::FiberPool::instance().run_world(
      16,
      [&](int r) {
        ids[static_cast<std::size_t>(r)] = sched::exec_id();
        EXPECT_NE(sched::current_fiber(), nullptr);
      },
      [](int) { return 0.0; });
  std::vector<std::uintptr_t> uniq = ids;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  EXPECT_EQ(uniq.size(), ids.size());
  // Off-fiber, exec_id still returns a stable non-fiber identity.
  EXPECT_EQ(sched::current_fiber(), nullptr);
  EXPECT_EQ(sched::exec_id(), sched::exec_id());
}

namespace {

/// 1/3 rounded by the current mode; volatile keeps it a runtime SSE
/// division (MXCSR), while fegetround reads the x87 control word.
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

}  // namespace

TEST(FiberPool, RoundingModeIsPerFiberAcrossParks) {
  // Rank 0 switches to FE_UPWARD and parks; rank 1 runs meanwhile (on
  // the same worker when there is only one) and must still see the
  // default mode, and rank 0 must get its own mode back on resume.
  OMBX_SKIP_IF_SANITIZED();
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = third();
  std::fesetround(FE_UPWARD);
  const double upward = third();
  std::fesetround(FE_TONEAREST);
  ASSERT_NE(nearest, upward);

  std::mutex m;
  sched::WaitQueue wq;
  bool ready = false;
  bool go = false;
  std::array<int, 4> mode_before{};
  std::array<int, 4> mode_after{};
  std::array<double, 4> value_after{};
  sched::FiberPool::instance().run_world(
      4,
      [&](int r) {
        const auto i = static_cast<std::size_t>(r);
        mode_before[i] = std::fegetround();
        std::unique_lock<std::mutex> lk(m);
        if (r == 0) {
          std::fesetround(FE_UPWARD);
          ready = true;
          wq.notify_all();
          wq.wait(lk, [&] { return go; });  // parks: go needs rank 1
        } else if (r == 1) {
          wq.wait(lk, [&] { return ready; });
          go = true;
          wq.notify_all();
        }
        mode_after[i] = std::fegetround();
        value_after[i] = third();
      },
      [](int) { return 0.0; });
  EXPECT_EQ(mode_after[0], FE_UPWARD);
  EXPECT_EQ(value_after[0], upward);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(mode_before[i], FE_TONEAREST) << "rank " << i;
    EXPECT_EQ(mode_after[i], FE_TONEAREST) << "rank " << i;
    EXPECT_EQ(value_after[i], nearest) << "rank " << i;
  }
  // Rank 0 finished in FE_UPWARD; neither the caller nor the next world's
  // fibers (on the same workers and stacks) may inherit it.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  std::array<int, 4> next_mode{};
  sched::FiberPool::instance().run_world(
      4,
      [&](int r) {
        next_mode[static_cast<std::size_t>(r)] = std::fegetround();
      },
      [](int) { return 0.0; });
  for (const int mode : next_mode) EXPECT_EQ(mode, FE_TONEAREST);
}

TEST(FiberPool, SecondWorldReusesTheFirstWorldsStacks) {
  // Stacks go back to the pool's free list when a world ends: they stay
  // mapped, and a second world of the same size runs on exactly the first
  // world's stacks — the same code path puts each body's frame at the same
  // offset from its stack top, so the two sets of frame addresses coincide.
  OMBX_SKIP_IF_SANITIZED();
  constexpr int kRanks = 32;
  const auto frames = [] {
    std::vector<std::uintptr_t> at(kRanks, 0);
    sched::FiberPool::instance().run_world(
        kRanks,
        [&](int r) {
          at[static_cast<std::size_t>(r)] =
              reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
        },
        [](int) { return 0.0; });
    std::sort(at.begin(), at.end());
    return at;
  };
  const std::vector<std::uintptr_t> first = frames();
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  for (const std::uintptr_t a : first) {
    EXPECT_EQ(a % 16, 0u) << "fiber entry frame misaligned";
    unsigned char resident = 0;
    // mincore fails with ENOMEM on an unmapped range.
    EXPECT_EQ(::mincore(reinterpret_cast<void*>(a & ~(page - 1)), page,
                        &resident),
              0)
        << "stack unmapped after its world ended";
  }
  const std::vector<std::uintptr_t> second = frames();
  EXPECT_EQ(std::adjacent_find(first.begin(), first.end()), first.end())
      << "two fibers shared a stack";
  EXPECT_EQ(first, second);
}

namespace {

[[noreturn]] void throw_from_depth(int depth) {
  if (depth == 0) throw std::runtime_error("deep");
  throw_from_depth(depth - 1);
}

}  // namespace

TEST(FiberPool, ExceptionsUnwindAfterParkAndResume) {
  // Ranks park on a gate until all have arrived (so they may resume on a
  // different worker), then throw through several frames and catch.
  OMBX_SKIP_IF_SANITIZED();
  constexpr int kRanks = 8;
  std::mutex m;
  sched::WaitQueue wq;
  int arrived = 0;
  std::vector<std::string> caught(kRanks);
  sched::FiberPool::instance().run_world(
      kRanks,
      [&](int r) {
        {
          std::unique_lock<std::mutex> lk(m);
          if (++arrived == kRanks) wq.notify_all();
          wq.wait(lk, [&] { return arrived == kRanks; });
        }
        try {
          throw_from_depth(r + 1);
        } catch (const std::runtime_error& e) {
          caught[static_cast<std::size_t>(r)] = e.what();
        }
      },
      [](int) { return 0.0; });
  for (const std::string& what : caught) EXPECT_EQ(what, "deep");
}

// ---- Fibers-vs-threads byte-identity ---------------------------------------

namespace {

/// Exact (bitwise) row comparison: the determinism contract promises the
/// two backends agree to the last bit, not merely within tolerance.
void expect_rows_identical(const std::vector<core::Row>& a,
                           const std::vector<core::Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].stats.avg, b[i].stats.avg) << "size=" << a[i].size;
    EXPECT_EQ(a[i].stats.min, b[i].stats.min) << "size=" << a[i].size;
    EXPECT_EQ(a[i].stats.max, b[i].stats.max) << "size=" << a[i].size;
  }
}

core::SuiteConfig suite_cfg(int nranks, sched::Mode mode) {
  core::SuiteConfig cfg;
  cfg.nranks = nranks;
  cfg.ppn = 1;
  cfg.opts.min_size = 1;
  cfg.opts.max_size = 16 * 1024;
  cfg.opts.iterations = 4;
  cfg.opts.warmup = 1;
  cfg.sched = mode;
  return cfg;
}

}  // namespace

TEST(SchedParity, LatencyRowsIdenticalAtNp2) {
  const auto threads =
      bench_suite::run_latency(suite_cfg(2, sched::Mode::kThreads));
  const auto fibers =
      bench_suite::run_latency(suite_cfg(2, sched::Mode::kFibers));
  expect_rows_identical(threads, fibers);
}

TEST(SchedParity, AllreduceRowsIdenticalAtNp8) {
  const auto threads = bench_suite::run_collective(
      suite_cfg(8, sched::Mode::kThreads), bench_suite::CollBench::kAllreduce);
  const auto fibers = bench_suite::run_collective(
      suite_cfg(8, sched::Mode::kFibers), bench_suite::CollBench::kAllreduce);
  expect_rows_identical(threads, fibers);
}

TEST(SchedParity, BcastRowsIdenticalAtNp16) {
  const auto threads = bench_suite::run_collective(
      suite_cfg(16, sched::Mode::kThreads), bench_suite::CollBench::kBcast);
  const auto fibers = bench_suite::run_collective(
      suite_cfg(16, sched::Mode::kFibers), bench_suite::CollBench::kBcast);
  expect_rows_identical(threads, fibers);
}

// ---- Paper-scale smoke ------------------------------------------------------

TEST(SchedScale, Np512RingAndAllreduceComplete) {
  // 512 ranks on the fiber pool: host threads stay bounded by the worker
  // count, not np — the property that makes np=224 ML figures and np=1024
  // campaign sweeps tractable.  Payloads stay real (they are tiny) so the
  // allreduce result is data-bearing and checkable.
  mpi::WorldConfig wc = world_with(512, sched::Mode::kFibers, /*ppn=*/56);
  mpi::World w(wc);
  std::atomic<int> done{0};

  w.run([&](Comm& c) {
    const int n = c.size();
    const int next = (c.rank() + 1) % n;
    const int prev = (c.rank() + n - 1) % n;
    std::vector<std::byte> buf(8);
    std::vector<std::byte> got(8);
    // Ring: every rank both sends and receives (eager, so no deadlock).
    c.send(cv(buf), next, 7);
    (void)c.recv(mv(got), prev, 7);
    std::vector<double> one(1, 1.0);
    std::vector<double> sum(1, 0.0);
    mpi::allreduce(c,
                   mpi::ConstView{reinterpret_cast<const std::byte*>(
                                      one.data()),
                                  sizeof(double)},
                   mpi::MutView{reinterpret_cast<std::byte*>(sum.data()),
                                sizeof(double)},
                   mpi::Datatype::kDouble, mpi::Op::kSum);
    EXPECT_DOUBLE_EQ(sum[0], 512.0);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 512);
}

// ---- Concurrent worlds sharing the pool ------------------------------------

TEST(SchedConcurrency, ConcurrentWorldsDoNotFalsePositiveTheWatchdog) {
  // Campaign cells run several worlds on the shared pool at once.  A rank
  // whose wakeup is queued behind another world's fibers still *looks*
  // blocked in its WaitRegistry, so the deadlock watchdog must not fire on
  // "all blocked + no progress" alone — it additionally requires an idle
  // pool.  The 1 ms poll makes the pre-fix false positive near-certain.
  OMBX_SKIP_IF_SANITIZED();
  constexpr int kWorlds = 4;
  std::atomic<int> done{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kWorlds);
  for (int wi = 0; wi < kWorlds; ++wi) {
    drivers.emplace_back([&] {
      mpi::WorldConfig wc = world_with(64, sched::Mode::kFibers, /*ppn=*/8);
      wc.watchdog_poll_ms = 1.0;
      mpi::World w(wc);
      w.run([&](Comm& c) {
        std::vector<double> one(512, 1.0);
        std::vector<double> sum(512, 0.0);
        const mpi::ConstView sv{
            reinterpret_cast<const std::byte*>(one.data()),
            one.size() * sizeof(double)};
        const mpi::MutView rv{reinterpret_cast<std::byte*>(sum.data()),
                              sum.size() * sizeof(double)};
        for (int i = 0; i < 20; ++i) {
          mpi::allreduce(c, sv, rv, mpi::Datatype::kDouble, mpi::Op::kSum);
        }
        EXPECT_DOUBLE_EQ(sum[0], 64.0);
        done.fetch_add(1);
      });
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(done.load(), kWorlds * 64);
}

// ---- FT recovery on fibers --------------------------------------------------

TEST(SchedFt, KillShrinkRecoversOnFiberBackend) {
  // The FT recovery barriers (shrink/agree) park fibers instead of
  // blocking threads; the recovery outcome must be unchanged.
  mpi::WorldConfig wc = world_with(8, sched::Mode::kFibers);
  wc.ft.enabled = true;
  wc.fault.kills.push_back({5, 300.0});
  mpi::World w(wc);
  std::atomic<int> done{0};

  w.run([&](Comm& comm) {
    std::vector<double> val(64, 1.0);
    std::vector<double> sum(64, 0.0);
    const mpi::ConstView sv{
        reinterpret_cast<const std::byte*>(val.data()),
        val.size() * sizeof(double)};
    const mpi::MutView rv{reinterpret_cast<std::byte*>(sum.data()),
                          sum.size() * sizeof(double)};
    try {
      for (int i = 0; i < 1 << 20; ++i) {
        mpi::allreduce(comm, sv, rv, mpi::Datatype::kDouble, mpi::Op::kSum);
      }
      ADD_FAILURE() << "kill never surfaced";
    } catch (const ft::ProcFailedError&) {
    } catch (const ft::RevokedError&) {
    }
    comm.revoke();
    (void)comm.agree(1u);
    comm.failure_ack();
    EXPECT_EQ(comm.get_failed(), std::vector<int>{5});

    Comm alive = comm.shrink();
    ASSERT_EQ(alive.size(), 7);
    const std::array<int, 7> expect_world{0, 1, 2, 3, 4, 6, 7};
    EXPECT_EQ(alive.world_rank(alive.rank()),
              expect_world[static_cast<std::size_t>(alive.rank())]);
    mpi::allreduce(alive, sv, rv, mpi::Datatype::kDouble, mpi::Op::kSum);
    EXPECT_DOUBLE_EQ(sum[0], 7.0);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 7);
}

// ---- Explore record/replay on fibers ---------------------------------------

namespace {

constexpr int kData = 5;
constexpr int kToken = 6;
constexpr int kGo = 7;

/// Same wildcard-race shape as test_explore's fixture: both candidate
/// messages are guaranteed queued before either receiver decides, so the
/// oracle records two binary decisions per receiver.
struct TwoReceiverRace {
  std::atomic<int> first1{-1};
  std::atomic<int> first2{-1};

  void operator()(Comm& c) {
    std::vector<std::byte> buf(8);
    std::vector<std::byte> tmp(8);
    if (c.rank() == 0) {
      c.send(cv(buf), 1, kData);
      c.send(cv(buf), 2, kData);
      c.send(cv(buf), 3, kToken);
    } else if (c.rank() == 3) {
      (void)c.recv(mv(tmp), 0, kToken);
      c.send(cv(buf), 1, kData);
      c.send(cv(buf), 2, kData);
      c.send(cv(buf), 1, kGo);
      c.send(cv(buf), 2, kGo);
    } else {
      (void)c.recv(mv(tmp), 3, kGo);
      const mpi::Status first = c.recv(mv(tmp), mpi::kAnySource, kData);
      (void)c.recv(mv(tmp), mpi::kAnySource, kData);
      (c.rank() == 1 ? first1 : first2)
          .store(first.source, std::memory_order_relaxed);
    }
  }
};

}  // namespace

TEST(SchedExplore, RecordReplayIdentityOnFiberBackend) {
  // Replay pins force match choices by *waiting* for the pinned bin, not
  // by relying on host timing — so record/replay must hold on fibers too.
  auto race = std::make_shared<TwoReceiverRace>();
  const explore::RunFn run = explore::make_world_runner(
      world_with(4, sched::Mode::kFibers, /*ppn=*/1),
      [race](Comm& c) { (*race)(c); });

  const explore::RunResult rec = run(explore::Schedule{});
  ASSERT_FALSE(rec.failed) << rec.what;
  const int rec_first1 = race->first1.load();
  const int rec_first2 = race->first2.load();

  const explore::Schedule pins = explore::pin_everything(rec.log);
  EXPECT_EQ(pins.pins.size(), 4u);

  const explore::RunResult rep = run(pins);
  ASSERT_FALSE(rep.failed) << rep.what;
  EXPECT_FALSE(rep.diverged);
  EXPECT_EQ(race->first1.load(), rec_first1);
  EXPECT_EQ(race->first2.load(), rec_first2);
  ASSERT_EQ(rep.log.size(), rec.log.size());
  for (std::size_t i = 0; i < rec.log.size(); ++i) {
    EXPECT_EQ(rep.log[i].src, rec.log[i].src);
    EXPECT_EQ(rep.log[i].tag, rec.log[i].tag);
    EXPECT_TRUE(rep.log[i].forced);
  }
}
