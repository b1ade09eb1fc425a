// ombx::check tests: every checker family has at least one triggering
// program with rank/op attribution, clean runs collect zero violations
// across the bench suite, and checking never perturbs benchmark output
// (byte-identical Rows with the checker off vs on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_suite/suite.hpp"
#include "check/checker.hpp"
#include "core/runner.hpp"
#include "mpi/collectives.hpp"
#include "mpi/error.hpp"
#include "mpi/nbc.hpp"
#include "mpi/request.hpp"
#include "mpi/rma.hpp"
#include "mpi/world.hpp"

using namespace ombx;
using mpi::Comm;
using mpi::ConstView;
using mpi::MutView;

namespace {

mpi::WorldConfig checked_world(int nranks, check::Mode mode) {
  mpi::WorldConfig wc;
  wc.cluster = net::ClusterSpec::frontera();
  wc.tuning = net::MpiTuning::mvapich2();
  wc.nranks = nranks;
  wc.ppn = 2;
  wc.check.enabled = true;
  wc.check.mode = mode;
  return wc;
}

ConstView cv(const std::vector<std::byte>& v) {
  return ConstView{v.data(), v.size()};
}
MutView mv(std::vector<std::byte>& v) { return MutView{v.data(), v.size()}; }

std::vector<check::Violation> violations_of(mpi::World& w) {
  check::Checker* chk = w.engine().checker();
  EXPECT_NE(chk, nullptr);
  return chk == nullptr ? std::vector<check::Violation>{}
                        : chk->violations();
}

bool has_code(const std::vector<check::Violation>& vs, check::Code c) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const check::Violation& v) { return v.code == c; });
}

// ---- Family 1: collective matching ----------------------------------------

TEST(CheckCollective, StrictOrderMismatchThrowsWithAttribution) {
  mpi::World w(checked_world(2, check::Mode::kStrict));
  try {
    w.run([](Comm& c) {
      std::vector<std::byte> buf(8);
      if (c.rank() == 0) {
        mpi::barrier(c);
      } else {
        mpi::bcast(c, mv(buf), 1);
      }
    });
    FAIL() << "expected a strict violation";
  } catch (const mpi::AbortedError& e) {
    // The non-throwing rank is woken with the propagated abort; World::run
    // rethrows the root Error, so landing here would be a bug.
    FAIL() << "root cause was not rethrown: " << e.what();
  } catch (const mpi::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("collective-order-mismatch"), std::string::npos)
        << what;
    // The mismatching rank (not the reference) is named.
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

TEST(CheckCollective, ReportModeRecordsRootMismatch) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  // Both ranks bcast 8 eager bytes but disagree on the root: each
  // "root" sends, nobody receives, and both calls complete locally.
  w.run([](Comm& c) {
    std::vector<std::byte> buf(8);
    mpi::bcast(c, mv(buf), c.rank());
  });
  const auto vs = violations_of(w);
  ASSERT_TRUE(has_code(vs, check::Code::kCollectiveSignatureMismatch));
  const auto it =
      std::find_if(vs.begin(), vs.end(), [](const check::Violation& v) {
        return v.code == check::Code::kCollectiveSignatureMismatch;
      });
  EXPECT_EQ(it->op, "bcast");
  EXPECT_EQ(it->rank, 1);  // rank 1 diverges from the rank-0 reference
  EXPECT_NE(it->detail.find("root 1 vs 0"), std::string::npos) << it->detail;
  // The unreceived binomial-tree sends also surface in the audit.
  EXPECT_TRUE(has_code(vs, check::Code::kUnmatchedSend));
}

TEST(CheckCollective, DivergentAllreduceCountIsASignatureMismatch) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  // Rank 1 contributes half the bytes: recursive doubling truncates on
  // one side (a substrate Error) and the signature mismatch explains why.
  try {
    w.run([](Comm& c) {
      const std::size_t bytes = c.rank() == 0 ? 64 : 32;
      std::vector<std::byte> s(bytes), r(bytes);
      mpi::allreduce(c, cv(s), mv(r), mpi::Datatype::kByte, mpi::Op::kSum);
    });
  } catch (const std::exception&) {
    // The substrate may fail the run; the record must survive it.
  }
  EXPECT_TRUE(has_code(violations_of(w),
                       check::Code::kCollectiveSignatureMismatch));
}

TEST(CheckCollective, IncompleteEpochIsAuditedOnFinalize) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  w.run([](Comm& c) {
    std::vector<std::byte> buf(8);
    // Only rank 0 bcasts (as self-root with eager bytes it completes
    // locally); rank 1 never enters the epoch.
    if (c.rank() == 0) mpi::bcast(c, mv(buf), 0);
  });
  const auto vs = violations_of(w);
  ASSERT_TRUE(has_code(vs, check::Code::kCollectiveIncomplete));
  const auto it =
      std::find_if(vs.begin(), vs.end(), [](const check::Violation& v) {
        return v.code == check::Code::kCollectiveIncomplete;
      });
  EXPECT_NE(it->detail.find("comm rank 1 never entered bcast"),
            std::string::npos)
      << it->detail;
}

// ---- Family 2: request hygiene ---------------------------------------------

TEST(CheckRequests, LeakedIrecvIsReportedWithCreationSite) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> buf(64);
      mpi::Request r = c.irecv(mv(buf), 1, 7);
      (void)r;  // dropped without wait()
    }
  });
  const auto vs = violations_of(w);
  ASSERT_TRUE(has_code(vs, check::Code::kRequestLeak));
  const auto it =
      std::find_if(vs.begin(), vs.end(), [](const check::Violation& v) {
        return v.code == check::Code::kRequestLeak;
      });
  EXPECT_EQ(it->rank, 0);
  EXPECT_NE(it->op.find("irecv 64B from comm rank 1 tag 7"),
            std::string::npos)
      << it->op;
}

TEST(CheckRequests, CopiedRequestLeaksOnceAndWaitSettlesAll) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  w.run([](Comm& c) {
    std::vector<std::byte> buf(16);
    if (c.rank() == 0) {
      mpi::Request a = c.isend(cv(buf), 1, 3);
      mpi::Request b = a;  // shared ticket
      (void)b.wait();      // settles the op for every copy
    } else {
      (void)c.recv(mv(buf), 0, 3);
    }
  });
  EXPECT_TRUE(violations_of(w).empty());
}

/// Rank 0 drops an unwaited 1 MiB isend (a zero-copy rendezvous), then
/// overwrites and frees its buffer; only afterwards does rank 1 post the
/// receive.  Returns what rank 1 got plus the checker's findings.
std::string dropped_isend_run() {
  constexpr std::size_t kBig = 1 << 20;
  mpi::World w(checked_world(2, check::Mode::kReport));
  std::string got;
  w.run([&](Comm& c) {
    std::vector<std::byte> token(8);
    if (c.rank() == 0) {
      auto buf = std::make_unique<std::vector<std::byte>>(kBig);
      for (std::size_t i = 0; i < kBig; ++i) {
        (*buf)[i] = static_cast<std::byte>(i * 7 + 3);
      }
      {
        mpi::Request r = c.isend(cv(*buf), 1, 5);
        (void)r;  // dropped without wait()
      }
      std::fill(buf->begin(), buf->end(), std::byte{0xee});
      buf.reset();
      c.send(cv(token), 1, 6);  // eager: rank 1 receives after the free
    } else {
      (void)c.recv(mv(token), 0, 6);
      std::vector<std::byte> in(kBig);
      (void)c.recv(mv(in), 0, 5);
      std::size_t bad = 0;
      for (std::size_t i = 0; i < kBig; ++i) {
        if (in[i] != static_cast<std::byte>(i * 7 + 3)) ++bad;
      }
      got = "bad bytes " + std::to_string(bad);
    }
  });
  for (const check::Violation& v : violations_of(w)) {
    got += '\n';
    got += v.to_string();
  }
  return got;
}

TEST(CheckRequests, DroppedZeroCopyIsendDeliversOriginalBytesAndLeaks) {
  const std::string first = dropped_isend_run();
  EXPECT_EQ(first.rfind("bad bytes 0\n", 0), 0U) << first;
  EXPECT_NE(first.find("[request-leak] rank 0"), std::string::npos) << first;
  EXPECT_NE(first.find("isend 1048576B to comm rank 1 tag 5"),
            std::string::npos)
      << first;
  EXPECT_EQ(dropped_isend_run(), first);  // byte-identical rerun
}

TEST(CheckRequests, AbandonedCollRequestAbortsPeersWithAttribution) {
  mpi::World w(checked_world(2, check::Mode::kStrict));
  try {
    w.run([](Comm& c) {
      if (c.rank() == 0) {
        mpi::CollRequest r = mpi::ibarrier(c);
        (void)r;  // dropped: rank 1 is stuck in barrier
      } else {
        mpi::barrier(c);
      }
    });
    FAIL() << "expected the run to fail";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("coll-request-leak"), std::string::npos) << what;
    EXPECT_NE(what.find("ibarrier"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  }
  EXPECT_TRUE(has_code(violations_of(w), check::Code::kCollRequestLeak));
}

// ---- Family 3: buffer lifetime / overlap -----------------------------------

TEST(CheckBuffers, SendFromPendingIrecvBufferIsFlagged) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  w.run([](Comm& c) {
    std::vector<std::byte> buf(64);
    if (c.rank() == 0) {
      mpi::Request r = c.irecv(mv(buf), 1, 3);
      c.send(cv(buf), 1, 4);  // reads bytes the irecv may rewrite
      (void)r.wait();
    } else {
      std::vector<std::byte> tmp(64);
      (void)c.recv(mv(tmp), 0, 4);
      c.send(cv(tmp), 0, 3);
    }
  });
  const auto vs = violations_of(w);
  ASSERT_TRUE(has_code(vs, check::Code::kBufferOverlap));
  const auto it =
      std::find_if(vs.begin(), vs.end(), [](const check::Violation& v) {
        return v.code == check::Code::kBufferOverlap;
      });
  EXPECT_EQ(it->rank, 0);
  EXPECT_NE(it->detail.find("irecv"), std::string::npos) << it->detail;
}

TEST(CheckBuffers, StrictOverlapThrowsAtTheTouchSite) {
  mpi::World w(checked_world(2, check::Mode::kStrict));
  EXPECT_THROW(
      w.run([](Comm& c) {
        std::vector<std::byte> buf(64);
        if (c.rank() == 0) {
          mpi::Request r = c.irecv(mv(buf), 1, 3);
          c.send(cv(buf), 1, 4);
          (void)r.wait();
        } else {
          std::vector<std::byte> tmp(64);
          (void)c.recv(mv(tmp), 0, 4);
          c.send(cv(tmp), 0, 3);
        }
      }),
      mpi::Error);
}

TEST(CheckBuffers, OsuWindowIdiomIsClean) {
  // The OSU bandwidth pattern: a window of irecvs posted into one buffer.
  // Write-write overlap is deliberately tolerated (FIFO matching keeps it
  // deterministic here), so this must produce zero violations.
  mpi::World w(checked_world(2, check::Mode::kStrict));
  w.run([](Comm& c) {
    constexpr int kWindow = 16;
    std::vector<std::byte> buf(256);
    std::vector<mpi::Request> reqs;
    if (c.rank() == 0) {
      for (int i = 0; i < kWindow; ++i) {
        reqs.push_back(c.irecv(mv(buf), 1, 5));
      }
    } else {
      for (int i = 0; i < kWindow; ++i) {
        reqs.push_back(c.isend(cv(buf), 0, 5));
      }
    }
    (void)mpi::Request::wait_all(reqs);
  });
  EXPECT_TRUE(violations_of(w).empty());
}

// ---- Family 4: finalize audit ----------------------------------------------

TEST(CheckAudit, UnmatchedSendNamesSourceAndTag) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> buf(16);
      mpi::Request r = c.isend(cv(buf), 1, 99);
      (void)r.wait();
    }
  });
  const auto vs = violations_of(w);
  ASSERT_TRUE(has_code(vs, check::Code::kUnmatchedSend));
  const auto it =
      std::find_if(vs.begin(), vs.end(), [](const check::Violation& v) {
        return v.code == check::Code::kUnmatchedSend;
      });
  EXPECT_EQ(it->rank, 1);  // attributed to the mailbox owner
  EXPECT_NE(it->detail.find("from comm rank 0 with tag 99"),
            std::string::npos)
      << it->detail;
}

TEST(CheckAudit, StrictModeFailsTheRunOnAuditFindings) {
  mpi::World w(checked_world(2, check::Mode::kStrict));
  try {
    w.run([](Comm& c) {
      if (c.rank() == 0) {
        std::vector<std::byte> buf(16);
        mpi::Request r = c.isend(cv(buf), 1, 99);
        (void)r.wait();
      }
    });
    FAIL() << "expected the end-of-run audit to fail the run";
  } catch (const mpi::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unmatched-send"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckAudit, OpenRmaEpochIsReportedWhenTheWindowDies) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  w.run([](Comm& c) {
    std::vector<std::byte> window(64);
    std::vector<std::byte> src(8);
    mpi::Win win(c, mv(window));
    win.put(cv(src), 1 - c.rank(), 0);
    // no fence before ~Win
  });
  const auto vs = violations_of(w);
  ASSERT_TRUE(has_code(vs, check::Code::kRmaEpochOpen));
}

TEST(CheckAudit, FencedRmaIsClean) {
  mpi::World w(checked_world(2, check::Mode::kStrict));
  w.run([](Comm& c) {
    std::vector<std::byte> window(64, std::byte{0});
    std::vector<std::byte> src(8, std::byte{0x7f});
    mpi::Win win(c, mv(window));
    win.fence();
    win.put(cv(src), 1 - c.rank(), 0);
    win.fence();
    std::vector<std::byte> dst(8);
    win.get(mv(dst), 1 - c.rank(), 0);
    win.fence();
    if (window.front() != std::byte{0x7f} || dst.front() != std::byte{0x7f}) {
      throw std::runtime_error("RMA payload mismatch");
    }
  });
  EXPECT_TRUE(violations_of(w).empty());
}

// ---- Clean runs and zero perturbation --------------------------------------

core::SuiteConfig quick_suite() {
  core::SuiteConfig cfg;
  cfg.nranks = 2;  // the p2p benches require exactly 2 ranks
  cfg.ppn = 2;
  cfg.opts.min_size = 1;
  cfg.opts.max_size = 4096;
  cfg.opts.iterations = 3;
  cfg.opts.warmup = 1;
  return cfg;
}

TEST(CheckClean, BenchSuiteRunsStrictWithZeroViolations) {
  core::SuiteConfig cfg = quick_suite();
  cfg.check.enabled = true;
  cfg.check.strict = true;
  // A strict violation (or false positive) anywhere in these would throw.
  EXPECT_NO_THROW({
    (void)bench_suite::run_latency(cfg);
    (void)bench_suite::run_bandwidth(cfg);
    (void)bench_suite::run_collective(cfg, bench_suite::CollBench::kAllreduce);
    (void)bench_suite::run_collective(cfg, bench_suite::CollBench::kAlltoall);
    (void)bench_suite::run_nbc(cfg, bench_suite::NbcBench::kIallreduce);
    (void)bench_suite::run_rma(cfg, bench_suite::RmaBench::kPutLatency);
  });
}

TEST(CheckClean, CheckedRowsAreByteIdenticalToUnchecked) {
  core::SuiteConfig off = quick_suite();
  core::SuiteConfig on = quick_suite();
  on.check.enabled = true;
  on.check.strict = true;
  const auto run_both = [&](auto&& fn) {
    const auto a = fn(off);
    const auto b = fn(on);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].size, b[i].size);
      // Exact equality, not tolerance: the checker must never touch
      // virtual time.
      EXPECT_EQ(a[i].stats.avg, b[i].stats.avg);
      EXPECT_EQ(a[i].stats.min, b[i].stats.min);
      EXPECT_EQ(a[i].stats.max, b[i].stats.max);
    }
  };
  run_both([](const core::SuiteConfig& c) {
    return bench_suite::run_latency(c);
  });
  run_both([](const core::SuiteConfig& c) {
    return bench_suite::run_collective(c,
                                       bench_suite::CollBench::kAllreduce);
  });
}

TEST(CheckClean, RepeatedMisuseYieldsTheSameSortedReport) {
  const auto run_once = [] {
    mpi::World w(checked_world(2, check::Mode::kReport));
    w.run([](Comm& c) {
      std::vector<std::byte> buf(8);
      mpi::bcast(c, mv(buf), c.rank());
    });
    std::vector<std::string> lines;
    for (const auto& v : violations_of(w)) lines.push_back(v.to_string());
    return lines;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(CheckClean, CheckerResetsBetweenRuns) {
  mpi::World w(checked_world(2, check::Mode::kReport));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> buf(16);
      mpi::Request r = c.isend(cv(buf), 1, 99);
      (void)r.wait();
    }
  });
  EXPECT_FALSE(violations_of(w).empty());
  // A clean second run on the same world starts from a clean slate.
  w.run([](Comm& c) { mpi::barrier(c); });
  EXPECT_TRUE(violations_of(w).empty());
}

}  // namespace
