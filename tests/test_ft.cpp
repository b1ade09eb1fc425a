// ULFM-style fault-tolerance tests (ombx::ft): rank-attributed failure
// detection at p2p and collective call sites, revoke interrupting blocked
// waits, deterministic shrink/renumbering, fault-tolerant agreement with
// failures mid-agreement, double-kill recovery, checker-clean strict runs
// through a shrink, the zero-perturbation pin for idle FT config, retry
// interplay with the checker, and resilience-table determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/suite.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "ft/ft.hpp"
#include "mpi/collectives.hpp"
#include "mpi/error.hpp"
#include "mpi/hierarchical.hpp"
#include "mpi/request.hpp"
#include "mpi/world.hpp"
#include "sched/sched.hpp"

using namespace ombx;
using mpi::Comm;
using mpi::ConstView;
using mpi::MutView;

namespace {

mpi::WorldConfig ft_world(int nranks, int ppn = 4) {
  mpi::WorldConfig wc;
  wc.cluster = net::ClusterSpec::frontera();
  wc.tuning = net::MpiTuning::mvapich2();
  wc.nranks = nranks;
  wc.ppn = ppn;
  wc.ft.enabled = true;
  return wc;
}

ConstView cv(const std::vector<std::byte>& v) {
  return ConstView{v.data(), v.size()};
}
MutView mv(std::vector<std::byte>& v) { return MutView{v.data(), v.size()}; }

/// Allreduce doubles until an FT error surfaces; returns the caught
/// failure's world rank (or -1 for a second-hand RevokedError).
int spin_until_failure(Comm& comm, std::vector<double>& val,
                       std::vector<double>& sum) {
  const ConstView sv{reinterpret_cast<const std::byte*>(val.data()),
                     val.size() * sizeof(double)};
  const MutView rv{reinterpret_cast<std::byte*>(sum.data()),
                   sum.size() * sizeof(double)};
  try {
    for (int i = 0; i < 1 << 20; ++i) {
      mpi::allreduce(comm, sv, rv, mpi::Datatype::kDouble, mpi::Op::kSum);
    }
  } catch (const ft::ProcFailedError& e) {
    return e.failed_rank();
  } catch (const ft::RevokedError&) {
    return -1;
  }
  ADD_FAILURE() << "kill never surfaced during the spin";
  return -2;
}

}  // namespace

// ---- Detection: p2p call sites ---------------------------------------------

TEST(FtDetection, SendToKilledRankRaisesProcFailed) {
  // The sender's clock is already past the victim's kill time, so the
  // static plan check raises at the send site with the failed rank named.
  mpi::WorldConfig wc = ft_world(4);
  wc.fault.kills.push_back({1, 100.0});
  mpi::World w(wc);
  std::atomic<bool> raised{false};

  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.clock().advance(200.0);
      std::vector<std::byte> buf(64, std::byte{1});
      try {
        c.send(cv(buf), 1, 7);
        ADD_FAILURE() << "send to a dead rank did not raise";
      } catch (const ft::ProcFailedError& e) {
        EXPECT_EQ(e.failed_rank(), 1);
        EXPECT_DOUBLE_EQ(e.at_time_us(), 100.0);
        raised = true;
      }
    }
    // Rank 1 exits before reaching its kill time; ranks 2-3 idle.
  });
  EXPECT_TRUE(raised.load());
}

TEST(FtDetection, BlockedRecvFromKilledRankRaisesAfterDetectTimeout) {
  mpi::WorldConfig wc = ft_world(3);
  wc.fault.kills.push_back({1, 50.0});
  mpi::World w(wc);
  std::atomic<bool> raised{false};

  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> buf(64);
      try {
        (void)c.recv(mv(buf), 1, 7);
        ADD_FAILURE() << "recv from a dead rank did not raise";
      } catch (const ft::ProcFailedError& e) {
        EXPECT_EQ(e.failed_rank(), 1);
        // Detection is bounded: death time + configured detect timeout.
        EXPECT_GE(c.now(), 50.0 + wc.ft.detect_timeout_us);
        raised = true;
      }
    } else if (c.rank() == 1) {
      c.clock().advance(60.0);
      c.charge_flops(8.0);  // next substrate call past t=50 -> killed
      ADD_FAILURE() << "rank 1 outlived its kill time";
    }
  });
  EXPECT_TRUE(raised.load());
}

// ---- Detection: collective call sites --------------------------------------

TEST(FtDetection, CollectiveAt8RanksScopedNotGlobal) {
  // A kill mid-allreduce must not poison the world: every survivor gets a
  // rank-attributed FT error (first- or second-hand), recovers, and
  // finishes — no hang, no whole-world abort.
  mpi::WorldConfig wc = ft_world(8);
  wc.fault.kills.push_back({3, 400.0});
  mpi::World w(wc);
  std::atomic<int> survivors_done{0};
  std::atomic<int> first_hand{0};

  w.run([&](Comm& comm) {
    std::vector<double> val(128, 1.0);
    std::vector<double> sum(128, 0.0);
    const int failed = spin_until_failure(comm, val, sum);
    if (failed >= 0) {
      EXPECT_EQ(failed, 3);
      first_hand.fetch_add(1);
    }
    comm.revoke();
    comm.failure_ack();
    Comm alive = comm.shrink();
    mpi::allreduce(alive,
                   ConstView{reinterpret_cast<const std::byte*>(val.data()),
                             val.size() * sizeof(double)},
                   MutView{reinterpret_cast<std::byte*>(sum.data()),
                           sum.size() * sizeof(double)},
                   mpi::Datatype::kDouble, mpi::Op::kSum);
    EXPECT_DOUBLE_EQ(sum[0], 7.0);
    survivors_done.fetch_add(1);
  });
  EXPECT_EQ(survivors_done.load(), 7);
  EXPECT_GE(first_hand.load(), 1);  // someone detected it directly
}

// ---- Revoke ----------------------------------------------------------------

TEST(FtRevoke, InterruptsBlockedWait) {
  // Rank 0 blocks on a message rank 2 will never send; rank 2 revokes the
  // communicator instead, which must unwind rank 0 with RevokedError.
  mpi::World w(ft_world(3));
  std::atomic<bool> revoked_seen{false};

  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> buf(64);
      try {
        (void)c.recv(mv(buf), 2, 5);
        ADD_FAILURE() << "recv on a revoked comm did not raise";
      } catch (const ft::RevokedError&) {
        revoked_seen = true;
      }
    } else if (c.rank() == 2) {
      c.clock().advance(40.0);
      c.revoke();
    }
  });
  EXPECT_TRUE(revoked_seen.load());
}

TEST(FtRevoke, QueuedMatchBeatsRevocation) {
  // Match-wins rule: a message already queued for the receiver is
  // delivered even if the sender revokes immediately afterwards — the
  // send happens-before the sender's own exit mark.
  mpi::World w(ft_world(2, /*ppn=*/2));
  std::atomic<bool> delivered{false};

  w.run([&](Comm& c) {
    std::vector<std::byte> buf(16, std::byte{0x7e});
    if (c.rank() == 1) {
      c.send(cv(buf), 0, 3);
      c.revoke();
    } else {
      std::vector<std::byte> got(16);
      (void)c.recv(mv(got), 1, 3);  // must NOT raise RevokedError
      EXPECT_EQ(std::memcmp(got.data(), buf.data(), got.size()), 0);
      delivered = true;
    }
  });
  EXPECT_TRUE(delivered.load());
}

TEST(FtRevoke, RendezvousSendPostedAfterRevokeRaisesInsteadOfHanging) {
  // Regression: a peer's revoke wake-sweep runs before the sender
  // registers its rendezvous sync cell, so no future sweep can reach it.
  // The post-registration FT handshake in post_send must interrupt the
  // send; previously the sender parked on the cell forever and only the
  // watchdog (flakily, host-timing dependent) reported the hang.
  mpi::World w(ft_world(2, /*ppn=*/2));
  std::atomic<bool> revoked{false};
  std::atomic<bool> raised{false};

  w.run([&](Comm& c) {
    if (c.rank() == 1) {
      c.revoke();
      revoked = true;
      return;
    }
    // Host-level spin in a rank body: must yield the *fiber* (a plain
    // thread yield would hog the worker and starve rank 1 on a
    // one-worker pool).
    while (!revoked.load()) {
      sched::maybe_yield();
      std::this_thread::yield();
    }
    // Large payload: the blocking send takes the zero-copy rendezvous
    // path and waits on its sync cell for a claim that can never come.
    std::vector<std::byte> big(1 << 20, std::byte{1});
    try {
      c.send(cv(big), 1, 7);
      ADD_FAILURE() << "rendezvous send to an exited peer did not raise";
    } catch (const ft::RevokedError&) {
      raised = true;
    }
  });
  EXPECT_TRUE(raised.load());
}

// ---- Zero-copy isend teardown ---------------------------------------------

namespace {

constexpr std::size_t kIsendBytes = 1 << 20;  // rendezvous on every link

std::byte isend_pattern(std::size_t i) {
  return static_cast<std::byte>(i * 13 + 1);
}

std::vector<std::byte> patterned(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = isend_pattern(i);
  return v;
}

std::string bytes_outcome(const std::vector<std::byte>& in) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != isend_pattern(i)) ++bad;
  }
  return "bad bytes " + std::to_string(bad);
}

void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load()) {
    sched::maybe_yield();
    std::this_thread::yield();
  }
}

/// Overwrites its buffer with 0xee when destroyed, then raises `gone`:
/// declared between a buffer and an isend Request, it runs after the
/// Request is dropped, standing in for the buffer's reuse.
struct Scribble {
  std::vector<std::byte>& buf;
  std::atomic<bool>& gone;
  ~Scribble() {
    std::fill(buf.begin(), buf.end(), std::byte{0xee});
    gone = true;
  }
};

/// Rank 0 posts a 1 MiB zero-copy isend to rank 1, runs past its kill
/// time and dies on its next call with the send unwaited.  Rank 1 receives
/// only once rank 0's frame is gone.  Returns rank 1's outcome and clock.
std::string killed_isend_run() {
  mpi::WorldConfig wc = ft_world(2, /*ppn=*/1);
  wc.fault.kills.push_back({0, 50.0});
  mpi::World w(wc);
  std::atomic<bool> gone{false};
  std::string outcome;
  w.run([&](Comm& c) {
    std::vector<std::byte> token(8);
    if (c.rank() == 0) {
      std::vector<std::byte> data = patterned(kIsendBytes);
      Scribble scribble{data, gone};
      mpi::Request r = c.isend(cv(data), 1, 5);
      c.clock().advance(100.0);
      c.send(cv(token), 1, 6);  // past the kill time: raises
      ADD_FAILURE() << "the kill did not fire";
      return;
    }
    spin_until(gone);
    std::vector<std::byte> in(kIsendBytes);
    try {
      (void)c.recv(mv(in), 0, 5);
      outcome = bytes_outcome(in);
    } catch (const ft::ProcFailedError& e) {
      outcome = "proc failed: rank " + std::to_string(e.failed_rank());
    }
    outcome += " at t=" + std::to_string(c.now());
  });
  return outcome;
}

}  // namespace

TEST(FtZeroCopyIsend, KilledSenderDeliversDetachedBytesOrRaises) {
  // The send was queued before the kill in virtual time, so rank 1 may
  // still match it after rank 0 unwound: it must read the copy rank 0
  // detached on the way out, or raise ProcFailedError — never the
  // scribbled buffer.  Same plan, same outcome, byte for byte.
  const std::string first = killed_isend_run();
  EXPECT_TRUE(first.rfind("bad bytes 0 ", 0) == 0 ||
              first.rfind("proc failed: rank 0 ", 0) == 0)
      << first;
  EXPECT_EQ(killed_isend_run(), first);
}

TEST(FtZeroCopyIsend, RevokedWaitDetachesBeforeTheSenderUnwinds) {
  // Rank 1 revokes with rank 0's isend still queued for it; rank 0's wait
  // raises RevokedError and rank 0 reuses the buffer.  A queued match
  // beats revocation, so rank 1 can still receive the send afterwards:
  // it must get the original bytes.
  const auto run_once = [] {
    mpi::World w(ft_world(2, /*ppn=*/2));
    std::atomic<bool> revoked{false};
    std::atomic<bool> gone{false};
    std::string outcome;
    w.run([&](Comm& c) {
      if (c.rank() == 0) {
        std::vector<std::byte> data = patterned(kIsendBytes);
        Scribble scribble{data, gone};
        mpi::Request r = c.isend(cv(data), 1, 5);
        spin_until(revoked);
        try {
          (void)r.wait();
          ADD_FAILURE() << "wait on a revoked peer did not raise";
        } catch (const ft::RevokedError&) {
        }
        return;
      }
      c.revoke();
      revoked = true;
      spin_until(gone);
      std::vector<std::byte> in(kIsendBytes);
      try {
        (void)c.recv(mv(in), 0, 5);
        outcome = bytes_outcome(in);
      } catch (const ft::RevokedError&) {
        outcome = "revoked";
      }
      outcome += " at t=" + std::to_string(c.now());
    });
    return outcome;
  };
  const std::string first = run_once();
  EXPECT_EQ(first.rfind("bad bytes 0 ", 0), 0U) << first;
  EXPECT_EQ(run_once(), first);
}

// ---- Shrink ----------------------------------------------------------------

TEST(FtShrink, RebuildsRenumberedCommThatFullyWorks) {
  mpi::WorldConfig wc = ft_world(8);
  wc.fault.kills.push_back({5, 300.0});
  mpi::World w(wc);
  std::atomic<int> done{0};

  w.run([&](Comm& comm) {
    std::vector<double> val(64, 1.0);
    std::vector<double> sum(64, 0.0);
    (void)spin_until_failure(comm, val, sum);
    comm.revoke();
    // agree() completes only once every member arrived or died, so the
    // failure snapshot taken after it is complete and deterministic —
    // ack'ing before the barrier would race with the victim's thread.
    (void)comm.agree(1u);
    comm.failure_ack();
    const std::vector<int> failed = comm.get_failed();
    EXPECT_EQ(failed, std::vector<int>{5});

    Comm alive = comm.shrink();
    ASSERT_EQ(alive.size(), 7);
    // Deterministic renumbering: survivors keep world order, dense ranks.
    const std::array<int, 7> expect_world{0, 1, 2, 3, 4, 6, 7};
    EXPECT_EQ(alive.world_rank(alive.rank()),
              expect_world[static_cast<std::size_t>(alive.rank())]);

    // The fresh context supports p2p...
    std::vector<std::byte> buf(32, std::byte{0x2a});
    if (alive.rank() == 0) {
      alive.send(cv(buf), alive.size() - 1, 11);
    } else if (alive.rank() == alive.size() - 1) {
      std::vector<std::byte> got(32);
      (void)alive.recv(mv(got), 0, 11);
      EXPECT_EQ(std::memcmp(got.data(), buf.data(), got.size()), 0);
    }
    // ...flat collectives...
    mpi::allreduce(alive,
                   ConstView{reinterpret_cast<const std::byte*>(val.data()),
                             val.size() * sizeof(double)},
                   MutView{reinterpret_cast<std::byte*>(sum.data()),
                           sum.size() * sizeof(double)},
                   mpi::Datatype::kDouble, mpi::Op::kSum);
    EXPECT_DOUBLE_EQ(sum[0], 7.0);
    // ...and the topology-aware two-level path (layout rebuild).
    mpi::HierarchicalComm hc(alive);
    hc.barrier();
    hc.allreduce(ConstView{reinterpret_cast<const std::byte*>(val.data()),
                           val.size() * sizeof(double)},
                 MutView{reinterpret_cast<std::byte*>(sum.data()),
                         sum.size() * sizeof(double)},
                 mpi::Datatype::kDouble, mpi::Op::kSum);
    EXPECT_DOUBLE_EQ(sum[0], 7.0);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 7);
}

TEST(FtShrink, DoubleKillRecoversTwice) {
  mpi::WorldConfig wc = ft_world(8);
  wc.fault.kills.push_back({3, 200.0});
  wc.fault.kills.push_back({6, 4000.0});
  mpi::World w(wc);
  std::atomic<int> done{0};

  w.run([&](Comm& comm) {
    std::vector<double> val(64, 1.0);
    std::vector<double> sum(64, 0.0);

    (void)spin_until_failure(comm, val, sum);
    comm.revoke();
    comm.failure_ack();
    Comm seven = comm.shrink();
    ASSERT_EQ(seven.size(), 7);

    (void)spin_until_failure(seven, val, sum);
    seven.revoke();
    Comm six = seven.shrink();
    ASSERT_EQ(six.size(), 6);
    // Failures are per-communicator: query the comm rank 6 belonged to.
    // The completed shrink barrier guarantees the set is complete here.
    seven.failure_ack();
    const std::vector<int> failed = seven.get_failed();
    EXPECT_EQ(failed, std::vector<int>{6});

    mpi::allreduce(six,
                   ConstView{reinterpret_cast<const std::byte*>(val.data()),
                             val.size() * sizeof(double)},
                   MutView{reinterpret_cast<std::byte*>(sum.data()),
                           sum.size() * sizeof(double)},
                   mpi::Datatype::kDouble, mpi::Op::kSum);
    EXPECT_DOUBLE_EQ(sum[0], 6.0);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 6);
}

// ---- Agreement -------------------------------------------------------------

TEST(FtAgree, ToleratesFailureMidAgreement) {
  // Rank 2 dies before arriving at the agreement; the survivors' agree()
  // must still complete (arrived-or-dead), AND their contributions, and
  // flag the unacknowledged failure.
  mpi::WorldConfig wc = ft_world(4);
  wc.fault.kills.push_back({2, 50.0});
  mpi::World w(wc);
  std::atomic<int> done{0};

  w.run([&](Comm& c) {
    if (c.rank() == 2) {
      c.clock().advance(60.0);
      c.charge_flops(8.0);  // killed here, never reaches agree()
      ADD_FAILURE() << "rank 2 outlived its kill time";
      return;
    }
    const Comm::AgreeOutcome out = c.agree(c.rank() == 0 ? 0b11u : 0b01u);
    EXPECT_EQ(out.bits, 0b01u);          // AND over the survivors
    EXPECT_TRUE(out.new_failures);       // rank 2's death was never acked
    const std::vector<int> failed = c.get_failed();
    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0], 2);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 3);
}

TEST(FtAgree, AckedFailureIsNotNew) {
  mpi::WorldConfig wc = ft_world(4);
  wc.fault.kills.push_back({1, 50.0});
  mpi::World w(wc);

  w.run([&](Comm& c) {
    if (c.rank() == 1) {
      c.clock().advance(60.0);
      c.charge_flops(8.0);
      return;
    }
    // First agreement observes the failure; after failure_ack a second
    // agreement reports nothing new (ULFM MPIX_Comm_agree semantics).
    const Comm::AgreeOutcome first = c.agree(1u);
    EXPECT_TRUE(first.new_failures);
    c.failure_ack();
    const Comm::AgreeOutcome second = c.agree(1u);
    EXPECT_FALSE(second.new_failures);
  });
}

// ---- Checker interplay -----------------------------------------------------

TEST(FtChecker, StrictCheckedRunStaysCleanThroughShrink) {
  // Recovery abandons collective epochs and in-flight sends on the old
  // context; the checker must excuse that residue, so a strict run
  // through kill -> revoke -> shrink finishes with zero violations.
  mpi::WorldConfig wc = ft_world(8);
  wc.fault.kills.push_back({3, 400.0});
  wc.check.enabled = true;
  wc.check.mode = check::Mode::kStrict;
  mpi::World w(wc);

  EXPECT_NO_THROW(w.run([&](Comm& comm) {
    std::vector<double> val(64, 1.0);
    std::vector<double> sum(64, 0.0);
    (void)spin_until_failure(comm, val, sum);
    comm.revoke();
    comm.failure_ack();
    Comm alive = comm.shrink();
    mpi::barrier(alive);
  }));
  ASSERT_NE(w.engine().checker(), nullptr);
  EXPECT_TRUE(w.engine().checker()->empty());
}

TEST(RetryChecker, RetriedAttemptStartsFromCleanCheckerState) {
  // An aborted first attempt leaves unmatched sends and an open collective
  // epoch behind; the retry must reset that state, or attempt 2 would
  // fail strict checking with phantom violations.
  mpi::WorldConfig wc = ft_world(4);
  wc.ft.enabled = false;
  wc.check.enabled = true;
  wc.check.mode = check::Mode::kStrict;
  mpi::World w(wc);
  std::atomic<bool> fail_once{true};

  const core::RunOutcome out = core::run_with_retry(
      w,
      [&](Comm& c) {
        std::vector<double> val(64, 1.0);
        std::vector<double> sum(64, 0.0);
        const ConstView sv{reinterpret_cast<const std::byte*>(val.data()),
                           val.size() * sizeof(double)};
        const MutView rv{reinterpret_cast<std::byte*>(sum.data()),
                         sum.size() * sizeof(double)};
        mpi::allreduce(c, sv, rv, mpi::Datatype::kDouble, mpi::Op::kSum);
        if (c.rank() == 2 && fail_once.exchange(false)) {
          // Leave peers mid-collective and an unmatched send in rank 3's
          // mailbox, then die: worst-case residue for the next attempt.
          std::vector<std::byte> stray(32, std::byte{0x11});
          c.send(cv(stray), 3, 13);
          throw std::runtime_error("injected failure on attempt 1");
        }
        mpi::allreduce(c, sv, rv, mpi::Datatype::kDouble, mpi::Op::kSum);
        mpi::barrier(c);
      },
      core::RetryPolicy{.max_attempts = 3, .backoff_ms = 0.0});

  EXPECT_TRUE(out.succeeded);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_NE(w.engine().checker(), nullptr);
  EXPECT_TRUE(w.engine().checker()->empty());
}

// ---- Zero perturbation -----------------------------------------------------

TEST(FtZeroPerturbation, IdleFtModeLeavesTimingIdentical) {
  // FT enabled with an empty fault plan must be timing-invisible: the
  // whole detection machinery only acts when something actually fails.
  const auto finish_times = [](bool ft_enabled) {
    mpi::WorldConfig wc = ft_world(4);
    wc.ft.enabled = ft_enabled;
    mpi::World w(wc);
    w.run([&](Comm& c) {
      std::vector<double> val(128, 1.0);
      std::vector<double> sum(128, 0.0);
      std::vector<std::byte> buf(64);
      for (int i = 0; i < 25; ++i) {
        mpi::allreduce(c,
                       ConstView{
                           reinterpret_cast<const std::byte*>(val.data()),
                           val.size() * sizeof(double)},
                       MutView{reinterpret_cast<std::byte*>(sum.data()),
                               sum.size() * sizeof(double)},
                       mpi::Datatype::kDouble, mpi::Op::kSum);
        if (c.rank() == 0) {
          c.send(cv(buf), 1, 4);
        } else if (c.rank() == 1) {
          (void)c.recv(mv(buf), 0, 4);
        }
      }
    });
    std::vector<double> t;
    for (int r = 0; r < 4; ++r) t.push_back(w.finish_time(r));
    return t;
  };
  EXPECT_EQ(finish_times(false), finish_times(true));
}

// ---- Resilient benchmark mode ----------------------------------------------

TEST(FtBench, ResilienceTableIsByteIdenticalAcrossRuns) {
  core::SuiteConfig cfg;
  cfg.nranks = 8;
  cfg.ppn = 8;
  cfg.opts.max_size = 4096;
  cfg.opts.iterations = 4;
  cfg.ft.enabled = true;
  cfg.fault.seed = 7;
  cfg.fault.kills.push_back({3, 500.0});

  const core::FtReport a =
      bench_suite::run_ft_collective(cfg, bench_suite::CollBench::kAllreduce);
  const core::FtReport b =
      bench_suite::run_ft_collective(cfg, bench_suite::CollBench::kAllreduce);

  EXPECT_EQ(a.survivors, 7);
  EXPECT_EQ(a.failed, std::vector<int>{3});
  EXPECT_GT(a.detect_latency_us, 0.0);
  EXPECT_GT(a.healthy_latency_us, 0.0);
  EXPECT_GT(a.recovered_latency_us, 0.0);
  EXPECT_EQ(core::ft_resilience_table(a).to_string(),
            core::ft_resilience_table(b).to_string());
}
