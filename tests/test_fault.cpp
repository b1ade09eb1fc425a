// Fault-injection and failure-propagation tests: abort propagation (no
// hang when a rank dies mid-collective), poisoned capacity-blocked
// senders, truncated-receive attribution, seeded drop/retransmit
// determinism, degradation windows, stragglers, rank kills, the deadlock
// watchdog, and runner-level retry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/runner.hpp"
#include "mpi/collectives.hpp"
#include "mpi/error.hpp"
#include "mpi/request.hpp"
#include "mpi/world.hpp"
#include "sched/sched.hpp"

using namespace ombx;
using mpi::Comm;
using mpi::ConstView;
using mpi::MutView;

namespace {

mpi::WorldConfig small_world(int nranks, int ppn = 2) {
  mpi::WorldConfig wc;
  wc.cluster = net::ClusterSpec::frontera();
  wc.tuning = net::MpiTuning::mvapich2();
  wc.nranks = nranks;
  wc.ppn = ppn;
  return wc;
}

ConstView cv(const std::vector<std::byte>& v) {
  return ConstView{v.data(), v.size()};
}
MutView mv(std::vector<std::byte>& v) { return MutView{v.data(), v.size()}; }

struct PingpongResult {
  double finish = 0.0;  ///< rank 0's virtual finish time
  std::uint64_t retransmits = 0;
  std::uint64_t degraded = 0;
  bool had_plan = false;
};

/// A (possibly fault-injected) 2-rank ping-pong.
PingpongResult pingpong(const mpi::WorldConfig& wc, std::size_t bytes,
                        int iters) {
  mpi::World w(wc);
  w.run([&](Comm& c) {
    std::vector<std::byte> sbuf(bytes, std::byte{0x5a});
    std::vector<std::byte> rbuf(bytes);
    for (int i = 0; i < iters; ++i) {
      if (c.rank() == 0) {
        c.send(cv(sbuf), 1, 7);
        (void)c.recv(mv(rbuf), 1, 7);
      } else {
        (void)c.recv(mv(rbuf), 0, 7);
        c.send(cv(sbuf), 0, 7);
      }
    }
  });
  PingpongResult out;
  out.finish = w.finish_time(0);
  if (const fault::FaultPlan* plan = w.fault_plan()) {
    out.had_plan = true;
    out.retransmits = plan->counters().retransmits.load();
    out.degraded = plan->counters().degraded_messages.load();
  }
  return out;
}

double pingpong_finish_time(const mpi::WorldConfig& wc, std::size_t bytes,
                            int iters) {
  return pingpong(wc, bytes, iters).finish;
}

}  // namespace

// ---- Abort propagation ------------------------------------------------------

TEST(AbortPropagation, RankThrowDuringAllreduceWakesAllPeers) {
  // Acceptance criterion: one rank throws during an Allreduce while 7
  // peers are blocked; the run completes with AbortedError naming the
  // origin rank on every peer — no hang.
  constexpr int kRanks = 8;
  constexpr int kFailing = 3;
  mpi::World w(small_world(kRanks, /*ppn=*/4));
  std::array<std::atomic<bool>, kRanks> saw_abort{};
  std::array<std::atomic<int>, kRanks> origin{};

  EXPECT_THROW(
      w.run([&](Comm& c) {
        std::vector<double> acc(256, 1.0);
        std::vector<double> out(256, 0.0);
        if (c.rank() == kFailing) {
          throw std::runtime_error("injected failure before collective");
        }
        try {
          mpi::allreduce(
              c,
              ConstView{reinterpret_cast<const std::byte*>(acc.data()),
                        acc.size() * sizeof(double)},
              MutView{reinterpret_cast<std::byte*>(out.data()),
                      out.size() * sizeof(double)},
              mpi::Datatype::kDouble, mpi::Op::kSum);
        } catch (const mpi::AbortedError& e) {
          saw_abort[static_cast<std::size_t>(c.rank())] = true;
          origin[static_cast<std::size_t>(c.rank())] = e.origin_rank();
          throw;
        }
      }),
      std::runtime_error);

  for (int r = 0; r < kRanks; ++r) {
    if (r == kFailing) continue;
    EXPECT_TRUE(saw_abort[static_cast<std::size_t>(r)].load())
        << "rank " << r << " was not woken by the abort";
    EXPECT_EQ(origin[static_cast<std::size_t>(r)].load(), kFailing)
        << "rank " << r << " saw the wrong origin rank";
  }
}

TEST(AbortPropagation, RootCauseIsRethrownNotThePropagatedAbort) {
  mpi::World w(small_world(4));
  try {
    w.run([](Comm& c) {
      if (c.rank() == 2) throw std::runtime_error("root cause");
      std::vector<std::byte> buf(8);
      (void)c.recv(mv(buf), (c.rank() + 1) % c.size(), 0);
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root cause");
  }
}

TEST(AbortPropagation, CapacityBlockedSenderIsPoisonedAwake) {
  // Satellite fix: a sender blocked because the destination mailbox is
  // full must also be woken by the abort instead of hanging forever.
  mpi::WorldConfig wc = small_world(2);
  wc.mailbox_capacity = 4;
  mpi::World w(wc);
  std::atomic<bool> sender_aborted{false};

  EXPECT_THROW(
      w.run([&](Comm& c) {
        if (c.rank() == 0) {
          std::vector<std::byte> one(1, std::byte{1});
          try {
            for (int i = 0; i < 1000; ++i) c.send(cv(one), 1, 3);
          } catch (const mpi::AbortedError& e) {
            sender_aborted = true;
            EXPECT_EQ(e.origin_rank(), 1);
            throw;
          }
        } else {
          // Never receive; die instead.
          throw std::runtime_error("receiver died");
        }
      }),
      std::runtime_error);
  EXPECT_TRUE(sender_aborted.load());
}

TEST(AbortPropagation, PoisonWakesSenderBlockedBehindManyBins) {
  // The binned mailbox must wake a capacity-blocked sender no matter
  // which bins hold the backlog: fill the destination with one message
  // per tag (four distinct bins), block on the fifth, then kill the
  // receiver.
  mpi::WorldConfig wc = small_world(2);
  wc.mailbox_capacity = 4;
  mpi::World w(wc);
  std::atomic<bool> box_full{false};
  std::atomic<bool> sender_aborted{false};

  EXPECT_THROW(
      w.run([&](Comm& c) {
        if (c.rank() == 0) {
          std::vector<std::byte> one(1, std::byte{1});
          try {
            for (int t = 0; t < 4; ++t) c.send(cv(one), 1, t);
            box_full = true;
            c.send(cv(one), 1, 4);  // blocks on capacity
            for (int t = 5; t < 64; ++t) c.send(cv(one), 1, t);
          } catch (const mpi::AbortedError& e) {
            sender_aborted = true;
            EXPECT_EQ(e.origin_rank(), 1);
            throw;
          }
        } else {
          // Yield the fiber, not just the thread: on a one-worker pool a
          // plain thread yield would starve the sender this loop awaits.
          while (!box_full.load()) {
            sched::maybe_yield();
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("receiver died with full bins");
        }
      }),
      std::runtime_error);
  EXPECT_TRUE(sender_aborted.load());

  // reset() must have drained every bin: a clean rerun works and sees
  // none of the stale backlog.
  w.run([](Comm& c) {
    std::vector<std::byte> buf(8, std::byte{7});
    if (c.rank() == 0) {
      c.send(cv(buf), 1, 0);
    } else {
      const mpi::Status st = c.recv(mv(buf), 0, 0);
      EXPECT_EQ(st.bytes, 8u) << "stale pre-abort message leaked into rerun";
    }
  });
}

TEST(AbortPropagation, RendezvousSenderIsPoisonedAwake) {
  // A rendezvous send blocks on its SyncCell until the receiver matches;
  // if the receiver dies first the cell must be poisoned.
  mpi::World w(small_world(2));
  std::atomic<bool> sender_aborted{false};
  const std::size_t big = 1 << 20;  // far beyond any eager threshold

  EXPECT_THROW(
      w.run([&](Comm& c) {
        if (c.rank() == 0) {
          std::vector<std::byte> data(big, std::byte{0x42});
          try {
            c.send(cv(data), 1, 9);
          } catch (const mpi::AbortedError&) {
            sender_aborted = true;
            throw;
          }
        } else {
          throw std::runtime_error("receiver died before matching");
        }
      }),
      std::runtime_error);
  EXPECT_TRUE(sender_aborted.load());
}

TEST(AbortPropagation, WorldIsReusableAfterAbort) {
  mpi::World w(small_world(2));
  EXPECT_THROW(w.run([](Comm& c) {
                 if (c.rank() == 0) throw std::runtime_error("boom");
                 std::vector<std::byte> buf(8);
                 (void)c.recv(mv(buf), 0, 0);
               }),
               std::runtime_error);
  // The poison must be cleared: a healthy program runs to completion.
  w.run([](Comm& c) {
    std::vector<std::byte> buf(8, std::byte{7});
    if (c.rank() == 0) {
      c.send(cv(buf), 1, 1);
    } else {
      (void)c.recv(mv(buf), 0, 1);
    }
  });
  SUCCEED();
}

// ---- Error attribution ------------------------------------------------------

TEST(ErrorAttribution, TruncatedRecvNamesRankAndContext) {
  mpi::World w(small_world(2));
  try {
    w.run([](Comm& c) {
      if (c.rank() == 0) {
        std::vector<std::byte> data(64, std::byte{1});
        c.send(cv(data), 1, 5);
      } else {
        std::vector<std::byte> tiny(8);
        (void)c.recv(mv(tiny), 0, 5);
      }
    });
    FAIL() << "expected truncation error";
  } catch (const mpi::Error& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.context(), 0);
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(ErrorAttribution, AbortedErrorCarriesOriginAndReason) {
  const fault::AbortInfo info{2, "synthetic reason", false};
  const mpi::AbortedError e(info);
  EXPECT_EQ(e.origin_rank(), 2);
  EXPECT_EQ(e.reason(), "synthetic reason");
  EXPECT_NE(std::string(e.what()).find("origin rank 2"), std::string::npos);
}

// ---- Seeded fault plans -----------------------------------------------------

TEST(FaultPlan, SameSeedSameScheduleDifferentSeedDifferentSchedule) {
  // Acceptance criterion: two runs with the same seed produce
  // byte-identical retransmit counts and virtual-time results; a
  // different seed produces a different fault schedule.
  mpi::WorldConfig wc = small_world(2, /*ppn=*/1);  // inter-node link
  wc.fault.seed = 42;
  wc.fault.drop.probability = 0.25;
  wc.fault.drop.retransmit_timeout_us = 40.0;

  const PingpongResult a = pingpong(wc, 512, 200);
  const PingpongResult b = pingpong(wc, 512, 200);
  ASSERT_TRUE(a.had_plan) << "fault plan expected";
  EXPECT_GT(a.retransmits, 0U) << "p=0.25 over 400 sends must drop something";
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.finish, b.finish);  // byte-identical virtual time

  wc.fault.seed = 43;
  const PingpongResult c = pingpong(wc, 512, 200);
  EXPECT_TRUE(c.retransmits != a.retransmits || c.finish != a.finish)
      << "different seed produced an identical fault schedule";
}

TEST(FaultPlan, RetransmitsChargeVirtualTime) {
  mpi::WorldConfig clean = small_world(2, /*ppn=*/1);
  mpi::WorldConfig faulty = clean;
  faulty.fault.seed = 7;
  faulty.fault.drop.probability = 0.5;
  faulty.fault.drop.retransmit_timeout_us = 100.0;

  const PingpongResult r = pingpong(faulty, 256, 100);
  const double t_clean = pingpong_finish_time(clean, 256, 100);
  EXPECT_GT(r.retransmits, 0U);
  // Every retransmit stalls the critical path of a ping-pong, so the
  // faulty run must be slower by at least one timeout per retransmit.
  EXPECT_GE(r.finish,
            t_clean + 100.0 * static_cast<double>(r.retransmits) - 1e-9);
}

TEST(FaultPlan, CorruptionFlipsPayloadBytes) {
  mpi::WorldConfig wc = small_world(2, /*ppn=*/1);
  wc.fault.seed = 1;
  wc.fault.corrupt.probability = 1.0;
  mpi::World w(wc);
  w.run([](Comm& c) {
    std::vector<std::byte> data(128, std::byte{0x11});
    if (c.rank() == 0) {
      c.send(cv(data), 1, 2);
    } else {
      std::vector<std::byte> got(128);
      (void)c.recv(mv(got), 0, 2);
      EXPECT_NE(got, data) << "p=1 corruption left the payload intact";
    }
  });
  ASSERT_NE(w.fault_plan(), nullptr);
  EXPECT_EQ(w.fault_plan()->counters().corruptions.load(), 1U);
}

TEST(FaultPlan, ScheduleIsPayloadModeIndependent) {
  // The fault schedule (drops, corruption draws, virtual-time outcomes)
  // must not depend on whether payload bytes physically travel: synthetic
  // mode exists precisely so at-scale runs reproduce real-mode timing.
  mpi::WorldConfig wc = small_world(2, /*ppn=*/1);
  wc.fault.seed = 11;
  wc.fault.drop.probability = 0.2;
  wc.fault.drop.retransmit_timeout_us = 25.0;
  wc.fault.corrupt.probability = 0.3;

  struct Outcome {
    double finish;
    std::uint64_t retransmits;
    std::uint64_t corruptions;
  };
  auto run = [&](mpi::PayloadMode mode) {
    mpi::WorldConfig cfg = wc;
    cfg.payload = mode;
    mpi::World w(cfg);
    w.run([](Comm& c) {
      std::vector<std::byte> sbuf(512, std::byte{0x5a});
      std::vector<std::byte> rbuf(512);
      for (int i = 0; i < 300; ++i) {
        if (c.rank() == 0) {
          c.send(cv(sbuf), 1, 7);
          (void)c.recv(mv(rbuf), 1, 7);
        } else {
          (void)c.recv(mv(rbuf), 0, 7);
          c.send(cv(sbuf), 0, 7);
        }
      }
    });
    return Outcome{w.finish_time(0),
                   w.fault_plan()->counters().retransmits.load(),
                   w.fault_plan()->counters().corruptions.load()};
  };

  const Outcome real = run(mpi::PayloadMode::kReal);
  const Outcome synth = run(mpi::PayloadMode::kSynthetic);
  EXPECT_GT(real.retransmits, 0u);
  EXPECT_GT(real.corruptions, 0u);
  EXPECT_EQ(real.finish, synth.finish);  // byte-identical virtual time
  EXPECT_EQ(real.retransmits, synth.retransmits);
  EXPECT_EQ(real.corruptions, synth.corruptions);
}

TEST(FaultPlan, DegradeWindowSlowsOnlyCoveredTraffic) {
  mpi::WorldConfig clean = small_world(2, /*ppn=*/1);
  const double t_clean = pingpong_finish_time(clean, 1024, 50);

  mpi::WorldConfig degraded = clean;
  degraded.fault.degrade.push_back(fault::DegradeWindow{
      net::LinkClass::kInterNode, 0.0, 1e9, /*alpha=*/4.0, /*beta=*/4.0});
  const PingpongResult r = pingpong(degraded, 1024, 50);
  EXPECT_GT(r.finish, t_clean);
  EXPECT_GT(r.degraded, 0U) << "no message fell inside the degrade window";
  // A window that never covers the run changes nothing.
  mpi::WorldConfig outside = clean;
  outside.fault.degrade.push_back(fault::DegradeWindow{
      net::LinkClass::kInterNode, 1e12, 1e13, 4.0, 4.0});
  EXPECT_EQ(pingpong_finish_time(outside, 1024, 50), t_clean);
}

TEST(FaultPlan, StragglerSlowsItsRankOnly) {
  mpi::WorldConfig clean = small_world(2, /*ppn=*/1);
  mpi::WorldConfig slow = clean;
  slow.fault.stragglers.push_back(fault::StragglerSpec{1, 8.0});

  const auto compute_time = [](const mpi::WorldConfig& wc, int rank) {
    mpi::World w(wc);
    w.run([](Comm& c) { c.charge_flops(1e6); });
    return w.finish_time(rank);
  };
  EXPECT_GT(compute_time(slow, 1), compute_time(clean, 1));
  EXPECT_EQ(compute_time(slow, 0), compute_time(clean, 0));
}

TEST(FaultPlan, KillAtVirtualTimePropagates) {
  mpi::WorldConfig wc = small_world(2, /*ppn=*/1);
  wc.fault.kills.push_back(fault::KillSpec{1, 5.0});
  mpi::World w(wc);
  std::atomic<bool> peer_aborted{false};

  try {
    w.run([&](Comm& c) {
      std::vector<std::byte> sbuf(64, std::byte{1});
      std::vector<std::byte> rbuf(64);
      try {
        for (int i = 0; i < 10000; ++i) {
          if (c.rank() == 0) {
            c.send(cv(sbuf), 1, 4);
            (void)c.recv(mv(rbuf), 1, 4);
          } else {
            (void)c.recv(mv(rbuf), 0, 4);
            c.send(cv(sbuf), 0, 4);
          }
        }
      } catch (const mpi::AbortedError& e) {
        if (c.rank() == 0) {
          peer_aborted = true;
          EXPECT_EQ(e.origin_rank(), 1);
        }
        throw;
      }
    });
    FAIL() << "expected RankKilledError";
  } catch (const mpi::RankKilledError& e) {
    EXPECT_EQ(e.rank(), 1);
  }
  EXPECT_TRUE(peer_aborted.load());
  ASSERT_NE(w.fault_plan(), nullptr);
  EXPECT_GE(w.fault_plan()->counters().kills.load(), 1U);
}

// ---- Zero-copy isend teardown ------------------------------------------------

namespace {

constexpr std::size_t kIsendBytes = 1 << 20;  // rendezvous on every link

std::byte isend_pattern(std::size_t i) {
  return static_cast<std::byte>(i * 13 + 1);
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
/// time and dies on its next call, leaving the send unwaited.  Rank 1
/// receives only once rank 0's frame is gone.  Returns rank 1's outcome
/// and the error World::run rethrew.
std::pair<std::string, std::string> killed_isend_run() {
  mpi::WorldConfig wc = small_world(2, /*ppn=*/1);
  wc.fault.kills.push_back(fault::KillSpec{0, 50.0});
  mpi::World w(wc);
  std::atomic<bool> gone{false};
  std::string outcome;
  std::string root;
  try {
    w.run([&](Comm& c) {
      std::vector<std::byte> token(8);
      if (c.rank() == 0) {
        std::vector<std::byte> data(kIsendBytes);
        for (std::size_t i = 0; i < data.size(); ++i) {
          data[i] = isend_pattern(i);
        }
        Scribble scribble{data, gone};
        mpi::Request r = c.isend(cv(data), 1, 5);
        c.clock().advance(100.0);
        c.send(cv(token), 1, 6);  // past the kill time: raises
        ADD_FAILURE() << "the kill did not fire";
      } else {
        while (!gone.load()) {
          sched::maybe_yield();
          std::this_thread::yield();
        }
        std::vector<std::byte> in(kIsendBytes);
        try {
          (void)c.recv(mv(in), 0, 5);
        } catch (const mpi::AbortedError& e) {
          outcome = "aborted by rank " + std::to_string(e.origin_rank());
          return;
        }
        std::size_t bad = 0;
        for (std::size_t i = 0; i < in.size(); ++i) {
          if (in[i] != isend_pattern(i)) ++bad;
        }
        outcome = "bad bytes " + std::to_string(bad);
      }
    });
  } catch (const mpi::RankKilledError& e) {
    root = e.what();
  }
  return {outcome, root};
}

}  // namespace

TEST(AbortPropagation, KilledSenderPendingIsendNeverDeliversGarbage) {
  // The kill aborts the world while rank 0's isend is unwaited: rank 1
  // either reads the bytes rank 0 detached while unwinding, or sees the
  // abort — never the scribbled or freed buffer.  Which of the two
  // depends on host timing; the root cause does not.
  const auto [outcome, root] = killed_isend_run();
  EXPECT_TRUE(outcome == "bad bytes 0" || outcome == "aborted by rank 0")
      << outcome;
  EXPECT_NE(root.find("rank killed by fault plan"), std::string::npos)
      << root;
  EXPECT_EQ(killed_isend_run().second, root);
}

// ---- Watchdog ---------------------------------------------------------------

TEST(Watchdog, TagMismatchDeadlockIsDetectedWithWaitDump) {
  mpi::WorldConfig wc = small_world(2);
  wc.watchdog_poll_ms = 10.0;
  mpi::World w(wc);
  try {
    w.run([](Comm& c) {
      std::vector<std::byte> buf(8);
      if (c.rank() == 0) {
        std::vector<std::byte> one(8, std::byte{1});
        c.send(cv(one), 1, 1);
        (void)c.recv(mv(buf), 1, 1);  // never sent
      } else {
        (void)c.recv(mv(buf), 0, 2);  // tag mismatch: 2 was never sent
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const mpi::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.origin_rank(), fault::kWatchdogOrigin);
    // PARCOACH-style dump: each rank's (context, src, tag).
    EXPECT_NE(what.find("rank 0: blocked in recv"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: blocked in recv"), std::string::npos)
        << what;
    EXPECT_NE(what.find("tag=2"), std::string::npos) << what;
  }
}

TEST(Watchdog, SendToSelfDeadlockDetected) {
  mpi::WorldConfig wc = small_world(2);
  wc.watchdog_poll_ms = 10.0;
  mpi::World w(wc);
  EXPECT_THROW(w.run([](Comm& c) {
                 std::vector<std::byte> buf(8);
                 // Both ranks wait on a message that never comes.
                 (void)c.recv(mv(buf), (c.rank() + 1) % c.size(), 0);
               }),
               mpi::DeadlockError);
}

TEST(Watchdog, HealthyRunDoesNotTrip) {
  mpi::WorldConfig wc = small_world(2);
  wc.watchdog_poll_ms = 5.0;  // aggressive polling on a healthy program
  mpi::World w(wc);
  w.run([](Comm& c) {
    std::vector<std::byte> sbuf(512, std::byte{2});
    std::vector<std::byte> rbuf(512);
    for (int i = 0; i < 200; ++i) {
      if (c.rank() == 0) {
        c.send(cv(sbuf), 1, 1);
        (void)c.recv(mv(rbuf), 1, 1);
      } else {
        (void)c.recv(mv(rbuf), 0, 1);
        c.send(cv(sbuf), 0, 1);
      }
    }
  });
  SUCCEED();
}

// ---- Runner retry + resilience report --------------------------------------

TEST(RunnerRetry, TransientFaultRetriesThenSucceeds) {
  mpi::World w(small_world(2));
  std::atomic<int> attempt{0};
  const core::RunOutcome out = core::run_with_retry(
      w,
      [&](Comm& c) {
        if (c.rank() == 0 && attempt.fetch_add(1) == 0) {
          throw std::runtime_error("transient");
        }
        std::vector<std::byte> buf(8, std::byte{1});
        if (c.rank() == 0) {
          c.send(cv(buf), 1, 1);
        } else {
          (void)c.recv(mv(buf), 0, 1);
        }
      },
      core::RetryPolicy{.max_attempts = 3, .backoff_ms = 0.0});
  EXPECT_TRUE(out.succeeded);
  EXPECT_EQ(out.attempts, 2);
}

TEST(RunnerRetry, PermanentFaultExhaustsAttempts) {
  mpi::World w(small_world(2));
  const core::RunOutcome out = core::run_with_retry(
      w,
      [](Comm& c) {
        if (c.rank() == 0) throw std::runtime_error("permanent");
        std::vector<std::byte> buf(8);
        (void)c.recv(mv(buf), 0, 1);
      },
      core::RetryPolicy{.max_attempts = 3, .backoff_ms = 0.0});
  EXPECT_FALSE(out.succeeded);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_NE(out.last_error.find("permanent"), std::string::npos);
}

TEST(Report, ResilienceTableListsInjectionCounters) {
  mpi::WorldConfig wc = small_world(2, /*ppn=*/1);
  wc.fault.seed = 11;
  wc.fault.drop.probability = 0.3;
  const std::uint64_t re = pingpong(wc, 512, 100).retransmits;

  fault::FaultPlan plan(wc.fault, 2);
  plan.counters().retransmits.store(re);
  const core::Table table = core::resilience_table(plan);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("Resilience"), std::string::npos);
  EXPECT_NE(text.find("retransmits"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(re)), std::string::npos);
  EXPECT_NE(text.find("watchdog"), std::string::npos);
}

// ---- Retry exhaustion (--drop-lost) -----------------------------------------

TEST(DropExhaustion, DefaultModelAlwaysDeliversAfterTheCap) {
  // Historical semantics: the attempt after max_retries always lands, so
  // p=1 drops only cost virtual time and nothing is ever lost.
  mpi::WorldConfig wc = small_world(2, /*ppn=*/1);
  wc.fault.seed = 5;
  wc.fault.drop.probability = 1.0;
  wc.fault.drop.max_retries = 3;
  wc.fault.drop.retransmit_timeout_us = 50.0;
  mpi::World w(wc);
  std::atomic<bool> delivered{false};

  w.run([&](Comm& c) {
    std::vector<std::byte> buf(64, std::byte{0x2a});
    if (c.rank() == 0) {
      c.send(cv(buf), 1, 4);
    } else {
      std::vector<std::byte> got(64);
      (void)c.recv(mv(got), 0, 4);
      EXPECT_EQ(got, buf);
      delivered = true;
    }
  });
  EXPECT_TRUE(delivered.load());
  ASSERT_NE(w.fault_plan(), nullptr);
  EXPECT_EQ(w.fault_plan()->counters().retransmits.load(), 3U);
  EXPECT_EQ(w.fault_plan()->counters().messages_lost.load(), 0U);
}

TEST(DropExhaustion, FailOnExhaustionRaisesRankAttributedLoss) {
  // --drop-lost: exhausting the cap loses the message for real.  The
  // sender unwinds with a MessageLostError naming both endpoints and the
  // attempt count, the blocked receiver is woken by the abort (no hang),
  // and the virtual clock still paid for every retransmission attempt.
  mpi::WorldConfig wc = small_world(2, /*ppn=*/1);
  wc.fault.seed = 5;
  wc.fault.drop.probability = 1.0;
  wc.fault.drop.max_retries = 3;
  wc.fault.drop.retransmit_timeout_us = 50.0;
  wc.fault.drop.fail_on_exhaustion = true;
  mpi::World w(wc);
  std::atomic<bool> raised{false};
  std::atomic<bool> peer_woken{false};

  EXPECT_THROW(
      w.run([&](Comm& c) {
        std::vector<std::byte> buf(64, std::byte{0x2a});
        if (c.rank() == 0) {
          try {
            c.send(cv(buf), 1, 4);
            ADD_FAILURE() << "exhausted send did not raise";
          } catch (const mpi::MessageLostError& e) {
            EXPECT_EQ(e.rank(), 0);
            EXPECT_EQ(e.dst_rank(), 1);
            EXPECT_EQ(e.attempts(), 3);
            // The failed attempts are still priced: 3 timeouts elapsed.
            EXPECT_GE(c.now(), 3 * 50.0);
            raised = true;
            throw;
          }
        } else {
          try {
            (void)c.recv(mv(buf), 0, 4);
            ADD_FAILURE() << "receiver of a lost message did not unwind";
          } catch (const mpi::AbortedError& e) {
            EXPECT_EQ(e.origin_rank(), 0);
            peer_woken = true;
            throw;
          }
        }
      }),
      mpi::MessageLostError);

  EXPECT_TRUE(raised.load());
  EXPECT_TRUE(peer_woken.load());
  ASSERT_NE(w.fault_plan(), nullptr);
  EXPECT_EQ(w.fault_plan()->counters().messages_lost.load(), 1U);
}

TEST(DropExhaustion, FlagDoesNotPerturbTheSurvivingSchedule) {
  // The drawn random stream must be identical with the flag on and off:
  // flipping --drop-lost never changes the fault schedule of messages
  // that do arrive.  With a cap deep enough that nothing exhausts, both
  // runs are byte-identical.
  mpi::WorldConfig off = small_world(2, /*ppn=*/1);
  off.fault.seed = 42;
  off.fault.drop.probability = 0.25;
  off.fault.drop.max_retries = 16;
  off.fault.drop.retransmit_timeout_us = 40.0;
  mpi::WorldConfig on = off;
  on.fault.drop.fail_on_exhaustion = true;

  const PingpongResult a = pingpong(off, 512, 200);
  const PingpongResult b = pingpong(on, 512, 200);
  EXPECT_GT(a.retransmits, 0U);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.finish, b.finish);
}

TEST(DropExhaustion, ResilienceTableReportsMessagesLost) {
  fault::FaultConfig spec;
  spec.drop.probability = 1.0;
  spec.drop.fail_on_exhaustion = true;
  fault::FaultPlan plan(spec, 2);
  plan.counters().messages_lost.store(7);
  const std::string text = core::resilience_table(plan).to_string();
  EXPECT_NE(text.find("messages lost"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
}
