// Transport-internals tests for the binned mailbox and the payload pool.
//
// The heart of this file is a property test: the production Mailbox (per-
// (context, src, tag) bins + flat hash + global sequence numbers) is run
// side by side with a deliberately naive reference mailbox (one deque,
// linear scan — the semantics the old implementation had) over randomized
// streams of enqueues, exact receives, wildcard receives (any-source,
// any-tag, and both), and probes.  Every operation must observe the same
// message in both structures, which pins the binned design to MPI arrival
// order exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "explore/explore.hpp"
#include "ft/ft.hpp"
#include "mpi/mailbox.hpp"
#include "mpi/message.hpp"
#include "mpi/payload_pool.hpp"
#include "mpi/request.hpp"
#include "mpi/world.hpp"

using namespace ombx;
using mpi::kAnySource;
using mpi::kAnyTag;
using mpi::Mailbox;
using mpi::Message;
using mpi::PayloadPool;
using mpi::PooledPayload;

namespace {

/// The old mailbox semantics, kept as executable specification: one FIFO
/// of everything, matched by scanning from the front.
class ReferenceMailbox {
 public:
  void enqueue(Message&& msg) { q_.push_back(std::move(msg)); }

  std::optional<Message> try_dequeue_match(int ctx, int src, int tag) {
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (it->matches(ctx, src, tag)) {
        Message msg = std::move(*it);
        q_.erase(it);
        return msg;
      }
    }
    return std::nullopt;
  }

  std::optional<mpi::Status> try_probe(int ctx, int src, int tag) const {
    for (const Message& m : q_) {
      if (m.matches(ctx, src, tag)) {
        return mpi::Status{.source = m.src, .tag = m.tag, .bytes = m.bytes};
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t size() const { return q_.size(); }

 private:
  std::deque<Message> q_;
};

Message make_msg(int ctx, int src, int tag, std::size_t id) {
  Message m;
  m.context = ctx;
  m.src = src;
  m.tag = tag;
  m.src_world = src;
  m.bytes = id;  // unique id so both structures must yield the SAME message
  return m;
}

}  // namespace

// ---- Matching property test -------------------------------------------------

TEST(MailboxMatching, BinnedMatchesReferenceOnRandomizedStreams) {
  constexpr int kContexts = 3;
  constexpr int kSources = 6;
  constexpr int kTags = 5;
  constexpr int kOpsPerSeed = 6000;

  for (std::uint32_t seed : {1u, 7u, 42u, 1234u, 99991u}) {
    std::mt19937 rng(seed);
    Mailbox box(/*capacity=*/1 << 20);  // never capacity-block in this test
    ReferenceMailbox ref;
    std::size_t next_id = 1;

    auto rand_pattern = [&](int& ctx, int& src, int& tag) {
      ctx = static_cast<int>(rng() % kContexts);
      // Mix all four receive shapes: exact, any-source, any-tag, both.
      src = (rng() % 4 == 0) ? kAnySource : static_cast<int>(rng() % kSources);
      tag = (rng() % 4 == 0) ? kAnyTag : static_cast<int>(rng() % kTags);
    };

    for (int op = 0; op < kOpsPerSeed; ++op) {
      const unsigned kind = rng() % 8;
      if (kind < 4 || ref.size() == 0) {
        // Enqueue (biased so queues stay deep enough to be interesting).
        const int ctx = static_cast<int>(rng() % kContexts);
        const int src = static_cast<int>(rng() % kSources);
        const int tag = static_cast<int>(rng() % kTags);
        box.enqueue(make_msg(ctx, src, tag, next_id));
        ref.enqueue(make_msg(ctx, src, tag, next_id));
        ++next_id;
      } else if (kind < 7) {
        int ctx, src, tag;
        rand_pattern(ctx, src, tag);
        std::optional<Message> got = box.try_dequeue_match(ctx, src, tag);
        std::optional<Message> want = ref.try_dequeue_match(ctx, src, tag);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "seed=" << seed << " op=" << op << " recv(" << ctx << ","
            << src << "," << tag << ")";
        if (got) {
          EXPECT_EQ(got->bytes, want->bytes)
              << "seed=" << seed << " op=" << op << ": binned mailbox "
              << "dequeued a different message than arrival order dictates";
          EXPECT_EQ(got->src, want->src);
          EXPECT_EQ(got->tag, want->tag);
        }
      } else {
        int ctx, src, tag;
        rand_pattern(ctx, src, tag);
        std::optional<mpi::Status> got = box.try_probe(ctx, src, tag);
        std::optional<mpi::Status> want = ref.try_probe(ctx, src, tag);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "seed=" << seed << " op=" << op;
        if (got) {
          EXPECT_EQ(got->bytes, want->bytes) << "seed=" << seed;
          EXPECT_EQ(got->source, want->source);
          EXPECT_EQ(got->tag, want->tag);
        }
      }
      ASSERT_EQ(box.size(), ref.size()) << "seed=" << seed << " op=" << op;
    }

    // Drain with pure wildcards: must replay global arrival order exactly.
    std::size_t last = 0;
    std::size_t drained_box = 0;
    while (auto got = box.try_dequeue_match(0, kAnySource, kAnyTag)) {
      auto want = ref.try_dequeue_match(0, kAnySource, kAnyTag);
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(got->bytes, want->bytes);
      EXPECT_GT(got->bytes, last) << "wildcard drain out of arrival order";
      last = got->bytes;
      ++drained_box;
    }
    EXPECT_FALSE(ref.try_dequeue_match(0, kAnySource, kAnyTag).has_value());
    (void)drained_box;
  }
}

TEST(MailboxMatching, ResetDrainsEveryBin) {
  Mailbox box(1024);
  for (int tag = 0; tag < 32; ++tag) {
    for (int i = 0; i < 4; ++i) {
      box.enqueue(make_msg(/*ctx=*/0, /*src=*/tag % 3, tag, 1));
    }
  }
  EXPECT_EQ(box.size(), 128u);
  box.reset();
  EXPECT_EQ(box.size(), 0u);
  EXPECT_FALSE(box.try_probe(0, kAnySource, kAnyTag).has_value());
  // And the box is usable again, with sequence numbers restarted.
  box.enqueue(make_msg(0, 1, 2, 77));
  auto got = box.try_dequeue_match(0, kAnySource, kAnyTag);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 77u);
}

// ---- Scheduling-oracle properties -------------------------------------------

TEST(MailboxOracle, RecordedCandidateSetsContainTheMinSeqChoice) {
  // Property: with an oracle attached (but no pins), every committed
  // wildcard decision records a seq-sorted candidate set whose head IS
  // the chosen (src, tag) — the binned mailbox's min-seq default — and
  // matching behavior is byte-identical to the reference mailbox.
  constexpr int kSources = 5;
  constexpr int kTags = 4;
  explore::ScheduleOracle oracle(1);
  Mailbox box(/*capacity=*/1 << 20, nullptr, /*owner_rank=*/0);
  box.set_oracle(&oracle);
  ReferenceMailbox ref;
  std::mt19937 rng(777);
  std::size_t next_id = 1;
  std::size_t decisions_before = 0;

  for (int op = 0; op < 4000; ++op) {
    const unsigned kind = rng() % 8;
    if (kind < 4 || ref.size() == 0) {
      const int src = static_cast<int>(rng() % kSources);
      const int tag = static_cast<int>(rng() % kTags);
      box.enqueue(make_msg(0, src, tag, next_id));
      ref.enqueue(make_msg(0, src, tag, next_id));
      ++next_id;
    } else {
      const bool wild_src = rng() % 2 == 0;
      const bool wild_tag = !wild_src || rng() % 2 == 0;
      const int src =
          wild_src ? kAnySource : static_cast<int>(rng() % kSources);
      const int tag = wild_tag ? kAnyTag : static_cast<int>(rng() % kTags);
      std::optional<Message> got = box.try_dequeue_match(0, src, tag);
      std::optional<Message> want = ref.try_dequeue_match(0, src, tag);
      ASSERT_EQ(got.has_value(), want.has_value()) << "op=" << op;
      if (!got) continue;
      EXPECT_EQ(got->bytes, want->bytes) << "op=" << op;

      if (src != kAnySource && tag != kAnyTag) {
        // Exact receives are not decisions: no index consumed.
        EXPECT_EQ(oracle.decision_count(0), decisions_before);
        continue;
      }
      ASSERT_EQ(oracle.decision_count(0), decisions_before + 1);
      decisions_before = oracle.decision_count(0);
      const std::vector<explore::Decision> log = oracle.log();
      const explore::Decision& d = log.back();
      EXPECT_EQ(d.kind, explore::DecisionKind::kWildcard);
      EXPECT_EQ(d.rank, 0);
      EXPECT_EQ(d.src, got->src);
      EXPECT_EQ(d.tag, got->tag);
      EXPECT_FALSE(d.forced);
      EXPECT_FALSE(d.divergent);
      ASSERT_FALSE(d.candidates.empty());
      // Candidates are seq-ascending and the head is the chosen bin.
      for (std::size_t i = 1; i < d.candidates.size(); ++i) {
        EXPECT_LT(d.candidates[i - 1].seq, d.candidates[i].seq);
      }
      EXPECT_EQ(d.candidates.front().src, got->src);
      EXPECT_EQ(d.candidates.front().tag, got->tag);
    }
  }
  EXPECT_FALSE(oracle.diverged());
}

TEST(MailboxOracle, ForcingEachAlternatePreservesBinFifoOrder) {
  // Record the candidate set at one wildcard decision, then force each
  // alternate in turn: the forced match must take the head of exactly
  // that (src, tag) bin (what an exact receive on the key would get from
  // the reference mailbox), and the rest of the stream must still drain
  // in arrival order.
  struct E {
    int src, tag;
    std::size_t id;
  };
  const std::vector<E> scene = {{0, 1, 1}, {1, 1, 2}, {0, 2, 3},
                                {1, 1, 4}, {2, 1, 5}, {0, 1, 6}};

  explore::ScheduleOracle recorder(1);
  {
    Mailbox box(1 << 20, nullptr, 0);
    box.set_oracle(&recorder);
    for (const E& e : scene) box.enqueue(make_msg(0, e.src, e.tag, e.id));
    auto got = box.try_dequeue_match(0, kAnySource, kAnyTag);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->bytes, 1u);  // min-seq default
  }
  const std::vector<explore::Decision> log = recorder.log();
  ASSERT_EQ(log.size(), 1u);
  ASSERT_EQ(log.front().candidates.size(), 4u);  // keys (0,1) (1,1) (0,2) (2,1)

  for (const explore::Candidate& alt : log.front().candidates) {
    explore::ScheduleOracle oracle(1);
    explore::Schedule s;
    s.pins.push_back(explore::Pin{0, 0, alt.src, alt.tag});
    oracle.arm(s);
    Mailbox box(1 << 20, nullptr, 0);
    box.set_oracle(&oracle);
    ReferenceMailbox ref;
    for (const E& e : scene) {
      box.enqueue(make_msg(0, e.src, e.tag, e.id));
      ref.enqueue(make_msg(0, e.src, e.tag, e.id));
    }
    std::optional<Message> got = box.try_dequeue_match(0, kAnySource, kAnyTag);
    std::optional<Message> want = ref.try_dequeue_match(0, alt.src, alt.tag);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(got->bytes, want->bytes)
        << "forcing (" << alt.src << "," << alt.tag
        << ") did not take that bin's FIFO head";
    // With the pin consumed, the remainder drains in arrival order.
    while (auto g = box.try_dequeue_match(0, kAnySource, kAnyTag)) {
      auto w = ref.try_dequeue_match(0, kAnySource, kAnyTag);
      ASSERT_TRUE(w.has_value());
      EXPECT_EQ(g->bytes, w->bytes);
    }
    EXPECT_EQ(box.size(), ref.size());
    EXPECT_EQ(ref.size(), 0u);
    EXPECT_FALSE(oracle.diverged());
  }
}

TEST(MailboxOracle, PinnedTryDequeueWaitsForThePinnedBin) {
  // A compatible pin whose bin has no message yet makes try_dequeue
  // return nothing (the recorded run matched that bin; a replay must not
  // grab a different message just because it arrived first).
  explore::ScheduleOracle oracle(1);
  explore::Schedule s;
  s.pins.push_back(explore::Pin{0, 0, /*src=*/4, /*tag=*/9});
  oracle.arm(s);
  Mailbox box(1 << 20, nullptr, 0);
  box.set_oracle(&oracle);
  box.enqueue(make_msg(0, 1, 9, 1));
  EXPECT_FALSE(box.try_dequeue_match(0, kAnySource, 9).has_value());
  box.enqueue(make_msg(0, 4, 9, 2));
  auto got = box.try_dequeue_match(0, kAnySource, 9);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 2u);  // the pinned bin's head, not arrival order
  // Pin consumed: the earlier message is still there, now the default.
  auto next = box.try_dequeue_match(0, kAnySource, 9);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->bytes, 1u);
  EXPECT_FALSE(oracle.diverged());
}

TEST(MailboxOracle, IncompatiblePinFallsBackAndFlagsDivergence) {
  // A pin recorded under a different receive pattern cannot apply: the
  // mailbox takes the default match and the oracle notes the divergence.
  explore::ScheduleOracle oracle(1);
  explore::Schedule s;
  s.pins.push_back(explore::Pin{0, 0, /*src=*/2, /*tag=*/8});
  oracle.arm(s);
  Mailbox box(1 << 20, nullptr, 0);
  box.set_oracle(&oracle);
  box.enqueue(make_msg(0, 1, 3, 1));
  box.enqueue(make_msg(0, 2, 3, 2));
  // Receive with tag 3: the pin's tag 8 can never match this pattern.
  auto got = box.try_dequeue_match(0, kAnySource, /*tag=*/3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 1u);  // default min-seq choice
  EXPECT_TRUE(oracle.diverged());
}

// ---- Property test with hooks attached mid-stream ---------------------------

TEST(MailboxMatching, MatchesReferenceWithHooksAttachedMidStream) {
  // The mailbox against the linear reference while the hooks that change
  // how a match is made come and go mid-stream: a recording oracle (every
  // wildcard decision logged, no pins), a failure-free ULFM state (every
  // miss consults it), and poison (every operation must throw until
  // reset() re-arms the box, which also empties it).  Bursts deepen single
  // bins between receives.  Every observation must equal the reference.
  constexpr int kSources = 4;
  constexpr int kTags = 3;
  constexpr int kOpsPerSeed = 8000;

  for (std::uint32_t seed : {3u, 17u, 4242u}) {
    std::mt19937 rng(seed);
    explore::ScheduleOracle oracle(1);
    ft::FailureState fs(/*nranks=*/kSources, ft::FtConfig{});
    Mailbox box(/*capacity=*/1 << 20, nullptr, /*owner_rank=*/0);
    ReferenceMailbox ref;
    std::size_t next_id = 1;
    bool oracle_on = false;
    bool ft_on = false;
    int poisonings = 0;

    for (int op = 0; op < kOpsPerSeed; ++op) {
      const unsigned kind = rng() % 16;
      if (kind == 15) {
        switch (rng() % 5) {
          case 0:
            box.set_oracle(oracle_on ? nullptr : &oracle);
            oracle_on = !oracle_on;
            break;
          case 1:
            box.set_failure_state(ft_on ? nullptr : &fs);
            ft_on = !ft_on;
            break;
          case 2: {
            box.poison(std::make_shared<const fault::AbortInfo>(
                fault::AbortInfo{.origin_rank = 2, .reason = "mid-stream"}));
            EXPECT_THROW((void)box.try_dequeue_match(0, kAnySource, kAnyTag),
                         mpi::AbortedError);
            EXPECT_THROW((void)box.try_dequeue_match(0, 1, 1),
                         mpi::AbortedError);
            EXPECT_THROW((void)box.try_probe(0, kAnySource, 1),
                         mpi::AbortedError);
            EXPECT_THROW(box.enqueue(make_msg(0, 1, 1, 0)), mpi::AbortedError);
            box.reset();
            ref = ReferenceMailbox{};
            ++poisonings;
            break;
          }
          default: {
            // Burst: many messages on one key with no receive in between.
            const int src = static_cast<int>(rng() % kSources);
            const int tag = static_cast<int>(rng() % kTags);
            for (int i = 0; i < 80; ++i) {
              box.enqueue(make_msg(0, src, tag, next_id));
              ref.enqueue(make_msg(0, src, tag, next_id));
              ++next_id;
            }
            break;
          }
        }
      } else if (kind < 8 || ref.size() == 0) {
        const int src = static_cast<int>(rng() % kSources);
        const int tag = static_cast<int>(rng() % kTags);
        box.enqueue(make_msg(0, src, tag, next_id));
        ref.enqueue(make_msg(0, src, tag, next_id));
        ++next_id;
      } else if (kind < 14) {
        // Exact, any-source, any-tag and full-wildcard receives.
        const int src =
            rng() % 3 == 0 ? kAnySource : static_cast<int>(rng() % kSources);
        const int tag =
            rng() % 3 == 0 ? kAnyTag : static_cast<int>(rng() % kTags);
        std::optional<Message> got = box.try_dequeue_match(0, src, tag);
        std::optional<Message> want = ref.try_dequeue_match(0, src, tag);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "seed=" << seed << " op=" << op;
        if (got) {
          EXPECT_EQ(got->bytes, want->bytes)
              << "seed=" << seed << " op=" << op << ": recv(" << src << ","
              << tag << ") broke arrival order";
        }
      } else {
        const int tag = static_cast<int>(rng() % kTags);
        std::optional<mpi::Status> got = box.try_probe(0, kAnySource, tag);
        std::optional<mpi::Status> want = ref.try_probe(0, kAnySource, tag);
        ASSERT_EQ(got.has_value(), want.has_value()) << "op=" << op;
        if (got) {
          EXPECT_EQ(got->bytes, want->bytes) << "op=" << op;
        }
      }
      ASSERT_EQ(box.size(), ref.size()) << "seed=" << seed << " op=" << op;
    }

    // Drain and compare the remainder with the hooks detached.
    box.set_oracle(nullptr);
    box.set_failure_state(nullptr);
    while (auto got = box.try_dequeue_match(0, kAnySource, kAnyTag)) {
      auto want = ref.try_dequeue_match(0, kAnySource, kAnyTag);
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(got->bytes, want->bytes);
    }
    EXPECT_EQ(ref.try_dequeue_match(0, kAnySource, kAnyTag), std::nullopt);
    EXPECT_GT(poisonings, 0) << "seed=" << seed << " never poisoned the box";
    EXPECT_GT(oracle.decision_count(0), 0u)
        << "seed=" << seed << " recorded no wildcard decision";
  }
}

TEST(MailboxMatching, CapacityBlockedSenderRecoversViaLockedTakes) {
  // Capacity far below the message count: the sender must park on the
  // drain condition and be woken by the receiver's takes.
  constexpr std::size_t kTotal = 20000;
  Mailbox box(/*capacity=*/96, nullptr, /*owner_rank=*/0);
  std::thread sender([&box] {
    for (std::size_t i = 1; i <= kTotal; ++i) {
      box.enqueue(make_msg(0, 2, 9, i));
    }
  });
  for (std::size_t i = 1; i <= kTotal; ++i) {
    const Message got = box.dequeue_match(0, 2, 9);
    ASSERT_EQ(got.bytes, i);
  }
  sender.join();
  EXPECT_EQ(box.size(), 0u);
}

// ---- Cross-thread stress ----------------------------------------------------
//
// Real OS threads on one mailbox (and, below, one thread-backend world).
// Besides the order checks, these are the cases the ThreadSanitizer CI job
// leans on for the mailbox's blocking handoffs and for payload buffers
// released on a thread other than the one that acquired them.

TEST(MailboxStress, CrossThreadProducersKeepPerSenderOrder) {
  // Four producers feed one consumer through a box far smaller than the
  // traffic, so senders block on capacity throughout.  Producer s sends
  // ids 1..kPerSender with tag id % kTags.  The consumer mixes blocking
  // wildcard receives, blocking probes followed by the exact receive of
  // the probed envelope, and non-blocking targeted receives (exact, or
  // any-tag from one source).  Checks:
  //   - per-sender FIFO: each source's ids arrive as 1, 2, 3, ...;
  //   - arrival order: the mailbox stamps every message with its global
  //     arrival sequence, and a full-wildcard receive takes the earliest
  //     queued message, so every later take carries a larger stamp.
  // The targeted receives never block: with a full box, waiting for one
  // particular sender could wait on a sender that is itself blocked on
  // capacity.  A miss falls back to a blocking wildcard receive.
  constexpr int kProducers = 4;
  constexpr int kTags = 3;
  constexpr std::size_t kPerSender = 5000;
  Mailbox box(/*capacity=*/8, nullptr, /*owner_rank=*/0);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int s = 0; s < kProducers; ++s) {
    producers.emplace_back([&box, s] {
      try {
        for (std::size_t i = 1; i <= kPerSender; ++i) {
          box.enqueue(make_msg(0, s, static_cast<int>(i % kTags), i));
        }
      } catch (const mpi::AbortedError&) {
        // The consumer poisons the box after a failed check, so that a
        // sender blocked on capacity returns instead of hanging the join.
      }
    });
  }

  std::vector<std::size_t> next(kProducers, 1);
  std::size_t remaining = kProducers * kPerSender;
  std::uint64_t floor_seq = 0;  // stamp of the last full-wildcard take
  bool have_floor = false;
  std::mt19937 rng(2024);
  auto in_order = [&](const Message& m, bool full_wildcard) {
    if (m.src < 0 || m.src >= kProducers) return false;
    std::size_t& want = next[static_cast<std::size_t>(m.src)];
    if (m.bytes != want || (have_floor && m.seq <= floor_seq)) return false;
    if (full_wildcard) {
      floor_seq = m.seq;
      have_floor = true;
    }
    ++want;
    --remaining;
    return true;
  };

  bool ok = true;
  while (ok && remaining > 0) {
    const unsigned kind = rng() % 10;
    if (kind < 3) {
      ok = in_order(box.dequeue_match(0, kAnySource, kAnyTag), true);
    } else if (kind < 5) {
      // The probed envelope is the earliest queued message, and the exact
      // receive that follows must take that same message.
      const mpi::Status st = box.probe(0, kAnySource, kAnyTag);
      const Message got = box.dequeue_match(0, st.source, st.tag);
      ok = got.bytes == st.bytes && in_order(got, true);
    } else {
      int s = static_cast<int>(rng() % kProducers);
      for (int k = 0; k < kProducers && next[static_cast<std::size_t>(s)] >
                                            kPerSender; ++k) {
        s = (s + 1) % kProducers;
      }
      const std::size_t want = next[static_cast<std::size_t>(s)];
      const int tag = kind < 8 ? static_cast<int>(want % kTags) : kAnyTag;
      if (std::optional<Message> got = box.try_dequeue_match(0, s, tag)) {
        ok = in_order(*got, false);
      } else {
        ok = in_order(box.dequeue_match(0, kAnySource, kAnyTag), true);
      }
    }
  }
  if (!ok) {
    box.poison(std::make_shared<const fault::AbortInfo>(
        fault::AbortInfo{.origin_rank = 0, .reason = "order check failed"}));
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(ok) << "per-sender FIFO or arrival order broken after "
                  << kProducers * kPerSender - remaining << " takes";
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxStress, ThreadWorldIsendAndWildcardRecvKeepPerSenderOrder) {
  // np=8 on the thread backend: every rank isends kRounds pooled-size
  // payloads to every peer, then receives them all with any-source,
  // any-tag receives.  Each payload is stamped with its sender and round,
  // so a receive checks integrity and per-sender order.  The receiver
  // frees each pooled buffer that its sender acquired on another thread.
  constexpr int kRanks = 8;
  constexpr int kRounds = 32;  // stamp = sender * 32 + round fits a byte
  constexpr std::size_t kBytes = 512;  // above the inline tier: pooled
  mpi::WorldConfig wc;
  wc.cluster = net::ClusterSpec::frontera();
  wc.tuning = net::MpiTuning::mvapich2();
  wc.nranks = kRanks;
  wc.ppn = kRanks;
  wc.sched = sched::Mode::kThreads;
  mpi::World w(wc);
  std::atomic<int> bad{0};
  w.run([&](mpi::Comm& c) {
    const int me = c.rank();
    std::vector<std::vector<std::byte>> sbufs;
    std::vector<mpi::Request> reqs;
    sbufs.reserve(static_cast<std::size_t>(kRounds * (kRanks - 1)));
    for (int round = 0; round < kRounds; ++round) {
      for (int peer = 0; peer < kRanks; ++peer) {
        if (peer == me) continue;
        sbufs.emplace_back(kBytes, static_cast<std::byte>(me * kRounds + round));
        reqs.push_back(c.isend(
            mpi::ConstView{sbufs.back().data(), kBytes}, peer, round));
      }
    }
    std::vector<int> next_round(kRanks, 0);
    std::vector<std::byte> rbuf(kBytes);
    for (int k = 0; k < kRounds * (kRanks - 1); ++k) {
      const mpi::Status st =
          c.recv(mpi::MutView{rbuf.data(), kBytes}, kAnySource, kAnyTag);
      int& expect = next_round[static_cast<std::size_t>(st.source)];
      const auto stamp = static_cast<std::byte>(st.source * kRounds + expect);
      if (st.tag != expect || st.bytes != kBytes ||
          std::any_of(rbuf.begin(), rbuf.end(),
                      [&](std::byte b) { return b != stamp; })) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
      ++expect;
    }
    for (mpi::Request& r : reqs) r.wait();
  });
  EXPECT_EQ(bad.load(), 0) << "a wildcard receive broke per-sender order "
                              "or delivered a corrupted payload";
  EXPECT_EQ(w.engine().payload_pool().outstanding(), 0u)
      << "pooled payload buffers leaked across threads";
}

// ---- PayloadPool ------------------------------------------------------------

TEST(PayloadPool, ZeroBytePathTouchesNothing) {
  PayloadPool pool;
  PooledPayload p = pool.acquire_copy(nullptr, 0);
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p.is_inline());
  EXPECT_FALSE(p.is_pooled());
  // No storage tier was exercised: every counter stays zero.
  EXPECT_EQ(pool.stats().inline_grabs.load(), 0u);
  EXPECT_EQ(pool.stats().allocs.load(), 0u);
  EXPECT_EQ(pool.stats().reuses.load(), 0u);
  p.release();
  EXPECT_EQ(pool.stats().recycled.load(), 0u);
  EXPECT_EQ(pool.stats().dropped.load(), 0u);
}

TEST(PayloadPool, SmallPayloadsLiveInline) {
  PayloadPool pool;
  std::vector<std::byte> src(PooledPayload::kInlineBytes, std::byte{0xab});
  PooledPayload p = pool.acquire_copy(src.data(), src.size());
  EXPECT_TRUE(p.is_inline());
  EXPECT_FALSE(p.is_pooled());
  EXPECT_EQ(pool.stats().inline_grabs.load(), 1u);
  EXPECT_EQ(pool.stats().allocs.load(), 0u);
  ASSERT_EQ(p.size(), src.size());
  EXPECT_EQ(std::memcmp(p.data(), src.data(), src.size()), 0);

  // Moves carry the bytes (the handle owns them, no external storage).
  PooledPayload q = std::move(p);
  EXPECT_TRUE(p.empty());  // NOLINT(bugprone-use-after-move): asserted state
  ASSERT_EQ(q.size(), src.size());
  EXPECT_EQ(std::memcmp(q.data(), src.data(), src.size()), 0);
}

TEST(PayloadPool, BuffersRecycleThroughTheFreelist) {
  PayloadPool pool;
  std::vector<std::byte> src(512, std::byte{0x5c});
  {
    PooledPayload p = pool.acquire_copy(src.data(), src.size());
    EXPECT_TRUE(p.is_pooled());
    EXPECT_EQ(pool.stats().allocs.load(), 1u);
  }  // handle death returns the buffer
  EXPECT_EQ(pool.stats().recycled.load(), 1u);
  EXPECT_EQ(pool.free_buffers(), 1u);
  {
    PooledPayload p = pool.acquire_copy(src.data(), src.size());
    EXPECT_TRUE(p.is_pooled());
    ASSERT_EQ(p.size(), src.size());
    EXPECT_EQ(std::memcmp(p.data(), src.data(), src.size()), 0);
  }
  EXPECT_EQ(pool.stats().reuses.load(), 1u);
  EXPECT_EQ(pool.stats().allocs.load(), 1u) << "second acquire re-allocated";
}

TEST(PayloadPool, OversizedPayloadsAreNotHoarded) {
  PayloadPool pool;
  const std::size_t big = PayloadPool::kMaxBucketBytes + 1;
  std::vector<std::byte> src(big, std::byte{0x01});
  {
    PooledPayload p = pool.acquire_copy(src.data(), src.size());
    EXPECT_FALSE(p.is_pooled());
    EXPECT_FALSE(p.is_inline());
    EXPECT_EQ(p.size(), big);
  }
  EXPECT_EQ(pool.free_buffers(), 0u) << "a >4MiB buffer was cached";
}

TEST(PayloadPool, SteadyStateEagerTrafficStopsAllocating) {
  // End-to-end: after warm-up, an eager ping-pong must be served entirely
  // from the freelist (the allocation count stops moving).
  mpi::WorldConfig wc;
  wc.cluster = net::ClusterSpec::frontera();
  wc.tuning = net::MpiTuning::mvapich2();
  wc.nranks = 2;
  wc.ppn = 2;
  mpi::World w(wc);
  auto pingpong = [&](int iters) {
    w.run([&](mpi::Comm& c) {
      std::vector<std::byte> sbuf(512, std::byte{0x77});
      std::vector<std::byte> rbuf(512);
      for (int i = 0; i < iters; ++i) {
        if (c.rank() == 0) {
          c.send(mpi::ConstView{sbuf.data(), sbuf.size()}, 1, 3);
          (void)c.recv(mpi::MutView{rbuf.data(), rbuf.size()}, 1, 3);
        } else {
          (void)c.recv(mpi::MutView{rbuf.data(), rbuf.size()}, 0, 3);
          c.send(mpi::ConstView{sbuf.data(), sbuf.size()}, 0, 3);
        }
      }
    });
  };
  pingpong(50);  // warm the freelists
  const auto allocs_before = w.engine().payload_pool().stats().allocs.load();
  pingpong(500);
  const auto allocs_after = w.engine().payload_pool().stats().allocs.load();
  EXPECT_EQ(allocs_after, allocs_before)
      << "steady-state eager traffic still hits the allocator";
  EXPECT_GT(w.engine().payload_pool().stats().reuses.load(), 900u);
}

TEST(PayloadPool, MultiProducerFreelistStressKeepsBuffersDistinct) {
  // Four threads hammer one pool with 512-byte acquire/release cycles,
  // each stamping its buffers with a thread-unique pattern.  The lock-free
  // freelist must never hand the same buffer to two live handles (the
  // pattern check would fail), must leak nothing, and must respect the
  // per-bucket cache bound once the threads join.
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 20000;
  PayloadPool pool;
  std::atomic<int> mismatches{0};

  auto worker = [&pool, &mismatches](int tid) {
    std::vector<std::byte> src(512);
    std::mt19937 rng(static_cast<std::uint32_t>(tid) * 7919u + 1u);
    for (int i = 0; i < kItersPerThread; ++i) {
      const auto stamp =
          static_cast<std::byte>((tid << 6) | (i & 0x3f));
      std::fill(src.begin(), src.end(), stamp);
      PooledPayload a = pool.acquire_copy(src.data(), src.size());
      // Occasionally hold two handles at once to force freelist misses.
      PooledPayload b;
      if (rng() % 4 == 0) {
        b = pool.acquire_copy(src.data(), src.size());
      }
      for (const PooledPayload* p : {&a, &b}) {
        if (p->empty()) continue;
        if (p->size() != src.size() ||
            std::memcmp(p->data(), src.data(), src.size()) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0)
      << "two live handles aliased one pooled buffer";
  EXPECT_EQ(pool.outstanding(), 0u) << "pooled buffers leaked";
  EXPECT_LE(pool.free_buffers(),
            PayloadPool::kNumBuckets * (PayloadPool::kMaxFreePerBucket + 1))
      << "freelist cached past its per-bucket bound (ring + hot slot)";
  const auto& st = pool.stats();
  EXPECT_GT(st.reuses.load(), 0u) << "freelist never recycled under stress";
  // Every pooled acquire was either a fresh allocation or a freelist hit,
  // and with all handles dead every one of them came back.
  EXPECT_EQ(st.recycled.load() + st.dropped.load(),
            st.allocs.load() + st.reuses.load())
      << "alloc/recycle accounting drifted";
}
