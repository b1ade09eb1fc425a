// Per-rank mailbox with MPI matching semantics.
//
// Senders enqueue into the destination's box; receivers block until a
// message matching (context, source, tag) exists.  Every operation —
// enqueue, receive, probe, poison, reset — runs under the one mutex `m_`,
// so there is a single enqueue path and a single dequeue path.
//
// Matching structure: messages are binned into per-(context, src, tag)
// FIFO queues indexed by an open-addressing flat hash, with the last bin
// touched cached as MRU (steady traffic repeats one key).  Every message
// is stamped with a global monotone sequence number at enqueue; a
// wildcard receive (kAnySource / kAnyTag / both) scans the bin directory
// — O(#bins), bounded by distinct (context, src, tag) triples in flight —
// and takes the candidate bin whose head has the smallest sequence
// number.  Since bin FIFO order equals per-key arrival order and
// sequence numbers equal global arrival order, every receive and probe
// observes exactly the order a single linear queue would produce
// (property-tested against a reference linear mailbox in
// tests/test_mailbox_matching.cpp).
//
// Every blocking path (matched receive, blocking probe, capacity-blocked
// enqueue) participates in the failure-propagation protocol: poison()
// wakes all waiters with an AbortedError (whatever bin they wait on),
// reset() drains every bin, and waits are registered in the engine's
// WaitRegistry so the deadlock watchdog can dump what each rank is stuck
// on.  Waiter counts (guarded by m_) let enqueue and take skip the
// notify when nobody is blocked — the overwhelmingly common case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fault/abort.hpp"
#include "fault/watchdog.hpp"
#include "ft/ft.hpp"
#include "mpi/message.hpp"
#include "obs/metrics.hpp"
#include "sched/sched.hpp"

namespace ombx::explore {
class ScheduleOracle;
struct Candidate;
}  // namespace ombx::explore

namespace ombx::mpi {

class Mailbox {
 public:
  /// Upper bound on queued messages; enqueue blocks beyond it (models MPI
  /// eager flow control and bounds host memory at scale).  `registry`
  /// (may be null) receives blocked-wait registrations for `owner_rank`'s
  /// receives and for senders stuck on capacity.
  explicit Mailbox(std::size_t capacity = 8192,
                   fault::WaitRegistry* registry = nullptr,
                   int owner_rank = -1)
      : capacity_(capacity), registry_(registry), owner_(owner_rank) {
    table_.resize(kInitialSlots);
  }
  /// Accepts (and ignores) a sender-count argument so that callers written
  /// against the four-argument form keep compiling.
  Mailbox(std::size_t capacity, fault::WaitRegistry* registry, int owner_rank,
          int /*max_src_world*/)
      : Mailbox(capacity, registry, owner_rank) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposit a message; blocks while the box is at capacity.  Throws
  /// AbortedError when the box is (or becomes) poisoned, so capacity-
  /// blocked senders wake instead of hanging on a dead receiver.
  void enqueue(Message&& msg);

  /// Remove and return the first message matching (ctx, src, tag); blocks
  /// until one arrives.  Throws AbortedError once poisoned.
  [[nodiscard]] Message dequeue_match(int ctx, int src, int tag);
  /// Accepts (and ignores) the sender's world rank so that callers written
  /// against the four-argument form keep compiling.
  [[nodiscard]] Message dequeue_match(int ctx, int src, int tag,
                                      int /*src_world_hint*/) {
    return dequeue_match(ctx, src, tag);
  }

  /// Like dequeue_match but does not block: returns nullopt if no match is
  /// currently queued.
  [[nodiscard]] std::optional<Message> try_dequeue_match(int ctx, int src,
                                                         int tag);

  /// Blocking probe: waits for a match and returns its envelope without
  /// removing it (MPI_Probe).  Throws AbortedError once poisoned.
  [[nodiscard]] Status probe(int ctx, int src, int tag);

  /// Non-blocking probe (MPI_Iprobe).
  [[nodiscard]] std::optional<Status> try_probe(int ctx, int src, int tag);

  /// Abort propagation: wake every waiter (senders and receivers); all
  /// current and future blocking calls throw AbortedError carrying `info`.
  void poison(std::shared_ptr<const fault::AbortInfo> info);

  /// Re-arm the mailbox for a fresh run (clears poison and drains every
  /// bin, returning pooled payload buffers to their pool).  Only valid
  /// while no rank thread is using the box.
  void reset();

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return queued_;
  }

  /// One entry per nonempty bin: the (context, src, tag) key and how many
  /// messages are still queued under it.  Sorted by (ctx, src, tag) so the
  /// finalize audit's unmatched-send report is deterministic.
  struct Pending {
    int ctx;
    int src;
    int tag;
    std::size_t count;
  };
  [[nodiscard]] std::vector<Pending> pending_summary() const;

  /// Attach the world's ULFM failure state (null when FT is disabled —
  /// the default, in which case no wait ever consults it).  Blocked waits
  /// then wake when the peer they depend on is dead- or exit-marked and
  /// no matching message is queued; a queued match always wins, which is
  /// deterministic because a rank's sends happen-before its own marks.
  void set_failure_state(const ft::FailureState* fs) noexcept {
    std::lock_guard<std::mutex> lk(m_);
    fs_ = fs;
  }

  /// Wake every waiter so it re-evaluates the failure state (called after
  /// a death/exit/revoke mark; never with FailureState's mutex held).
  void ft_notify();

  /// Attach the owner rank's metrics block (null to detach).  Successful
  /// dequeues are classified as exact / MRU / wildcard in receiver
  /// program order, so the counts are deterministic (see
  /// obs/metrics.hpp).
  void set_counters(obs::RankCounters* counters) noexcept {
    std::lock_guard<std::mutex> lk(m_);
    counters_ = counters;
  }

  /// Attach a scheduling oracle (null to detach — the default; every
  /// match path then reduces to plain find_match).  With an oracle, each
  /// wildcard match records its candidate set, honours a pending pin
  /// (waiting for the pinned bin instead of taking the min-seq head), and
  /// consults fuzz picks (see explore/explore.hpp).
  void set_oracle(explore::ScheduleOracle* oracle) noexcept {
    std::lock_guard<std::mutex> lk(m_);
    oracle_ = oracle;
  }

 private:
  /// One FIFO of messages sharing an exact (context, src, tag) key.  Bins
  /// are never deleted before reset(); an emptied bin stays registered so
  /// its next message skips the insert path.
  struct Bin {
    int ctx = 0;
    int src = 0;
    int tag = 0;
    /// q.front().seq, mirrored inline (valid while !q.empty()).  The
    /// wildcard scan walks every nonempty bin comparing head sequence
    /// numbers; with the mirror it reads only the contiguous bins_
    /// storage instead of chasing each deque's heap block — one cache
    /// line per few bins rather than one per bin, and immune to where
    /// the allocator happened to place those blocks.
    std::uint64_t front_seq = 0;
    std::deque<Message> q;
  };

  static constexpr std::size_t kInitialSlots = 64;  // power of two

  [[nodiscard]] static std::uint64_t hash_key(int ctx, int src,
                                              int tag) noexcept;

  /// Exact-key bin lookup; null when the triple has no bin yet.
  [[nodiscard]] Bin* find_bin(int ctx, int src, int tag) const noexcept;
  /// Exact-key bin lookup, creating (and indexing) the bin if absent.
  [[nodiscard]] Bin& obtain_bin(int ctx, int src, int tag);
  void rehash(std::size_t new_slots);

  /// The bin whose head is the first message (in global arrival order)
  /// matching the possibly-wildcarded pattern; null when none is queued.
  /// The match itself is always the returned bin's front().
  [[nodiscard]] Bin* find_match(int ctx, int src, int tag) const noexcept;

  /// Oracle-aware selection: find_match, except that for a wildcard
  /// pattern a pending pin restricts the match to the pinned bin (null
  /// until it has a message) and fuzz mode substitutes a seeded candidate
  /// pick.  Side-effect-free apart from stale-pin cursor advancement, so
  /// it is safe inside wait predicates that evaluate many times.
  [[nodiscard]] Bin* match_for(int ctx, int src, int tag);

  /// Block (registered with the watchdog as `kind`) until match_for finds
  /// a bin, the box is poisoned, or the failure state interrupts the
  /// wait; then throw for poison / interrupt or return the matched bin.
  /// Shared by dequeue_match and probe.
  [[nodiscard]] Bin& await_match_locked(std::unique_lock<std::mutex>& lk,
                                        fault::WaitKind kind, int ctx,
                                        int src, int tag);

  /// Non-blocking counterpart of await_match_locked: the matched bin, or
  /// null when nothing matches (throwing once the failure state makes the
  /// miss permanent).  Shared by try_dequeue_match and try_probe.
  [[nodiscard]] Bin* poll_match_locked(int ctx, int src, int tag);

  /// Record a wildcard decision with the oracle.  The no-oracle /
  /// exact-pattern early-out is inline so plain receives skip the call
  /// (and its argument setup) entirely.  Must run under the same m_ hold
  /// as the match_for() that selected `bin`.
  void commit_wildcard_locked(const Bin& bin, int ctx, int src, int tag) {
    if (oracle_ == nullptr || (src != kAnySource && tag != kAnyTag)) return;
    commit_wildcard_slow_locked(bin, ctx, src, tag);
  }
  void commit_wildcard_slow_locked(const Bin& bin, int ctx, int src, int tag);

  /// All nonempty bins matching the pattern, seq-ascending by head.
  void collect_candidates(int ctx, int src, int tag,
                          std::vector<explore::Candidate>& out) const;

  /// Pop the head of `bin`, maintaining counts and waking capacity-blocked
  /// senders.  `wildcard` says whether the pattern that selected the bin
  /// carried a wildcard (metrics classification: an MRU hit is an exact
  /// take from the same bin as the previous take — receiver program
  /// order, so deterministic).
  [[nodiscard]] Message take_locked(Bin& bin, bool wildcard);

  [[noreturn]] void throw_poisoned_locked();

  /// Log an FT wake whose death/exit marks coexisted (a wake-order tie —
  /// resolved deterministically by virtual time, but worth attributing
  /// during exploration).  No-op without an oracle.
  void note_ft_interrupt_locked(const ft::FailureState::Interrupt& it,
                                int ctx);

  mutable std::mutex m_;
  sched::WaitQueue arrived_;  ///< signalled on enqueue / poison
  sched::WaitQueue drained_;  ///< signalled on dequeue / poison
  std::deque<Bin> bins_;             ///< stable storage + wildcard scan order
  std::vector<Bin*> table_;          ///< open-addressing index, pow2 slots
  mutable Bin* mru_ = nullptr;       ///< last bin looked up (steady traffic)
  const Bin* last_take_ = nullptr;   ///< bin of the previous successful take
  std::size_t queued_ = 0;           ///< messages across all bins
  std::uint64_t next_seq_ = 0;       ///< global arrival stamp
  int arrival_waiters_ = 0;          ///< blocked receives + probes
  int drain_waiters_ = 0;            ///< capacity-blocked senders

  std::size_t capacity_;
  obs::RankCounters* counters_ = nullptr;  ///< owner's metrics

  std::shared_ptr<const fault::AbortInfo> poison_;
  fault::WaitRegistry* registry_;
  int owner_;
  const ft::FailureState* fs_ = nullptr;  ///< null unless FT mode
  explore::ScheduleOracle* oracle_ = nullptr;  ///< null unless exploring
};

}  // namespace ombx::mpi
