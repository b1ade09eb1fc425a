// In-flight message representation and buffer views.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>

#include "fault/abort.hpp"
#include "mpi/payload_pool.hpp"
#include "net/network.hpp"
#include "sched/sched.hpp"
#include "simtime/clock.hpp"

namespace ombx::mpi {

using simtime::usec_t;

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Non-owning read view of a send buffer.  `data == nullptr` marks a
/// synthetic payload: the engine charges full virtual-time costs but moves
/// no bytes (used for at-scale runs whose aggregate buffers would not fit
/// in host memory).
struct ConstView {
  const std::byte* data = nullptr;
  std::size_t bytes = 0;
  net::MemSpace space = net::MemSpace::kHost;
};

/// Non-owning write view of a receive buffer.
struct MutView {
  std::byte* data = nullptr;
  std::size_t bytes = 0;
  net::MemSpace space = net::MemSpace::kHost;
};

/// Completion info, mirroring MPI_Status.
struct Status {
  int source = kAnySource;  ///< comm-local rank of the sender
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// Rendezvous synchronization cell shared between sender and receiver: the
/// receiver fills in the transfer-completion time and signals; the sender
/// advances its clock to it.  A cell can also be *poisoned* by an abort, in
/// which case await() throws (see error.hpp) instead of returning a time —
/// the wake path that keeps rendezvous senders from hanging when their
/// receiver dies.
///
/// A zero-copy cell (`src.data != nullptr`) also guards the sender's
/// buffer: the receiver reads it in place between begin_transfer() and
/// complete(), and the sender promises it stays alive until then.  When
/// the sender stops vouching for it early (a failed wait, or its last
/// Request dropped unwaited), release_source() either waits out a claimed
/// read or *detaches*: copies the bytes into cell-owned pool storage that
/// begin_transfer() hands out instead.
struct SyncCell {
  std::mutex m;
  sched::WaitQueue cv;  ///< fiber-aware; cv semantics (see sched.hpp)
  bool done = false;
  /// Set by a zero-copy receiver (under `m`) just before it reads the
  /// source.  A poisoned-but-in-transfer cell keeps the sender blocked
  /// until complete(): the receiver is in a bounded straight-line copy,
  /// and the sender's buffer must stay alive under it.
  bool in_transfer = false;
  usec_t release_time = 0.0;
  std::shared_ptr<const fault::AbortInfo> poisoned;
  /// ULFM interruption (FT mode only): the peer this cell waits on died
  /// (ft_failed_rank >= 0) or exited the communicator after a revoke
  /// (ft_revoked).  Like poison, but scoped: await() raises the matching
  /// ft:: error instead of AbortedError, and a completed cell still wins.
  int ft_failed_rank = -1;
  bool ft_revoked = false;
  usec_t ft_time = 0.0;
  // Written by the sender before the cell is shared (read-only
  // afterwards): the wait-diagnostics envelope (who the sender is waiting
  // on) and, for zero-copy sends, the source view and the pool a detached
  // copy comes from.
  int ctx = 0;
  int peer = -1;
  int tag = -1;
  ConstView src;
  PayloadPool* pool = nullptr;
  /// The sender's bytes once detached (under `m`); empty until then.
  PooledPayload detached;
  /// Live sender-side handles (SenderHandle); the posting call's own
  /// hold is the first.
  std::atomic<int> senders{1};

  void complete(usec_t t) {
    {
      std::lock_guard<std::mutex> lk(m);
      release_time = t;
      done = true;
    }
    cv.notify_all();
  }

  void poison(std::shared_ptr<const fault::AbortInfo> info) {
    {
      std::lock_guard<std::mutex> lk(m);
      poisoned = std::move(info);
    }
    cv.notify_all();
  }

  /// ULFM interruption (see the field comment).  `proc_failed` selects
  /// ProcFailedError (dead peer) vs RevokedError (peer exited the ctx).
  void ft_interrupt(bool proc_failed, int rank, usec_t t) {
    {
      std::lock_guard<std::mutex> lk(m);
      if (proc_failed) {
        ft_failed_rank = rank;
      } else {
        ft_revoked = true;
      }
      ft_time = t;
    }
    cv.notify_all();
  }

  /// Zero-copy receiver handshake: claim the right to read the source and
  /// return where to read it — the detached copy if there is one, else the
  /// sender's buffer.  Returns nullptr when the cell is poisoned and not
  /// detached: the sender may have unwound (freeing the buffer), so the
  /// caller must not touch it.  On success the sender is pinned until
  /// complete() is called; the caller must reach complete() without
  /// executing anything that throws.
  [[nodiscard]] const std::byte* begin_transfer();

  /// The sender stops vouching for `src` before the send completed.  Waits
  /// (without parking) for a claimed read to finish; otherwise, if a
  /// receiver may still claim (not done, not poisoned, peer alive),
  /// detaches.  Idempotent; a no-op for buffered and synthetic sends.
  void release_source() noexcept;

  /// Blocks until completed or poisoned.  A completed cell returns its
  /// release time even under poison (the transfer genuinely finished; the
  /// abort is observed at the rank's next substrate call); an incomplete
  /// poisoned cell throws AbortedError/DeadlockError — unless a receiver
  /// holds the transfer claim, in which case completion is imminent and we
  /// keep waiting for it (the sender's buffer is being read).  FT errors
  /// throw likewise; a RevokedError detaches the source first, because the
  /// live receiver may still match the send.
  usec_t await();

  /// Non-blocking completion check; throws when poisoned and incomplete
  /// (but reports "not yet" while a claimed transfer is draining).
  bool ready();

 private:
  /// Copy a zero-copy source into `detached` (once; caller holds `m`).
  void detach_locked();
};

/// Sender-side ownership of a rendezvous cell, counted in
/// SyncCell::senders so that copies of one Request share it.  When the
/// last handle goes away before the send completed, it calls
/// release_source(): an isend Request dropped without wait() must not
/// leave a receiver reading a buffer its owner is free to reuse.  settle()
/// lets go of a completed cell without touching the count, so the waited
/// path stays free of atomics.
class SenderHandle {
 public:
  SenderHandle() = default;
  explicit SenderHandle(std::shared_ptr<SyncCell> cell) noexcept
      : cell_(std::move(cell)) {}
  SenderHandle(const SenderHandle& o) noexcept : cell_(o.cell_) {
    if (cell_) cell_->senders.fetch_add(1, std::memory_order_relaxed);
  }
  SenderHandle(SenderHandle&& o) noexcept = default;
  SenderHandle& operator=(SenderHandle o) noexcept {
    drop();
    cell_ = std::move(o.cell_);
    return *this;
  }
  ~SenderHandle() { drop(); }

  SyncCell& operator*() const noexcept { return *cell_; }
  SyncCell* operator->() const noexcept { return cell_.get(); }
  explicit operator bool() const noexcept { return cell_ != nullptr; }

  /// Forget a cell that has completed (await() returned).
  void settle() noexcept { cell_.reset(); }

 private:
  void drop() noexcept {
    if (cell_ && cell_->senders.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cell_->release_source();
    }
    cell_.reset();
  }

  std::shared_ptr<SyncCell> cell_;
};

/// One message in a mailbox.  Payload bytes travel one of three ways:
///   - `payload` (pooled/inline copy) — eager sends, and rendezvous sends
///     posted SendBuffering::kBuffered (internal staging whose buffer dies
///     or is rewritten before the send completes);
///   - `sync->src` — every other rendezvous send, blocking or isend: the
///     sender keeps its buffer alive until the cell completes (MPI's own
///     contract), so the receiver copies straight out of it — or out of
///     the cell's detached copy if the sender let go early;
///   - neither — synthetic payloads (virtual-time costs only).
struct Message {
  int context = 0;    ///< communicator context id (match key)
  int src = 0;        ///< comm-local source rank (match key)
  int tag = 0;        ///< (match key)
  int src_world = 0;  ///< physical source rank (cost-model lookups)
  std::size_t bytes = 0;
  PooledPayload payload;  ///< empty when synthetic or zero-copy
  net::MemSpace space = net::MemSpace::kHost;
  net::Protocol protocol = net::Protocol::kEager;
  /// Fault injection: flip byte (corrupt_offset % bytes) into the receive
  /// buffer at delivery.  Recorded here (not applied to the stored bytes)
  /// so corruption works identically on pooled, zero-copy, and synthetic
  /// payloads.
  bool corrupt = false;
  std::size_t corrupt_offset = 0;
  /// Global arrival order, stamped by the mailbox at enqueue; wildcard
  /// receives and probes use it to observe MPI arrival order across bins.
  std::uint64_t seq = 0;
  usec_t send_time = 0.0;     ///< sender's virtual time at injection
  usec_t arrival_time = 0.0;  ///< eager: full-arrival time at receiver
  std::shared_ptr<SyncCell> sync;  ///< rendezvous only

  /// True when the receiver reads its bytes out of the sender's buffer
  /// (or the cell's detached copy) rather than out of `payload`.
  [[nodiscard]] bool zero_copy() const noexcept {
    return sync != nullptr && sync->src.data != nullptr;
  }

  /// True when bytes physically travelled with this message.
  [[nodiscard]] bool carries_data() const noexcept {
    return zero_copy() || !payload.empty();
  }

  [[nodiscard]] bool matches(int want_ctx, int want_src,
                             int want_tag) const noexcept {
    return context == want_ctx &&
           (want_src == kAnySource || src == want_src) &&
           (want_tag == kAnyTag || tag == want_tag);
  }
};

// dequeue_match returns Message by value; moves must stay cheap (at most
// PooledPayload's 64-byte inline copy) and never throw.
static_assert(std::is_nothrow_move_constructible_v<Message>);
static_assert(std::is_nothrow_move_assignable_v<Message>);

}  // namespace ombx::mpi
