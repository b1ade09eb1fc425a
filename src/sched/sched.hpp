// Rank scheduler: stackful fibers multiplexed onto a small worker pool,
// or the classic thread-per-rank backend, selected per World.
//
// Why fibers: the engine's determinism contract prices everything in
// virtual microseconds, so a rank is just a deterministic state machine
// between blocking points — it does not need an OS thread of its own.
// Mapping each rank onto a fiber bounds host threads by the worker-pool
// size instead of np, which is what makes paper-scale worlds
// (np = 224 ML figures, np >= 1024 collective sweeps) and campaign
// concurrency (cells x np) tractable on a laptop-class host.
//
// Fibers: on x86-64 a context switch is a hand-written register swap
// (callee-saved registers, MXCSR and the x87 control word — the
// boost.context fcontext design), with no syscall; other platforms fall
// back to ucontext.  Fiber stacks are guarded mappings kept on a pool free
// list, so a World::run after the first maps nothing.
//
// Scheduling: a process-wide FiberPool owns the workers and a run queue
// ordered by next virtual event — entries are keyed by the rank's virtual
// clock at enqueue time, ties broken FIFO.  The ordering is a liveness /
// cache nicety, not a correctness requirement: benchmark output depends
// only on virtual-time arithmetic, which host scheduling cannot touch
// (docs/execution-model.md spells out the argument).
//
// Blocking: every substrate wait (mailbox receive/probe, capacity-blocked
// enqueue, rendezvous SyncCell, FT recovery barrier) goes through a
// WaitQueue, which is a drop-in for std::condition_variable: thread-mode
// waiters block on an internal cv exactly as before; fiber waiters park —
// the fiber registers itself while still holding the caller's mutex
// (mirroring the cv's atomic release-and-block, so the existing Dekker
// wake handshakes carry over unchanged), unlocks, and yields its worker
// back to the scheduler.  notify_all wakes both kinds.
//
// The park/notify race is resolved by a per-fiber state machine
// (kParking -> kParked / kNotified): a notifier that lands while the
// fiber is still swapping out merely flips the state, and the worker
// requeues the fiber itself after the swap completes — so a fiber can
// never be resumed before its context is fully saved, and no wakeup is
// ever lost.
//
// Mode selection: Mode::kAuto resolves to fibers; the OMBX_SCHED
// environment variable (threads|fibers) overrides.  ThreadSanitizer /
// AddressSanitizer builds force threads no matter what was requested —
// the sanitizers do not understand fiber stack switches (UBSan does not
// care, so UBSan builds keep fibers).
// Tunables: OMBX_SCHED_WORKERS (pool size, default hardware
// concurrency), OMBX_FIBER_STACK_KB (per-fiber stack, default 512).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace ombx::sched {

/// Rank execution backend.  kAuto resolves at World::run time (see
/// resolve); kThreads is the pre-fiber thread-per-rank engine, kept for
/// sanitizer builds and as a differential-testing baseline.
enum class Mode { kAuto, kThreads, kFibers };

/// Resolve kAuto: OMBX_SCHED env override, else fibers.  Explicit modes
/// pass through — except under TSan/ASan builds, where every request
/// (even explicit kFibers) degrades to threads: the sanitizers cannot
/// follow fiber stack switches, and determinism makes the swap
/// unobservable.
[[nodiscard]] Mode resolve(Mode m) noexcept;

/// Parse "auto" / "threads" / "fibers"; throws std::invalid_argument.
[[nodiscard]] Mode mode_by_name(const std::string& s);
[[nodiscard]] const char* to_string(Mode m) noexcept;

/// True when this binary was built with TSan or ASan instrumentation.
[[nodiscard]] bool sanitizers_active() noexcept;

class Fiber;
class FiberPool;

/// The fiber currently executing on this OS thread (null outside fibers).
[[nodiscard]] Fiber* current_fiber() noexcept;

/// Identity of the current execution context: the fiber's address when on
/// a fiber, else a per-thread marker address.  Replaces thread-id
/// comparisons (e.g. the mailbox's self-send Dekker skip): under fibers
/// two different ranks can share one OS thread, so a thread id no longer
/// proves "the producer IS the consumer".  Addresses of live objects are
/// distinct, so equality is exact.
[[nodiscard]] std::uintptr_t exec_id() noexcept;

/// Cooperative yield: on a fiber, requeue behind every currently runnable
/// fiber and give the worker back (lets np > workers survive user-level
/// poll loops like `while (!req.test())`); on a plain thread, a no-op.
/// Yielded fibers are queued behind all virtual-time-ordered entries —
/// a poller has no "next virtual event" to sort by.
void maybe_yield() noexcept;

/// Backend-aware host-time sleep for retry backoff.  On a plain thread
/// this is std::this_thread::sleep_for; on a fiber it yields in a loop
/// until the deadline, so the worker keeps serving other fibers instead
/// of being host-slept out from under them (which would starve every
/// concurrent world sharing the pool — e.g. parallel campaign cells).
void backoff_sleep(double ms);

/// Process-wide fiber scheduler.  One instance serves every World in
/// fiber mode, so concurrent campaign cells share the worker pool instead
/// of multiplying host threads by np.
class FiberPool {
 public:
  /// The shared pool (workers are spawned lazily on first use).
  [[nodiscard]] static FiberPool& instance();

  /// Run `body(rank)` for ranks 0..nranks-1 as fibers; blocks the calling
  /// thread until every fiber finishes.  `vtime(rank)` samples the rank's
  /// virtual clock for run-queue ordering (called only while the rank is
  /// parked or before it starts, so a plain read is race-free).  Fiber
  /// stacks (OMBX_FIBER_STACK_KB) come from the pool's free list.
  /// Must not be called from inside a fiber (worlds do not nest onto the
  /// pool; World::run falls back to threads in that case).
  void run_world(int nranks, const std::function<void(int)>& body,
                 const std::function<double(int)>& vtime);

  /// Worker-pool size (resolves OMBX_SCHED_WORKERS on first call).
  [[nodiscard]] int workers();

  /// Fibers currently runnable (queued) or executing, across every world
  /// sharing the pool.  Deadlock detectors consult this: a world whose
  /// ranks all look blocked may simply be waiting for a notified fiber to
  /// reach the front of a busy run queue, so "deadlock" additionally
  /// requires an idle pool — in a true deadlock every fiber is parked and
  /// this returns 0.  Always 0 on the thread backend.
  [[nodiscard]] int active();

  ~FiberPool();
  FiberPool(const FiberPool&) = delete;
  FiberPool& operator=(const FiberPool&) = delete;

 private:
  FiberPool();
  struct Impl;
  std::unique_ptr<Impl> impl_;
  friend class Fiber;      ///< fibers hold their pool's Impl
  friend class WaitQueue;  ///< unparks via the fiber's pool Impl
};

/// Drop-in replacement for std::condition_variable at the substrate's
/// blocking points, aware of both backends.  The caller-side contract is
/// identical to a cv: wait() atomically releases the caller's lock and
/// blocks (parks), re-acquiring before return; spurious wakeups are
/// possible, so every wait sits in a predicate loop.  notify_all() must
/// be called either holding the associated mutex or after acquiring and
/// releasing it (the mailbox's empty lock_guard idiom) — exactly the
/// discipline the cv sites already follow.
class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  void wait(std::unique_lock<std::mutex>& lk);

  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  void notify_all();

 private:
  std::condition_variable cv_;      ///< thread-mode waiters
  std::mutex wm_;                   ///< guards fiber_waiters_
  std::vector<Fiber*> fiber_waiters_;
  /// Lock-free "any fiber waiting?" gate for notify_all.  Incremented
  /// under both wm_ and the caller's mutex before that mutex is released,
  /// so a notifier that has acquired (or empty-acquired) the caller's
  /// mutex is guaranteed to observe the registration — the same
  /// visibility argument the cv relied on.
  std::atomic<int> nfibers_{0};
};

}  // namespace ombx::sched
