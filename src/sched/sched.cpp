#include "sched/sched.hpp"

#include <sys/mman.h>
#include <unistd.h>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

namespace ombx::sched {

namespace {

/// The fiber running on this OS thread (null on plain threads, including
/// pool workers between fibers).
thread_local Fiber* tls_fiber = nullptr;

/// Per-thread marker for exec_id(): the address of a live thread_local is
/// unique among live threads and can never equal a live Fiber's address.
thread_local char tls_exec_marker = 0;

std::size_t page_size() noexcept {
  static const std::size_t p = [] {
    const long v = ::sysconf(_SC_PAGESIZE);
    return v > 0 ? static_cast<std::size_t>(v) : std::size_t{4096};
  }();
  return p;
}

std::size_t default_stack_bytes() noexcept {
  static const std::size_t bytes = [] {
    std::size_t kb = 512;
    if (const char* e = std::getenv("OMBX_FIBER_STACK_KB")) {
      const long v = std::atol(e);
      if (v >= 64 && v <= 64 * 1024) kb = static_cast<std::size_t>(v);
    }
    return kb * 1024;
  }();
  return bytes;
}

/// One pooled stack mapping: a PROT_NONE guard page below the stack.
std::size_t stack_map_bytes() noexcept {
  static const std::size_t bytes =
      page_size() +
      (default_stack_bytes() + page_size() - 1) / page_size() * page_size();
  return bytes;
}

}  // namespace

bool sanitizers_active() noexcept {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

Mode resolve(Mode m) noexcept {
  // The sanitizers' happens-before and shadow-stack machinery does not
  // follow fiber stack switches, so instrumented builds run
  // thread-per-rank even when fibers were requested explicitly —
  // degrading beats reporting false races from every stack switch.
  // Determinism makes the swap unobservable in benchmark output.
  if (sanitizers_active()) return Mode::kThreads;
  if (m != Mode::kAuto) return m;
  if (const char* e = std::getenv("OMBX_SCHED")) {
    if (std::strcmp(e, "threads") == 0) return Mode::kThreads;
    if (std::strcmp(e, "fibers") == 0) return Mode::kFibers;
  }
  return Mode::kFibers;
}

Mode mode_by_name(const std::string& s) {
  if (s == "auto") return Mode::kAuto;
  if (s == "threads") return Mode::kThreads;
  if (s == "fibers") return Mode::kFibers;
  throw std::invalid_argument("unknown scheduler mode '" + s +
                              "' (want auto|threads|fibers)");
}

const char* to_string(Mode m) noexcept {
  switch (m) {
    case Mode::kAuto:
      return "auto";
    case Mode::kThreads:
      return "threads";
    case Mode::kFibers:
      return "fibers";
  }
  return "?";
}

Fiber* current_fiber() noexcept { return tls_fiber; }

std::uintptr_t exec_id() noexcept {
  if (Fiber* f = tls_fiber) return reinterpret_cast<std::uintptr_t>(f);
  return reinterpret_cast<std::uintptr_t>(&tls_exec_marker);
}

// ---- Context switch ---------------------------------------------------------

#if defined(__x86_64__)
// A suspended context is just its stack pointer: the switch pushes the
// SysV callee-saved registers (rbx, rbp, r12-r15), MXCSR and the x87
// control word onto the outgoing stack, stores sp, loads the other sp and
// pops the same set.  This is the design of boost.context's fcontext
// (jump_fcontext/make_fcontext, Oliver Kowalke); unlike glibc swapcontext
// it makes no rt_sigprocmask syscall.  It is not CET shadow-stack aware,
// so a process must not turn user shadow stacks on (glibc leaves them off
// unless asked).
//
// Frame layout, from the saved sp upwards:
//   [0] mxcsr (4 B) + x87 cw (2 B)  [8] r12  [16] r13  [24] r14  [32] r15
//   [40] rbx  [48] rbp  [56] return address
// A fresh fiber's frame "returns" into ombx_sched_entry with r12 = the
// Fiber* and r13 = fiber_main; the stub marks the bottom of the call
// chain (.cfi_undefined rip) so unwinders and gdb stop there.
extern "C" {
void ombx_sched_jump(void** save_sp, void* load_sp)
    __attribute__((visibility("hidden")));
void ombx_sched_entry() __attribute__((visibility("hidden")));
}

asm(R"(
  .text
  .globl ombx_sched_jump
  .hidden ombx_sched_jump
  .type ombx_sched_jump,@function
  .p2align 4
ombx_sched_jump:
  .cfi_startproc
  pushq %rbp
  pushq %rbx
  pushq %r15
  pushq %r14
  pushq %r13
  pushq %r12
  leaq -8(%rsp), %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  leaq 8(%rsp), %rsp
  popq %r12
  popq %r13
  popq %r14
  popq %r15
  popq %rbx
  popq %rbp
  ret
  .cfi_endproc
  .size ombx_sched_jump,.-ombx_sched_jump

  .globl ombx_sched_entry
  .hidden ombx_sched_entry
  .type ombx_sched_entry,@function
  .p2align 4
ombx_sched_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  call *%r13
  ud2
  .cfi_endproc
  .size ombx_sched_entry,.-ombx_sched_entry
)");

namespace {

/// Runs a fiber's rank body; the first jump into a fiber lands here.
[[noreturn]] void fiber_main(Fiber* f);

struct Context {
  void* sp = nullptr;
};

inline void jump(Context& from, const Context& to) {
  ombx_sched_jump(&from.sp, to.sp);
}

/// Lay out a first frame at the top of [lo, lo + bytes) that enters
/// fiber_main(f) on the first jump, with the creating thread's
/// floating-point control state (a new OS thread inherits it the same way).
void make_context(Context& c, void* lo, std::size_t bytes, Fiber* f) {
  auto* top = reinterpret_cast<std::uintptr_t*>(
      (reinterpret_cast<std::uintptr_t>(lo) + bytes) & ~std::uintptr_t{15});
  std::uintptr_t* frame = top - 8;  // ret lands 16-byte aligned at `top`
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  frame[0] = mxcsr | (std::uintptr_t{fpucw} << 32);
  frame[1] = reinterpret_cast<std::uintptr_t>(f);            // r12
  frame[2] = reinterpret_cast<std::uintptr_t>(&fiber_main);  // r13
  frame[3] = frame[4] = frame[5] = frame[6] = 0;  // r14 r15 rbx rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&ombx_sched_entry);
  c.sp = frame;
}

}  // namespace
#else
// Portable fallback: ucontext (one rt_sigprocmask syscall per switch).
namespace {

[[noreturn]] void fiber_main(Fiber* f);

struct Context {
  ucontext_t uc{};
};

inline void jump(Context& from, const Context& to) {
  ::swapcontext(&from.uc, &to.uc);
}

// makecontext passes ints only; the Fiber* arrives split into two words.
void uc_entry(unsigned hi, unsigned lo) {
  fiber_main(reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                      static_cast<std::uintptr_t>(lo)));
}

void make_context(Context& c, void* lo, std::size_t bytes, Fiber* f) {
  if (::getcontext(&c.uc) != 0) {
    throw std::runtime_error("sched: getcontext failed");
  }
  c.uc.uc_stack.ss_sp = lo;
  c.uc.uc_stack.ss_size = bytes;
  c.uc.uc_link = nullptr;  // fibers exit via an explicit final switch
  const auto self = reinterpret_cast<std::uintptr_t>(f);
  ::makecontext(&c.uc, reinterpret_cast<void (*)()>(&uc_entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
}

}  // namespace
#endif

// ---- Fiber ------------------------------------------------------------------

/// One world being executed on the pool (stack-local in run_world).
struct WorldRun {
  const std::function<void(int)>* body = nullptr;
  std::function<double(int)> vtime;
  std::mutex m;
  std::condition_variable done_cv;
  int remaining = 0;
  std::exception_ptr first_error;  ///< first exception escaping a body
};

/// A stackful fiber running one rank's body.
class Fiber {
 public:
  /// Park/notify handshake states.  The fiber stores kParking before it
  /// registers in a WaitQueue and swaps out; the worker CASes kParking ->
  /// kParked once the swap has completed; a notifier exchanges to
  /// kNotified and requeues only when it displaced kParked (otherwise the
  /// worker's failed CAS does the requeue).  This is what makes a wakeup
  /// that races the swap-out safe: the fiber cannot reach a worker's run
  /// slot until its context save is complete.
  enum State : int { kRunning, kParking, kParked, kNotified };

  /// Takes a stack from the pool's free list (or maps one) and lays out
  /// the first frame; the destructor hands the stack back.
  Fiber(FiberPool::Impl* pool, WorldRun* world, int rank);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] WorldRun* world() const noexcept { return world_; }
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Fiber side: swap back to the worker.  Used by both parking (state
  /// already kParking, registered in a WaitQueue) and yielding
  /// (yield_ set); returns when a worker resumes this fiber.
  void switch_out() { jump(ctx_, *ret_); }

  FiberPool::Impl* pool_;
  WorldRun* world_;
  int rank_;
  std::atomic<int> state_{kRunning};
  bool yield_ = false;  ///< fiber-side request; worker-side consumed
  bool done_ = false;
  Context ctx_;              ///< saved while switched out
  Context* ret_ = nullptr;   ///< current worker's saved context
  void* stack_ = nullptr;    ///< pooled mapping, guard page first
};

// ---- FiberPool --------------------------------------------------------------

struct FiberPool::Impl {
  struct Entry {
    double vt = 0.0;       ///< virtual clock at enqueue (+inf for yields)
    std::uint64_t seq = 0;  ///< FIFO tiebreak
    Fiber* f = nullptr;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.vt != b.vt ? a.vt > b.vt : a.seq > b.seq;
    }
  };

  std::mutex qm_;
  std::condition_variable qcv_;
  std::vector<Entry> ready_;  ///< min-heap (Later), earliest event first
  std::atomic<int> running_{0};  ///< fibers currently swapped in on a worker
  std::uint64_t next_entry_seq_ = 0;
  bool stop_ = false;
  bool workers_started_ = false;
  int nworkers_ = 0;
  std::vector<std::thread> workers_;

  /// Guarded stacks of finished fibers, reused by the next world: one
  /// size only (stack_map_bytes), unmapped when the pool dies.
  std::mutex stacks_m_;
  std::vector<void*> free_stacks_;

  ~Impl() {
    for (void* s : free_stacks_) ::munmap(s, stack_map_bytes());
  }

  void* take_stack() {
    {
      std::lock_guard<std::mutex> lk(stacks_m_);
      if (!free_stacks_.empty()) {
        void* s = free_stacks_.back();
        free_stacks_.pop_back();
        return s;
      }
    }
    const std::size_t guard = page_size();
    void* s = ::mmap(nullptr, stack_map_bytes(), PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (s == MAP_FAILED) {
      throw std::runtime_error("sched: fiber stack mmap failed");
    }
    // Low guard page stays PROT_NONE: stack overflow faults instead of
    // silently corrupting the neighbouring fiber's pages.
    if (::mprotect(static_cast<char*>(s) + guard, stack_map_bytes() - guard,
                   PROT_READ | PROT_WRITE) != 0) {
      ::munmap(s, stack_map_bytes());
      throw std::runtime_error("sched: fiber stack mprotect failed");
    }
    return s;
  }

  void give_stack(void* s) {
    std::lock_guard<std::mutex> lk(stacks_m_);
    free_stacks_.push_back(s);
  }

  int resolve_workers() {
    int n = static_cast<int>(std::thread::hardware_concurrency());
    if (const char* e = std::getenv("OMBX_SCHED_WORKERS")) {
      const long v = std::atol(e);
      if (v >= 1 && v <= 256) n = static_cast<int>(v);
    }
    return std::clamp(n, 1, 64);
  }

  void ensure_workers() {
    std::lock_guard<std::mutex> lk(qm_);
    if (workers_started_) return;
    workers_started_ = true;
    nworkers_ = resolve_workers();
    workers_.reserve(static_cast<std::size_t>(nworkers_));
    for (int i = 0; i < nworkers_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void push_locked(Fiber* f, double vt) {
    ready_.push_back(Entry{vt, next_entry_seq_++, f});
    std::push_heap(ready_.begin(), ready_.end(), Later{});
  }

  /// Requeue a runnable fiber.  `yield` entries sort behind every
  /// virtual-time-keyed entry: a poller has no next virtual event, and
  /// ordering it first by its (stale) clock could starve the very rank
  /// it is polling for.
  void requeue(Fiber* f, bool yield) {
    const double vt = yield ? std::numeric_limits<double>::infinity()
                            : f->world_->vtime(f->rank_);
    {
      std::lock_guard<std::mutex> lk(qm_);
      push_locked(f, vt);
    }
    qcv_.notify_one();
  }

  void worker_loop() {
    Context worker_ctx;
    for (;;) {
      Fiber* f = nullptr;
      {
        std::unique_lock<std::mutex> lk(qm_);
        qcv_.wait(lk, [&] { return stop_ || !ready_.empty(); });
        if (stop_) return;
        std::pop_heap(ready_.begin(), ready_.end(), Later{});
        f = ready_.back().f;
        ready_.pop_back();
        // Claimed while still holding qm_, so active() (queued + running)
        // never dips to zero with a runnable fiber in flight.
        running_.fetch_add(1, std::memory_order_relaxed);
      }
      f->ret_ = &worker_ctx;
      f->state_.store(Fiber::kRunning, std::memory_order_seq_cst);
      tls_fiber = f;
      jump(worker_ctx, f->ctx_);
      tls_fiber = nullptr;
      // The fiber's context is fully saved from here on — only now may it
      // become resumable again.
      if (f->done_) {
        finish(f);
      } else if (f->yield_) {
        f->yield_ = false;
        requeue(f, /*yield=*/true);
      } else {
        int expected = Fiber::kParking;
        if (!f->state_.compare_exchange_strong(expected, Fiber::kParked,
                                               std::memory_order_seq_cst)) {
          // A notify landed during the swap-out (kNotified): the wakeup is
          // ours to deliver.
          requeue(f, /*yield=*/false);
        }
      }
      // After any requeue above, so a parked-then-woken fiber is back in
      // the queue before the running count drops.
      running_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void finish(Fiber* f) {
    WorldRun* w = f->world_;
    std::lock_guard<std::mutex> lk(w->m);
    if (--w->remaining == 0) w->done_cv.notify_all();
    // `f` is dead after the world lock releases: run_world owns the
    // fibers and destroys them once remaining hits zero.
  }

  void unpark(Fiber* f) {
    const int prev =
        f->state_.exchange(Fiber::kNotified, std::memory_order_seq_cst);
    if (prev == Fiber::kParked) {
      requeue(f, /*yield=*/false);
    }
    // kParking: the worker's CAS fails and requeues; kNotified: a wakeup
    // is already pending.  kRunning is impossible — a fiber is only ever
    // in one WaitQueue registration at a time, and it stores kParking
    // before registering.
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lk(qm_);
      stop_ = true;
    }
    qcv_.notify_all();
    for (auto& t : workers_) t.join();
    workers_.clear();
  }
};

Fiber::Fiber(FiberPool::Impl* pool, WorldRun* world, int rank)
    : pool_(pool), world_(world), rank_(rank), stack_(pool->take_stack()) {
  make_context(ctx_, static_cast<char*>(stack_) + page_size(),
               stack_map_bytes() - page_size(), this);
}

Fiber::~Fiber() { pool_->give_stack(stack_); }

namespace {

void fiber_main(Fiber* f) {
  try {
    (*f->world_->body)(f->rank_);
  } catch (...) {
    // Rank bodies normally handle their own failures (World::run's
    // per-rank catch blocks); anything escaping is surfaced to the
    // run_world caller instead of terminating.
    std::lock_guard<std::mutex> lk(f->world_->m);
    if (!f->world_->first_error) {
      f->world_->first_error = std::current_exception();
    }
  }
  f->done_ = true;
  f->switch_out();
  std::abort();  // a done fiber is never resumed
}

}  // namespace

FiberPool::FiberPool() : impl_(std::make_unique<Impl>()) {}

FiberPool::~FiberPool() { impl_->stop_workers(); }

FiberPool& FiberPool::instance() {
  static FiberPool pool;
  return pool;
}

int FiberPool::workers() {
  impl_->ensure_workers();
  return impl_->nworkers_;
}

int FiberPool::active() {
  std::lock_guard<std::mutex> lk(impl_->qm_);
  return static_cast<int>(impl_->ready_.size()) +
         impl_->running_.load(std::memory_order_relaxed);
}

void FiberPool::run_world(int nranks, const std::function<void(int)>& body,
                          const std::function<double(int)>& vtime) {
  if (tls_fiber != nullptr) {
    throw std::logic_error("sched: run_world called from inside a fiber");
  }
  if (nranks <= 0) return;
  impl_->ensure_workers();

  WorldRun world;
  world.body = &body;
  world.vtime = vtime;
  world.remaining = nranks;

  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    fibers.push_back(std::make_unique<Fiber>(impl_.get(), &world, r));
  }
  {
    std::lock_guard<std::mutex> lk(impl_->qm_);
    for (auto& f : fibers) {
      impl_->push_locked(f.get(), world.vtime(f->rank()));
    }
  }
  impl_->qcv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(world.m);
    world.done_cv.wait(lk, [&] { return world.remaining == 0; });
  }
  fibers.clear();
  if (world.first_error) std::rethrow_exception(world.first_error);
}

void maybe_yield() noexcept {
  Fiber* f = tls_fiber;
  if (f == nullptr) return;
  f->yield_ = true;
  f->switch_out();
}

void backoff_sleep(double ms) {
  if (ms <= 0.0) return;
  if (tls_fiber == nullptr) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    return;
  }
  // On a fiber, host-sleeping would take the pool worker down with us and
  // starve every other fiber queued on it.  Yield-loop instead: each pass
  // requeues this fiber behind all runnable work, so the pool stays busy
  // while we wait out the backoff.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(ms));
  while (std::chrono::steady_clock::now() < deadline) maybe_yield();
}

// ---- WaitQueue --------------------------------------------------------------

void WaitQueue::wait(std::unique_lock<std::mutex>& lk) {
  Fiber* f = tls_fiber;
  if (f == nullptr) {
    cv_.wait(lk);
    return;
  }
  // Order matters: kParking must be stored before the fiber is visible to
  // notifiers, or an unpark's kNotified could be overwritten (lost).
  f->state_.store(Fiber::kParking, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> ql(wm_);
    fiber_waiters_.push_back(f);
    nfibers_.fetch_add(1, std::memory_order_seq_cst);
  }
  // Registration happened while still holding the caller's mutex, so any
  // notifier that acquires (or empty-acquires) that mutex afterwards is
  // guaranteed to find this fiber in the queue — the cv's no-lost-wakeup
  // guarantee, reconstructed.
  lk.unlock();
  f->switch_out();
  lk.lock();
}

void WaitQueue::notify_all() {
  cv_.notify_all();
  if (nfibers_.load(std::memory_order_seq_cst) == 0) return;
  std::vector<Fiber*> wake;
  {
    std::lock_guard<std::mutex> ql(wm_);
    wake.swap(fiber_waiters_);
    nfibers_.store(0, std::memory_order_seq_cst);
  }
  for (Fiber* f : wake) f->pool_->unpark(f);
}

}  // namespace ombx::sched
