// The message-passing engine: per-rank virtual clocks + mailboxes + the
// eager/rendezvous protocol state machine.
//
// Timing model (LogGP-flavoured, priced by net::NetworkModel):
//
//   eager send:    inject = max(clock, nic_free)
//                  sender clock   -> inject + sender_busy(bytes)
//                  sender nic_free-> inject + nic_gap(bytes)
//                  arrival at dst  = inject + transfer(bytes)
//                  recv completes  = max(recv clock, arrival)
//
//   rendezvous:    sender records send_time and blocks on a SyncCell;
//                  when the receiver matches:
//                  start    = max(send_time, recv clock) + handshake
//                  complete = start + transfer(bytes)
//                  both clocks advance to `complete` (synchronous send).
//
// All quantities are virtual microseconds; host thread scheduling cannot
// change any of them, which is what makes benchmark output deterministic.
//
// Failure propagation: abort() poisons every mailbox and pending
// rendezvous SyncCell so blocked peers wake with AbortedError instead of
// hanging (MPI_Abort semantics).  An attached fault::FaultPlan injects
// deterministic, seeded faults — eager-message drops priced as timeout +
// retransmit in virtual time, payload corruption, link-degradation
// windows, stragglers, and rank kills — without breaking determinism.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "check/checker.hpp"
#include "fault/fault.hpp"
#include "fault/watchdog.hpp"
#include "ft/ft.hpp"
#include "mpi/mailbox.hpp"
#include "mpi/message.hpp"
#include "mpi/trace.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "simtime/clock.hpp"
#include "simtime/work.hpp"

namespace ombx::mpi {

/// Whether messages physically carry their payload.  kSynthetic keeps all
/// virtual-time math identical but moves no bytes — required for at-scale
/// runs (e.g. 896-rank Allgather) whose aggregate buffers exceed host RAM.
enum class PayloadMode { kReal, kSynthetic };

/// What post_send may assume about the caller's buffer lifetime.
enum class SendBuffering {
  /// The caller leaves the buffer alive and unmodified until the send
  /// completes — blocking send until it returns, isend until wait(), which
  /// is MPI's own contract.  Rendezvous goes zero-copy: the receiver reads
  /// the sender's buffer directly and only then completes the cell.  A
  /// sender that lets go early (failed wait, Request dropped unwaited)
  /// goes through SyncCell::release_source, never a dangling read.
  kZeroCopy,
  /// The buffer dies or is rewritten before the send completes (internal
  /// staging: RMA wire messages, scan's running accumulator): rendezvous
  /// payloads are copied into pooled storage at post time.
  kBuffered,
};

/// Mutable per-rank simulation state.  Only the owning rank thread touches
/// its own state; cross-thread communication goes through mailboxes.
struct RankState {
  simtime::SimClock clock;
  usec_t nic_free = 0.0;  ///< when this rank's NIC can inject the next msg
  simtime::WorkCounter work;

  /// The eager cost triple for the last (link, bytes) this rank sent.
  /// All three are pure functions of the key and the immutable network
  /// model, so replaying the cached doubles is bit-identical to
  /// recomputing them — and benchmark loops (fixed size, fixed peer) hit
  /// the memo on every iteration, skipping the float pipeline entirely.
  struct EagerPrices {
    bool valid = false;
    net::LinkClass link{};
    std::size_t bytes = 0;
    usec_t transfer = 0.0;
    usec_t busy = 0.0;
    usec_t gap = 0.0;
  } eager_prices;
};

class Engine {
 public:
  Engine(net::NetworkModel model, int nranks, PayloadMode payload,
         net::ThreadLevel thread_level, std::size_t mailbox_capacity = 8192);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] int nranks() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] PayloadMode payload_mode() const noexcept { return payload_; }
  [[nodiscard]] const net::NetworkModel& net() const noexcept {
    return model_;
  }
  [[nodiscard]] net::ThreadLevel thread_level() const noexcept {
    return thread_level_;
  }

  /// Full-subscription THREAD_MULTIPLE slowdown multiplier for local work.
  [[nodiscard]] double oversub() const noexcept { return oversub_; }

  /// Slowdown applied to CPU-driven (shared-memory) transfers between this
  /// pair: under THREAD_MULTIPLE on a saturated node the library's progress
  /// threads steal cycles from the memcpy loops (the paper's explanation
  /// for the full-subscription degradation).  1.0 on fabric links and in
  /// THREAD_SINGLE mode.
  [[nodiscard]] double shm_slowdown(int src_world, int dst_world,
                                    net::MemSpace space) const;
  /// Same, with the link class already resolved (per-message hot path).
  [[nodiscard]] double shm_slowdown(net::LinkClass link) const;

  [[nodiscard]] RankState& state(int world_rank);

  /// Post a message.  Returns the rendezvous SyncCell when the protocol is
  /// rendezvous (caller decides whether to block now — blocking send — or
  /// at MPI_Wait — isend); returns nullptr for eager sends.
  ///
  /// `src_comm_rank` is the sender's rank *within the communicator* (the
  /// matching key receivers use); `src_world`/`dst_world` address physical
  /// ranks for routing and cost lookup.
  ///
  /// `force_payload` makes the bytes travel even in PayloadMode::kSynthetic
  /// — used by control-plane traffic (communicator management) whose
  /// *content* the receiver genuinely needs.
  ///
  /// `buffering` says whether `v` outlives the send (see SendBuffering);
  /// callers that reuse or free `v` before the cell completes must pass
  /// kBuffered.
  std::shared_ptr<SyncCell> post_send(int src_world, int dst_world, int ctx,
                                      int src_comm_rank, int tag,
                                      ConstView v,
                                      bool force_payload = false,
                                      SendBuffering buffering =
                                          SendBuffering::kZeroCopy);

  /// Blocking receive into `v`; returns completion Status.
  Status recv(int self_world, int ctx, int src_comm_rank, int tag, MutView v);

  /// Block on a rendezvous cell posted by `world_rank`, registering the
  /// wait with the watchdog; advances the rank's clock on completion.
  /// Throws AbortedError when the cell is poisoned by an abort.
  void await_cell(int world_rank, SyncCell& cell);

  /// Blocking probe (does not dequeue).  Charges no virtual time.
  [[nodiscard]] Status probe(int self_world, int ctx, int src, int tag);

  /// Non-blocking probe.
  [[nodiscard]] std::optional<Status> iprobe(int self_world, int ctx, int src,
                                             int tag);

  /// Allocate a fresh communicator context id (globally unique).
  [[nodiscard]] int allocate_context() noexcept {
    return next_context_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Reset all clocks/NIC state between benchmark repetitions.  Also
  /// clears any abort poison and re-arms the watchdog registry, so a
  /// World can run again after a failed program.
  void reset_clocks();

  /// Charge local compute to a rank's clock (priced flops, with the
  /// THREAD_MULTIPLE oversubscription factor applied).
  void charge_flops(int world_rank, double flops);
  /// Charge streaming byte work (copies, serialization) likewise.
  void charge_bytes(int world_rank, double bytes);

  // ---- Failure propagation -------------------------------------------------

  /// MPI_Abort analogue: records the first abort (origin rank + reason)
  /// and poisons every mailbox and pending rendezvous cell, so all blocked
  /// ranks wake with AbortedError.  Idempotent; later calls are ignored.
  void abort(int origin_rank, const std::string& reason,
             bool deadlock = false);

  /// Abort descriptor, null while no abort has been raised.
  [[nodiscard]] std::shared_ptr<const fault::AbortInfo> abort_info() const;

  /// Attach a fault-injection plan (null to detach).  The plan must
  /// outlive all runs that use it.
  void set_fault_plan(std::shared_ptr<fault::FaultPlan> plan);
  [[nodiscard]] fault::FaultPlan* fault_plan() const noexcept {
    return fault_.get();
  }

  /// Blocked-wait bookkeeping consumed by the deadlock watchdog.
  [[nodiscard]] fault::WaitRegistry& wait_registry() noexcept {
    return registry_;
  }

  // ---- ULFM fault tolerance (ft/ft.hpp) -----------------------------------

  /// Turn on ULFM-style fault tolerance: a fault-plan kill dead-marks the
  /// rank instead of aborting the world, operations involving it raise
  /// ft::ProcFailedError at the caller, and Comm gains revoke / shrink /
  /// agree.  Off (null failure_state) by default — the disabled path is
  /// byte-identical to a build without this subsystem.
  void enable_ft(const ft::FtConfig& cfg);
  [[nodiscard]] ft::FailureState* failure_state() noexcept {
    return ft_.get();
  }

  /// Record a communicator's membership for failure scoping (no-op when
  /// FT is disabled).  Every Comm constructor calls it; first rank wins.
  void ft_register_comm(int ctx, const std::vector<int>& members);

  /// FT mode: dead-mark a killed rank, wake every blocked wait so it can
  /// re-evaluate, and interrupt rendezvous cells waiting on the corpse.
  /// Called by World::run when a rank's RankKilledError surfaces.
  void mark_rank_failed(int world_rank, usec_t at_time_us);

  /// Comm::revoke backend: revoke `ctx` (first call wins), exit-mark the
  /// caller, excuse the context with the checker, and wake waiters.
  /// Returns true for the initiating call.
  bool ft_revoke(int ctx, int world_rank, usec_t at_time_us);

  /// Comm::shrink backend: exit-mark the caller on the old context and
  /// block in the survivor barrier (arrived-or-dead completion rule).
  ft::ShrinkResult ft_shrink(int ctx, int world_rank, usec_t now);

  /// Comm::agree backend: fault-tolerant bitmask agreement.
  ft::AgreeResult ft_agree(int ctx, int world_rank, usec_t now,
                           std::uint32_t bits);

  /// Turn on event tracing (records every send/recv/compute with virtual
  /// timestamps; see trace.hpp).  Traces are cleared by reset_clocks().
  void enable_tracing();
  [[nodiscard]] Tracer* tracer() noexcept { return tracer_.get(); }

  /// Attach a scheduling oracle (explore/explore.hpp) to every mailbox
  /// and to the rendezvous-claim path; null detaches.  NOT cleared by
  /// reset_clocks(): one oracle observes every run a driver executes, and
  /// exploration re-arms it per schedule.
  void set_oracle(explore::ScheduleOracle* oracle);
  [[nodiscard]] explore::ScheduleOracle* oracle() const noexcept {
    return oracle_;
  }

  /// Turn on per-rank metrics counters (obs/metrics.hpp).  Counting never
  /// touches virtual clocks — benchmark outputs are byte-identical with
  /// metrics on or off.  Counters are re-zeroed by reset_clocks().
  void enable_metrics();
  [[nodiscard]] obs::Metrics* metrics() noexcept { return metrics_.get(); }

  /// Turn on the dynamic MPI-usage verifier (check/checker.hpp).  Like
  /// tracing and metrics, checking never touches virtual clocks: results
  /// are byte-identical with the checker on (and violation-free) or off.
  void enable_checking(check::Mode mode);
  [[nodiscard]] check::Checker* checker() noexcept { return checker_.get(); }

  /// Finalize audit (checker enabled only): report unreceived mailbox
  /// residue, incomplete collective epochs and payload buffers still held
  /// by undelivered messages.  Called by World::run after a clean join.
  void run_check_audit();

  /// Recycled payload storage for eager and buffered-rendezvous messages
  /// and detached zero-copy sources (exposed for hostbench and the pool
  /// tests).
  [[nodiscard]] PayloadPool& payload_pool() noexcept { return pool_; }

  /// Lock-free mailbox hits and fallbacks.  The mailbox has one locked
  /// path, so both are always zero; kept so that tools reading them
  /// (hostbench) keep compiling.
  struct FastPathTotals {
    std::uint64_t fast_hits = 0;
    std::uint64_t fast_fallbacks = 0;
  };
  [[nodiscard]] FastPathTotals fast_path_totals() const noexcept { return {}; }

 private:
  /// Throws AbortedError when an abort is pending and RankKilledError when
  /// the fault plan scheduled this rank's death before its current virtual
  /// time.  Called at the top of every substrate operation.
  void check_failures(int world_rank);

  /// Bookkeeping for an FT interruption raised at one of this rank's call
  /// sites: advance the clock past the event by the detection/revocation
  /// latency and bump the plan + metrics counters.
  void ft_observe_interrupt(int world_rank, usec_t event_time,
                            bool proc_failed);
  /// Wake blocked waits and interrupt cells targeting `world_rank` on
  /// `ctx` after an exit mark (revoke()/shrink() entry).
  void ft_wake_after_exit(int ctx, int world_rank, usec_t at_time_us);

  net::NetworkModel model_;
  PayloadMode payload_;
  net::ThreadLevel thread_level_;
  double oversub_ = 1.0;
  fault::WaitRegistry registry_;
  // pool_ must outlive mail_: destroying a mailbox destroys its queued
  // messages, whose payload handles recycle buffers into the pool.
  PayloadPool pool_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::vector<std::unique_ptr<Mailbox>> mail_;
  std::atomic<int> next_context_{1};  // 0 is COMM_WORLD
  std::unique_ptr<Tracer> tracer_;    // null unless tracing is enabled
  std::unique_ptr<obs::Metrics> metrics_;  // null unless metrics enabled
  std::unique_ptr<check::Checker> checker_;  // null unless checking enabled

  std::shared_ptr<fault::FaultPlan> fault_;
  std::unique_ptr<ft::FailureState> ft_;  // null unless FT is enabled
  explore::ScheduleOracle* oracle_ = nullptr;  // null unless exploring
  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mutex_;
  std::shared_ptr<const fault::AbortInfo> abort_;
  std::mutex cells_mutex_;
  std::vector<std::weak_ptr<SyncCell>> pending_cells_;
};

}  // namespace ombx::mpi
