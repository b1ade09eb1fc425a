#include "mpi/engine.hpp"

#include <algorithm>
#include <cstring>

#include "explore/explore.hpp"
#include "mpi/error.hpp"

namespace ombx::mpi {

Engine::Engine(net::NetworkModel model, int nranks, PayloadMode payload,
               net::ThreadLevel thread_level, std::size_t mailbox_capacity)
    : model_(std::move(model)),
      payload_(payload),
      thread_level_(thread_level),
      registry_(nranks) {
  OMBX_REQUIRE(nranks > 0, "world must contain at least one rank");
  OMBX_REQUIRE(nranks <= model_.mapper().max_ranks(),
               "world does not fit on the cluster at this ppn");
  ranks_.reserve(static_cast<std::size_t>(nranks));
  mail_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    ranks_.push_back(std::make_unique<RankState>());
    mail_.push_back(
        std::make_unique<Mailbox>(mailbox_capacity, &registry_, r));
  }
  oversub_ = model_.oversubscription_factor(thread_level_);
}

double Engine::shm_slowdown(int src_world, int dst_world,
                            net::MemSpace space) const {
  if (oversub_ == 1.0) return 1.0;
  return shm_slowdown(model_.link_class(src_world, dst_world, space));
}

double Engine::shm_slowdown(net::LinkClass link) const {
  if (oversub_ == 1.0) return 1.0;
  switch (link) {
    case net::LinkClass::kSelf:
    case net::LinkClass::kIntraSocket:
    case net::LinkClass::kInterSocket:
      return oversub_;
    default:
      return 1.0;
  }
}

RankState& Engine::state(int world_rank) {
  OMBX_REQUIRE(world_rank >= 0 && world_rank < nranks(),
               "world rank out of range");
  return *ranks_[static_cast<std::size_t>(world_rank)];
}

void Engine::check_failures(int world_rank) {
  if (aborted_.load(std::memory_order_acquire)) {
    std::shared_ptr<const fault::AbortInfo> info;
    {
      std::lock_guard<std::mutex> lk(abort_mutex_);
      info = abort_;
    }
    if (info) throw_aborted(*info);
  }
  if (fault_) {
    if (const auto t = fault_->kill_time(world_rank)) {
      if (state(world_rank).clock.now() >= *t) {
        fault_->counters().kills.fetch_add(1, std::memory_order_relaxed);
        throw RankKilledError(world_rank, *t);
      }
    }
  }
}

std::shared_ptr<SyncCell> Engine::post_send(int src_world, int dst_world,
                                            int ctx, int src_comm_rank,
                                            int tag, ConstView v,
                                            bool force_payload,
                                            SendBuffering buffering) {
  OMBX_REQUIRE_AT(dst_world >= 0 && dst_world < nranks(),
                  "send destination out of range", src_world, ctx);
  check_failures(src_world);
  RankState& st = state(src_world);

  // FT mode: a send to a rank whose scheduled kill time is already past
  // raises ProcFailedError instead of enqueueing into a corpse's mailbox.
  // The check reads only the static plan and the sender's own clock, so
  // it is deterministic; a send that beats the kill in virtual time is
  // enqueued normally (residue excused at the finalize audit).
  if (ft_ && fault_ && src_world != dst_world) {
    if (const auto t_kill = fault_->kill_time(dst_world)) {
      if (st.clock.now() >= *t_kill) {
        ft_observe_interrupt(src_world, *t_kill, /*proc_failed=*/true);
        throw ft::ProcFailedError(dst_world, *t_kill, src_world, ctx);
      }
    }
  }

  Message msg;
  msg.context = ctx;
  msg.src = src_comm_rank;
  msg.src_world = src_world;
  msg.tag = tag;
  msg.bytes = v.bytes;
  msg.space = v.space;

  // Resolve the link class once; every cost query below reuses it.
  const net::LinkClass link = model_.link_class(src_world, dst_world, v.space);

  // Self-sends are always eager (a blocking rendezvous send to self could
  // never complete — same rule real MPI follows for its self channel).
  msg.protocol = (src_world == dst_world)
                     ? net::Protocol::kEager
                     : model_.protocol(link, v.bytes);

  const bool eager = msg.protocol == net::Protocol::kEager;
  // Zero-copy rendezvous: the sender keeps `v` alive until the cell
  // completes, so the receiver reads it in place (set on the cell below).
  bool zero_copy = false;
  if ((payload_ == PayloadMode::kReal || force_payload) &&
      v.data != nullptr && v.bytes > 0) {
    if (eager || buffering == SendBuffering::kBuffered) {
      msg.payload = pool_.acquire_copy(v.data, v.bytes);
    } else {
      zero_copy = true;
    }
  }

  // Fault injection: decisions are drawn on the sender thread from the
  // plan's seeded per-pair stream, so the schedule is deterministic.
  // Corruption is recorded on the message and applied into the receive
  // buffer at delivery — the flip happens identically whether the bytes
  // travel pooled, zero-copy, or not at all (synthetic mode).
  fault::MessageFaults injected;
  if (fault_ && src_world != dst_world) {
    injected = fault_->draw_message(src_world, dst_world, v.bytes, eager);
    msg.corrupt = injected.corrupt;
    msg.corrupt_offset = injected.corrupt_offset;
    if (injected.lost) {
      // Retry budget exhausted under DropSpec::fail_on_exhaustion: the
      // sender burned the full retransmission window learning the link is
      // dead, then unwinds.  The charge keeps the failure priced (and
      // deterministic) in virtual time; nothing was enqueued, so no
      // receiver-side state needs cleanup.
      st.clock.advance(static_cast<usec_t>(injected.retransmits) *
                       fault_->config().drop.retransmit_timeout_us);
      throw MessageLostError(src_world, dst_world, injected.retransmits,
                             tag);
    }
  }
  const double straggle =
      fault_ ? fault_->straggler_factor(src_world) : 1.0;

  // The THREAD_MULTIPLE memcpy penalty only bites on the segmented copies
  // of large (rendezvous) messages; eager sends are latency-bound and the
  // paper sees full-subscription degradation at large sizes only.
  std::shared_ptr<SyncCell> cell;
  if (eager) {
    auto& memo = st.eager_prices;
    if (!memo.valid || memo.link != link || memo.bytes != v.bytes) {
      memo.link = link;
      memo.bytes = v.bytes;
      memo.transfer = model_.transfer_us(link, v.bytes);
      memo.busy = model_.sender_busy_us(link, v.bytes);
      memo.gap = model_.nic_gap_us(link, v.bytes);
      memo.valid = true;
    }
    const usec_t inject = std::max(st.clock.now(), st.nic_free);
    usec_t transfer = memo.transfer;
    if (fault_) {
      if (fault_->degrades(link, inject)) {
        transfer = model_.perturbed_transfer_us(
            link, v.bytes, fault_->alpha_factor(link, inject),
            fault_->beta_factor(link, inject));
        fault_->counters().degraded_messages.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    msg.send_time = inject;
    // Each dropped attempt costs one retransmit timeout before the copy
    // that finally lands; the NIC stays busy re-injecting, but the CPU
    // moved on after the first injection (eager fire-and-forget, with the
    // library's progress engine doing the retries).
    const int re = injected.retransmits;
    const usec_t retry_delay =
        re > 0 ? static_cast<usec_t>(re) *
                     fault_->config().drop.retransmit_timeout_us
               : 0.0;
    msg.arrival_time = inject + retry_delay + transfer;
    st.nic_free = inject + retry_delay + memo.gap;
    st.clock.advance_to(inject + straggle * memo.busy);
  } else {
    msg.send_time = st.clock.now();
    // Receiver recomputes wire time from the model; stash nothing extra.
    cell = std::make_shared<SyncCell>();
    cell->ctx = ctx;
    cell->peer = dst_world;
    cell->tag = tag;
    if (zero_copy) {
      cell->src = v;
      cell->pool = &pool_;
    }
    msg.sync = cell;
    {
      std::lock_guard<std::mutex> lk(cells_mutex_);
      // Prune completed/abandoned cells opportunistically so the registry
      // stays O(in-flight), then track this one for abort poisoning.
      std::erase_if(pending_cells_,
                    [](const std::weak_ptr<SyncCell>& w) {
                      return w.expired();
                    });
      pending_cells_.push_back(cell);
    }
    // An abort whose poison sweep ran before the registration above would
    // miss this cell; poison it ourselves so the sender's await (which
    // relies solely on cell state, never an early failure check — see
    // await_cell) is guaranteed to wake.
    if (aborted_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(abort_mutex_);
      if (abort_) cell->poison(abort_);
    }
    // Same handshake for FT marks: a peer death or exit mark published
    // before the registration above was swept while this cell did not yet
    // exist, so no future sweep will reach it — interrupt it ourselves.
    // Without this, a sender racing a peer's revoke/shrink parks on the
    // cell forever while the survivors wait for it in recovery.
    if (ft_) {
      if (const auto it = ft_->sender_interrupt(ctx, dst_world)) {
        cell->ft_interrupt(it->proc_failed, it->failed_rank, it->at_time_us);
      }
    }
  }

  if (metrics_) {
    obs::RankCounters& c = metrics_->rank(src_world);
    if (src_world == dst_world) {
      obs::bump(c.self_msgs);
      obs::bump(c.self_bytes, v.bytes);
    } else if (eager) {
      obs::bump(c.eager_msgs);
      obs::bump(c.eager_bytes, v.bytes);
    } else {
      obs::bump(c.rendezvous_msgs);
      obs::bump(c.rendezvous_bytes, v.bytes);
    }
    if (!msg.payload.empty()) {
      // Storage tier is a pure function of size (see PayloadPool), so the
      // split is deterministic even though freelist hits are not.
      auto& tier = msg.payload.is_inline()
                       ? c.payload_inline
                       : msg.payload.is_pooled() ? c.payload_pooled
                                                 : c.payload_heap;
      obs::bump(tier);
    }
    if (injected.retransmits > 0) {
      obs::bump(c.retransmits,
                static_cast<std::uint64_t>(injected.retransmits));
    }
  }
  if (tracer_) {
    tracer_->record(TraceEvent{.rank = src_world,
                               .kind = TraceKind::kSend,
                               .t_start = msg.send_time,
                               .t_end = st.clock.now(),
                               .peer = dst_world,
                               .bytes = v.bytes,
                               .tag = tag,
                               .attr = src_world == dst_world
                                           ? "self"
                                           : eager ? "eager" : "rendezvous"});
  }
  mail_[static_cast<std::size_t>(dst_world)]->enqueue(std::move(msg));
  return cell;
}

Status Engine::recv(int self_world, int ctx, int src_comm_rank, int tag,
                    MutView v) {
  check_failures(self_world);
  RankState& st = state(self_world);
  const usec_t recv_posted = st.clock.now();
  if (metrics_) {
    obs::bump(metrics_->rank(self_world).recvs_posted);
  }
  Message msg;
  try {
    msg = mail_[static_cast<std::size_t>(self_world)]->dequeue_match(
        ctx, src_comm_rank, tag);
  } catch (const ft::ProcFailedError& e) {
    ft_observe_interrupt(self_world, e.at_time_us(), /*proc_failed=*/true);
    throw;
  } catch (const ft::RevokedError& e) {
    ft_observe_interrupt(self_world, e.at_time_us(), /*proc_failed=*/false);
    throw;
  }
  OMBX_REQUIRE_AT(msg.bytes <= v.bytes,
                  "receive buffer too small (message truncated)", self_world,
                  ctx);

  usec_t rendezvous_complete = 0.0;
  if (msg.protocol == net::Protocol::kEager) {
    st.clock.advance_to(msg.arrival_time);
  } else {
    // Rendezvous: the transfer cannot start until both sides are ready and
    // the RTS/CTS handshake has completed.
    const net::LinkClass link =
        model_.link_class(msg.src_world, self_world, msg.space);
    const usec_t start = std::max(msg.send_time, st.clock.now()) +
                         model_.tuning().rendezvous_handshake_us;
    usec_t raw_wire = model_.transfer_us(link, msg.bytes);
    if (fault_) {
      if (fault_->degrades(link, start)) {
        raw_wire = model_.perturbed_transfer_us(
            link, msg.bytes, fault_->alpha_factor(link, start),
            fault_->beta_factor(link, start));
        fault_->counters().degraded_messages.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    const usec_t wire = raw_wire * shm_slowdown(link);
    const usec_t complete = start + wire;
    st.clock.advance_to(complete);
    rendezvous_complete = complete;
  }

  // Copy out whatever physically travelled (control-plane messages carry
  // payload even in synthetic mode).  This MUST precede the SyncCell
  // completion below: a zero-copy source is only pinned while the cell
  // is incomplete.
  if (v.data != nullptr) {
    if (msg.zero_copy()) {
      // Claim the transfer so the sender cannot let go of the buffer
      // mid-copy; a failed claim means the cell is already poisoned and
      // the buffer may be gone — skip the bytes, the abort surfaces at
      // this rank's next substrate call.
      const std::byte* from = msg.sync->begin_transfer();
      const bool claimed = from != nullptr;
      if (oracle_ != nullptr) {
        oracle_->record_claim(self_world, ctx, claimed);
        if (metrics_) {
          obs::bump(metrics_->rank(self_world).sched_rendezvous_claims);
        }
      }
      if (claimed) {
        std::memcpy(v.data, from, msg.bytes);
      } else if (checker_ && !aborted_.load(std::memory_order_acquire)) {
        // A failed claim with no abort pending means the sender's buffer
        // was reclaimed while this receive still expected to read it —
        // an internal transport invariant the checker makes visible.
        checker_->report_noexcept(check::Violation{
            check::Code::kPayloadClaim, self_world, ctx, "recv",
            "zero-copy source buffer from rank " +
                std::to_string(msg.src_world) +
                " was reclaimed before delivery"});
      }
    } else if (!msg.payload.empty()) {
      std::memcpy(v.data, msg.payload.data(), msg.payload.size());
    }
    if (msg.corrupt && msg.carries_data() && msg.bytes > 0) {
      v.data[msg.corrupt_offset % msg.bytes] ^= std::byte{0xff};
    }
  }
  if (msg.sync) msg.sync->complete(rendezvous_complete);

  if (tracer_) {
    tracer_->record(TraceEvent{.rank = self_world,
                               .kind = TraceKind::kRecv,
                               .t_start = recv_posted,
                               .t_end = st.clock.now(),
                               .peer = msg.src_world,
                               .bytes = msg.bytes,
                               .tag = msg.tag,
                               .attr = msg.src_world == self_world
                                           ? "self"
                                           : msg.protocol ==
                                                     net::Protocol::kEager
                                                 ? "eager"
                                                 : "rendezvous"});
  }
  return Status{.source = msg.src, .tag = msg.tag, .bytes = msg.bytes};
}

void Engine::await_cell(int world_rank, SyncCell& cell) {
  // Deliberately no check_failures() here: a zero-copy sender must not
  // unwind (freeing the buffer the receiver reads) on the abort flag alone
  // — only once its cell is poisoned and unclaimed, which post_send's
  // registration handshake guarantees happens on every abort.  Kills are
  // clock-driven and the clock has not moved since the caller's own entry
  // check, so nothing is lost by deferring them to the next operation.
  if (metrics_) {
    obs::bump(metrics_->rank(world_rank).rendezvous_waits);
  }
  usec_t t;
  {
    fault::ScopedWait wait(
        &registry_, world_rank,
        fault::WaitInfo{fault::WaitKind::kRendezvous, cell.ctx, cell.peer,
                        cell.tag});
    try {
      t = cell.await();
    } catch (const AbortedError&) {
      if (metrics_) {
        obs::bump(metrics_->rank(world_rank).poisoned_waits);
      }
      throw;
    } catch (const ft::ProcFailedError& e) {
      ft_observe_interrupt(world_rank, e.at_time_us(), /*proc_failed=*/true);
      throw;
    } catch (const ft::RevokedError& e) {
      ft_observe_interrupt(world_rank, e.at_time_us(), /*proc_failed=*/false);
      throw;
    }
  }
  state(world_rank).clock.advance_to(t);
}

Status Engine::probe(int self_world, int ctx, int src, int tag) {
  check_failures(self_world);
  if (metrics_) {
    obs::bump(metrics_->rank(self_world).probes_posted);
  }
  try {
    return mail_[static_cast<std::size_t>(self_world)]->probe(ctx, src, tag);
  } catch (const ft::ProcFailedError& e) {
    ft_observe_interrupt(self_world, e.at_time_us(), /*proc_failed=*/true);
    throw;
  } catch (const ft::RevokedError& e) {
    ft_observe_interrupt(self_world, e.at_time_us(), /*proc_failed=*/false);
    throw;
  }
}

std::optional<Status> Engine::iprobe(int self_world, int ctx, int src,
                                     int tag) {
  check_failures(self_world);
  try {
    auto st = mail_[static_cast<std::size_t>(self_world)]->try_probe(ctx, src,
                                                                     tag);
    // A miss is the body of a user-level poll loop (`while (!iprobe())`,
    // `while (!req.test())`): on the fiber backend, yield the worker so
    // the peer this rank is polling for can run.  No-op on threads.
    if (!st) sched::maybe_yield();
    return st;
  } catch (const ft::ProcFailedError& e) {
    ft_observe_interrupt(self_world, e.at_time_us(), /*proc_failed=*/true);
    throw;
  } catch (const ft::RevokedError& e) {
    ft_observe_interrupt(self_world, e.at_time_us(), /*proc_failed=*/false);
    throw;
  }
}

void Engine::abort(int origin_rank, const std::string& reason,
                   bool deadlock) {
  std::shared_ptr<const fault::AbortInfo> info;
  {
    std::lock_guard<std::mutex> lk(abort_mutex_);
    if (abort_) return;  // first abort wins
    abort_ = std::make_shared<const fault::AbortInfo>(
        fault::AbortInfo{origin_rank, reason, deadlock});
    info = abort_;
  }
  aborted_.store(true, std::memory_order_release);
  // Requests and CollRequests destroyed while ranks unwind from this
  // abort are casualties of it, not independent leaks.
  if (checker_) checker_->suppress_leaks();
  if (fault_) {
    fault_->counters().aborts.fetch_add(1, std::memory_order_relaxed);
    if (deadlock) {
      fault_->counters().watchdog_fires.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
  }
  for (auto& mb : mail_) mb->poison(info);
  // FT recovery barriers participate in the no-hang guarantee too.
  if (ft_) ft_->poison(info);
  std::lock_guard<std::mutex> lk(cells_mutex_);
  for (auto& w : pending_cells_) {
    if (auto cell = w.lock()) cell->poison(info);
  }
  pending_cells_.clear();
}

std::shared_ptr<const fault::AbortInfo> Engine::abort_info() const {
  std::lock_guard<std::mutex> lk(abort_mutex_);
  return abort_;
}

void Engine::set_fault_plan(std::shared_ptr<fault::FaultPlan> plan) {
  fault_ = std::move(plan);
}

void Engine::enable_ft(const ft::FtConfig& cfg) {
  if (ft_) return;
  ft_ = std::make_unique<ft::FailureState>(nranks(), cfg);
  ft_->set_wait_registry(&registry_);
  for (auto& mb : mail_) mb->set_failure_state(ft_.get());
}

void Engine::ft_register_comm(int ctx, const std::vector<int>& members) {
  if (ft_) ft_->register_comm(ctx, members);
}

void Engine::ft_observe_interrupt(int world_rank, usec_t event_time,
                                  bool proc_failed) {
  const ft::FtConfig& cfg = ft_->config();
  state(world_rank).clock.advance_to(
      event_time +
      (proc_failed ? cfg.detect_timeout_us : cfg.revoke_latency_us));
  if (proc_failed) {
    if (fault_) {
      fault_->counters().detections.fetch_add(1, std::memory_order_relaxed);
    }
    if (metrics_) {
      obs::bump(metrics_->rank(world_rank).ft_detections);
    }
  }
}

void Engine::mark_rank_failed(int world_rank, usec_t at_time_us) {
  if (!ft_) return;
  ft_->mark_dead(world_rank, at_time_us);
  // Wake every blocked wait (outside the failure-state mutex) so it can
  // re-evaluate against the new death mark, and interrupt rendezvous
  // senders parked on a cell the corpse will never receive.
  for (auto& mb : mail_) mb->ft_notify();
  std::lock_guard<std::mutex> lk(cells_mutex_);
  for (auto& w : pending_cells_) {
    if (auto cell = w.lock()) {
      if (cell->peer == world_rank) {
        cell->ft_interrupt(/*proc_failed=*/true, world_rank, at_time_us);
      }
    }
  }
}

void Engine::ft_wake_after_exit(int ctx, int world_rank, usec_t at_time_us) {
  for (auto& mb : mail_) mb->ft_notify();
  std::lock_guard<std::mutex> lk(cells_mutex_);
  for (auto& w : pending_cells_) {
    if (auto cell = w.lock()) {
      if (cell->ctx == ctx && cell->peer == world_rank) {
        cell->ft_interrupt(/*proc_failed=*/false, -1, at_time_us);
      }
    }
  }
}

bool Engine::ft_revoke(int ctx, int world_rank, usec_t at_time_us) {
  OMBX_REQUIRE_AT(ft_ != nullptr, "revoke() requires FT mode (WorldConfig::ft)",
                  world_rank, ctx);
  // A rank whose own kill time has passed must die here, not revoke: a
  // zombie that published an exit mark would race its (host-delayed)
  // death mark at every peer's wait predicate, making which error the
  // peer sees — and hence its recovery clock — host-timing dependent.
  check_failures(world_rank);
  const bool first = ft_->revoke(ctx, world_rank, at_time_us);
  if (first && fault_) {
    fault_->counters().revokes.fetch_add(1, std::memory_order_relaxed);
  }
  if (metrics_) {
    obs::bump(metrics_->rank(world_rank).ft_revokes);
  }
  // A revoked context's residue (messages the recovery abandoned) is
  // excused at the finalize audit.
  if (checker_) checker_->excuse_context(ctx);
  ft_wake_after_exit(ctx, world_rank, at_time_us);
  return first;
}

ft::ShrinkResult Engine::ft_shrink(int ctx, int world_rank, usec_t now) {
  OMBX_REQUIRE_AT(ft_ != nullptr, "shrink() requires FT mode (WorldConfig::ft)",
                  world_rank, ctx);
  check_failures(world_rank);
  // Entering shrink abandons the old context: exit-mark so peers still
  // blocked on us there unwind (revocation propagates along the wait-for
  // graph), and excuse the context's residue.
  ft_->mark_exit(ctx, world_rank, now);
  if (checker_) checker_->excuse_context(ctx);
  ft_wake_after_exit(ctx, world_rank, now);
  if (metrics_) {
    obs::bump(metrics_->rank(world_rank).ft_shrinks);
  }
  ft::ShrinkResult res;
  {
    fault::ScopedWait wait(
        &registry_, world_rank,
        fault::WaitInfo{fault::WaitKind::kRecovery, ctx, -1, -1});
    res = ft_->shrink(ctx, world_rank, now,
                      [this] { return allocate_context(); });
  }
  // Count each completed shrink once, deterministically: the lowest
  // survivor reports it.
  if (fault_ && !res.survivors.empty() && world_rank == res.survivors.front()) {
    fault_->counters().shrinks.fetch_add(1, std::memory_order_relaxed);
  }
  return res;
}

ft::AgreeResult Engine::ft_agree(int ctx, int world_rank, usec_t now,
                                 std::uint32_t bits) {
  OMBX_REQUIRE_AT(ft_ != nullptr, "agree() requires FT mode (WorldConfig::ft)",
                  world_rank, ctx);
  check_failures(world_rank);
  if (metrics_) {
    obs::bump(metrics_->rank(world_rank).ft_agreements);
  }
  ft::AgreeResult res;
  {
    fault::ScopedWait wait(
        &registry_, world_rank,
        fault::WaitInfo{fault::WaitKind::kRecovery, ctx, -1, -1});
    res = ft_->agree(ctx, world_rank, now, bits);
  }
  if (fault_ && world_rank == res.coordinator) {
    fault_->counters().agreements.fetch_add(1, std::memory_order_relaxed);
  }
  return res;
}

void Engine::reset_clocks() {
  for (auto& r : ranks_) {
    r->clock.reset();
    r->nic_free = 0.0;
    r->work.reset();
  }
  // Clear failure state so a World can run again after an aborted program.
  {
    std::lock_guard<std::mutex> lk(abort_mutex_);
    abort_.reset();
  }
  aborted_.store(false, std::memory_order_release);
  for (auto& mb : mail_) mb->reset();
  {
    std::lock_guard<std::mutex> lk(cells_mutex_);
    pending_cells_.clear();
  }
  registry_.reset();
  if (ft_) ft_->reset();  // Comm ctors re-register memberships on rerun
  if (tracer_) tracer_->clear();
  if (metrics_) metrics_->reset();
  if (checker_) checker_->reset();
}

void Engine::charge_flops(int world_rank, double flops) {
  check_failures(world_rank);
  RankState& st = state(world_rank);
  st.work.add_flops(flops);
  // The oversubscription penalty is a memory-bandwidth effect: small
  // (cache-resident) reductions are unaffected, long vectors pay it.
  const double penalty = flops > 4096.0 ? oversub_ : 1.0;
  const double straggle =
      fault_ ? fault_->straggler_factor(world_rank) : 1.0;
  const usec_t t0 = st.clock.now();
  st.clock.advance(model_.cluster().compute.flop_time(flops) * penalty *
                   straggle);
  if (tracer_) {
    tracer_->record(TraceEvent{.rank = world_rank,
                               .kind = TraceKind::kCompute,
                               .t_start = t0,
                               .t_end = st.clock.now(),
                               .peer = -1,
                               .bytes = 0,
                               .tag = -1,
                               .attr = {}});
  }
}

void Engine::charge_bytes(int world_rank, double bytes) {
  check_failures(world_rank);
  RankState& st = state(world_rank);
  st.work.add_bytes(bytes);
  const double straggle =
      fault_ ? fault_->straggler_factor(world_rank) : 1.0;
  const usec_t t0 = st.clock.now();
  st.clock.advance(model_.cluster().compute.byte_time(bytes) * oversub_ *
                   straggle);
  if (tracer_) {
    tracer_->record(TraceEvent{.rank = world_rank,
                               .kind = TraceKind::kCompute,
                               .t_start = t0,
                               .t_end = st.clock.now(),
                               .peer = -1,
                               .bytes = static_cast<std::size_t>(bytes),
                               .tag = -1,
                               .attr = {}});
  }
}

void Engine::enable_tracing() {
  if (!tracer_) tracer_ = std::make_unique<Tracer>(nranks());
}

void Engine::set_oracle(explore::ScheduleOracle* oracle) {
  oracle_ = oracle;
  for (auto& mb : mail_) mb->set_oracle(oracle);
}

void Engine::enable_metrics() {
  if (metrics_) return;
  metrics_ = std::make_unique<obs::Metrics>(nranks());
  for (int r = 0; r < nranks(); ++r) {
    mail_[static_cast<std::size_t>(r)]->set_counters(&metrics_->rank(r));
  }
}

void Engine::enable_checking(check::Mode mode) {
  if (!checker_) checker_ = std::make_unique<check::Checker>(nranks(), mode);
}

void Engine::run_check_audit() {
  if (!checker_) return;
  bool residue = false;
  for (int r = 0; r < nranks(); ++r) {
    for (const auto& p :
         mail_[static_cast<std::size_t>(r)]->pending_summary()) {
      residue = true;  // still excuses the pool-outstanding check below
      // ULFM recovery legitimately strands messages: sends onto a revoked
      // or shrink-abandoned context, and anything queued at a dead rank.
      if (checker_->context_excused(p.ctx)) continue;
      if (ft_ && ft_->is_dead(r)) continue;
      checker_->report_noexcept(check::Violation{
          check::Code::kUnmatchedSend, r, p.ctx, "finalize",
          std::to_string(p.count) + " unreceived message(s) from comm rank " +
              std::to_string(p.src) + " with tag " + std::to_string(p.tag)});
    }
  }
  checker_->audit_epochs();
  // Pool-level corroboration: with every mailbox empty, no pooled or heap
  // payload buffer should still be held by a message.  (Residue messages
  // legitimately hold theirs — already reported as unmatched sends.)
  if (const std::uint64_t held = pool_.outstanding();
      held > 0 && !residue) {
    checker_->report_noexcept(check::Violation{
        check::Code::kPayloadClaim, -1, -1, "finalize",
        std::to_string(held) +
            " payload buffer(s) still held outside any mailbox"});
  }
}

}  // namespace ombx::mpi
