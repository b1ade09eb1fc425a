#include "mpi/mailbox.hpp"

#include <algorithm>
#include <tuple>

#include "explore/explore.hpp"
#include "mpi/error.hpp"

namespace ombx::mpi {

void Mailbox::throw_poisoned_locked() {
  auto info = *poison_;
  throw_aborted(info);
}

std::uint64_t Mailbox::hash_key(int ctx, int src, int tag) noexcept {
  // SplitMix64-style finalizer over the packed triple.  Collisions are
  // resolved by comparing the bin's actual key during probing.
  std::uint64_t k = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         ctx)) << 32) |
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        src));
  k ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)) *
       0x9e3779b97f4a7c15ULL;
  k ^= k >> 30;
  k *= 0xbf58476d1ce4e5b9ULL;
  k ^= k >> 27;
  k *= 0x94d049bb133111ebULL;
  k ^= k >> 31;
  return k;
}

Mailbox::Bin* Mailbox::find_bin(int ctx, int src, int tag) const noexcept {
  if (mru_ != nullptr && mru_->ctx == ctx && mru_->src == src &&
      mru_->tag == tag) {
    return mru_;
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t i = hash_key(ctx, src, tag) & mask;
  while (Bin* b = table_[i]) {
    if (b->ctx == ctx && b->src == src && b->tag == tag) {
      mru_ = b;
      return b;
    }
    i = (i + 1) & mask;
  }
  return nullptr;
}

void Mailbox::rehash(std::size_t new_slots) {
  table_.assign(new_slots, nullptr);
  const std::size_t mask = new_slots - 1;
  for (Bin& b : bins_) {
    std::size_t i = hash_key(b.ctx, b.src, b.tag) & mask;
    while (table_[i] != nullptr) i = (i + 1) & mask;
    table_[i] = &b;
  }
}

Mailbox::Bin& Mailbox::obtain_bin(int ctx, int src, int tag) {
  if (Bin* b = find_bin(ctx, src, tag)) return *b;
  if ((bins_.size() + 1) * 2 > table_.size()) rehash(table_.size() * 2);
  bins_.push_back(Bin{ctx, src, tag, 0, {}});
  Bin& b = bins_.back();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = hash_key(ctx, src, tag) & mask;
  while (table_[i] != nullptr) i = (i + 1) & mask;
  table_[i] = &b;
  mru_ = &b;
  return b;
}

Mailbox::Bin* Mailbox::find_match(int ctx, int src, int tag) const noexcept {
  if (src != kAnySource && tag != kAnyTag) {
    Bin* b = find_bin(ctx, src, tag);
    return (b != nullptr && !b->q.empty()) ? b : nullptr;
  }
  // Wildcard: earliest arrival among candidate bin heads.  All messages
  // in a bin share its key, so a bin either fully matches the pattern or
  // not at all, and the earliest match in a matching bin is its front.
  Bin* best = nullptr;
  std::uint64_t best_seq = 0;
  for (const Bin& b : bins_) {
    if (b.q.empty() || b.ctx != ctx) continue;
    if (src != kAnySource && b.src != src) continue;
    if (tag != kAnyTag && b.tag != tag) continue;
    const std::uint64_t s = b.front_seq;  // head mirror: no deque deref
    if (best == nullptr || s < best_seq) {
      best = const_cast<Bin*>(&b);
      best_seq = s;
    }
  }
  return best;
}

void Mailbox::collect_candidates(int ctx, int src, int tag,
                                 std::vector<explore::Candidate>& out) const {
  for (const Bin& b : bins_) {
    if (b.q.empty() || b.ctx != ctx) continue;
    if (src != kAnySource && b.src != src) continue;
    if (tag != kAnyTag && b.tag != tag) continue;
    out.push_back(explore::Candidate{b.src, b.tag, b.front_seq});
  }
  std::sort(out.begin(), out.end(),
            [](const explore::Candidate& a, const explore::Candidate& b) {
              return a.seq < b.seq;
            });
}

Mailbox::Bin* Mailbox::match_for(int ctx, int src, int tag) {
  if (oracle_ == nullptr || (src != kAnySource && tag != kAnyTag)) {
    return find_match(ctx, src, tag);
  }
  if (const explore::Pin* pin = oracle_->peek_pin(owner_)) {
    const bool compatible = (src == kAnySource || src == pin->src) &&
                            (tag == kAnyTag || tag == pin->tag);
    if (compatible) {
      // Forced choice: wait for the pinned bin even when other candidates
      // are already queued (the recorded run observed this one first).
      Bin* b = find_bin(ctx, pin->src, pin->tag);
      return (b != nullptr && !b->q.empty()) ? b : nullptr;
    }
    // The pin was recorded under a different receive pattern: the prefix
    // has diverged.  Fall back to the default; the stale pin is skipped
    // (and flagged) at the next decision.
    oracle_->mark_divergence();
    return find_match(ctx, src, tag);
  }
  Bin* b = find_match(ctx, src, tag);
  if (b != nullptr && oracle_->randomize()) {
    std::vector<explore::Candidate> cands;
    collect_candidates(ctx, src, tag, cands);
    if (cands.size() > 1) {
      const explore::Candidate& pick =
          cands[oracle_->fuzz_pick(owner_, cands.size())];
      b = find_bin(ctx, pick.src, pick.tag);
    }
  }
  return b;
}

void Mailbox::commit_wildcard_slow_locked(const Bin& bin, int ctx, int src,
                                          int tag) {
  std::vector<explore::Candidate> cands;
  collect_candidates(ctx, src, tag, cands);
  // A pending pin matching the chosen bin is the one that forced it; an
  // incompatible pin can never coincide with the default choice (any
  // exact pattern field pins the bin's key to the pattern, not the pin).
  const explore::Pin* pin = oracle_->peek_pin(owner_);
  const bool forced =
      pin != nullptr && pin->src == bin.src && pin->tag == bin.tag;
  const bool divergent =
      !cands.empty() &&
      !(cands.front().src == bin.src && cands.front().tag == bin.tag);
  if (counters_ != nullptr) {
    obs::bump(counters_->sched_wildcard_decisions);
    if (divergent) obs::bump(counters_->sched_forced_divergences);
  }
  oracle_->record_wildcard(owner_, ctx, bin.src, bin.tag, forced, divergent,
                           std::move(cands));
}

Message Mailbox::take_locked(Bin& bin, bool wildcard) {
  // Classified in receiver program order (see obs/metrics.hpp), so the
  // counts are deterministic.  Without counters the previous-take bin is
  // never read, so the hot take path pays only the null check.
  if (counters_ != nullptr) {
    if (wildcard) {
      obs::bump(counters_->mailbox_wildcard_scans);
    } else if (&bin == last_take_) {
      obs::bump(counters_->mailbox_mru_hits);
    } else {
      obs::bump(counters_->mailbox_exact_hits);
    }
    last_take_ = &bin;
  }
  Message msg = std::move(bin.q.front());
  bin.q.pop_front();
  if (!bin.q.empty()) bin.front_seq = bin.q.front().seq;
  --queued_;
  if (registry_) registry_->note_progress();
  if (drain_waiters_ > 0) drained_.notify_all();
  return msg;
}

void Mailbox::enqueue(Message&& msg) {
  std::unique_lock<std::mutex> lk(m_);
  std::optional<ft::FailureState::Interrupt> ft_it;
  if (queued_ >= capacity_ && !poison_) {
    // The sender (not the owner) is the one blocked here.  Free capacity
    // wins over an FT interruption: the owner's pre-death drains
    // happen-before its death mark, so the outcome is deterministic.
    fault::ScopedWait wait(
        registry_, msg.src_world,
        fault::WaitInfo{fault::WaitKind::kSendCapacity, msg.context, owner_,
                        msg.tag});
    ++drain_waiters_;
    drained_.wait(lk, [&] {
      if (queued_ < capacity_ || poison_ != nullptr) return true;
      if (fs_ != nullptr) {
        ft_it = fs_->enqueue_interrupt(owner_);
        if (ft_it) return true;
      }
      return false;
    });
    --drain_waiters_;
  }
  if (poison_) throw_poisoned_locked();
  if (queued_ >= capacity_ && ft_it) {
    ft::throw_interrupt(*ft_it, msg.src_world, msg.context);
  }
  msg.seq = next_seq_++;
  Bin& bin = obtain_bin(msg.context, msg.src, msg.tag);
  if (bin.q.empty()) bin.front_seq = msg.seq;
  bin.q.push_back(std::move(msg));
  ++queued_;
  if (registry_) registry_->note_progress();
  if (arrival_waiters_ > 0) arrived_.notify_all();
}

Mailbox::Bin& Mailbox::await_match_locked(std::unique_lock<std::mutex>& lk,
                                          fault::WaitKind kind, int ctx,
                                          int src, int tag) {
  Bin* bin = match_for(ctx, src, tag);
  std::optional<ft::FailureState::Interrupt> ft_it;
  if (bin == nullptr && !poison_) {
    // A queued match wins over an FT interruption (checked first, both
    // here and in the predicate): the peer's sends happen-before its own
    // death or exit mark, so "drain, then raise" is deterministic.
    if (fs_ != nullptr) ft_it = fs_->wait_interrupt(ctx, src, owner_);
    if (!ft_it) {
      fault::ScopedWait wait(registry_, owner_,
                             fault::WaitInfo{kind, ctx, src, tag});
      ++arrival_waiters_;
      arrived_.wait(lk, [&] {
        bin = match_for(ctx, src, tag);
        if (bin != nullptr || poison_ != nullptr) return true;
        if (fs_ != nullptr) {
          ft_it = fs_->wait_interrupt(ctx, src, owner_);
          if (ft_it) return true;
        }
        return false;
      });
      --arrival_waiters_;
    }
  }
  if (poison_) {
    if (counters_ != nullptr) obs::bump(counters_->poisoned_waits);
    throw_poisoned_locked();
  }
  if (bin == nullptr && ft_it) {
    note_ft_interrupt_locked(*ft_it, ctx);
    ft::throw_interrupt(*ft_it, owner_, ctx);
  }
  // Committed for probes too: a successful probe is a wildcard
  // observation like any other, and consuming a decision index keeps
  // record and replay symmetric for probe-then-exact-receive idioms (e.g.
  // the RMA progress loop).
  commit_wildcard_locked(*bin, ctx, src, tag);
  return *bin;
}

Mailbox::Bin* Mailbox::poll_match_locked(int ctx, int src, int tag) {
  if (poison_) throw_poisoned_locked();
  Bin* bin = match_for(ctx, src, tag);
  if (bin == nullptr) {
    // Raise (rather than spin forever in a test()/iprobe loop) once the
    // failure is detectable; a queued match always wins.
    if (fs_ != nullptr) {
      if (const auto it = fs_->wait_interrupt(ctx, src, owner_)) {
        note_ft_interrupt_locked(*it, ctx);
        ft::throw_interrupt(*it, owner_, ctx);
      }
    }
    return nullptr;
  }
  commit_wildcard_locked(*bin, ctx, src, tag);
  return bin;
}

Message Mailbox::dequeue_match(int ctx, int src, int tag) {
  std::unique_lock<std::mutex> lk(m_);
  Bin& bin = await_match_locked(lk, fault::WaitKind::kRecv, ctx, src, tag);
  return take_locked(bin, src == kAnySource || tag == kAnyTag);
}

std::optional<Message> Mailbox::try_dequeue_match(int ctx, int src, int tag) {
  std::lock_guard<std::mutex> lk(m_);
  Bin* bin = poll_match_locked(ctx, src, tag);
  if (bin == nullptr) return std::nullopt;
  return take_locked(*bin, src == kAnySource || tag == kAnyTag);
}

Status Mailbox::probe(int ctx, int src, int tag) {
  std::unique_lock<std::mutex> lk(m_);
  const Message& head =
      await_match_locked(lk, fault::WaitKind::kProbe, ctx, src, tag).q.front();
  return Status{.source = head.src, .tag = head.tag, .bytes = head.bytes};
}

std::optional<Status> Mailbox::try_probe(int ctx, int src, int tag) {
  std::lock_guard<std::mutex> lk(m_);
  const Bin* bin = poll_match_locked(ctx, src, tag);
  if (bin == nullptr) return std::nullopt;
  const Message& head = bin->q.front();
  return Status{.source = head.src, .tag = head.tag, .bytes = head.bytes};
}

void Mailbox::note_ft_interrupt_locked(const ft::FailureState::Interrupt& it,
                                       int ctx) {
  if (oracle_ == nullptr || !it.tie) return;
  if (counters_ != nullptr) obs::bump(counters_->sched_ft_wake_ties);
  oracle_->record_ft_tie(owner_, ctx);
}

void Mailbox::poison(std::shared_ptr<const fault::AbortInfo> info) {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (poison_) return;  // first abort wins
    poison_ = std::move(info);
  }
  arrived_.notify_all();
  drained_.notify_all();
}

void Mailbox::ft_notify() {
  std::lock_guard<std::mutex> lk(m_);
  if (arrival_waiters_ > 0) arrived_.notify_all();
  if (drain_waiters_ > 0) drained_.notify_all();
}

void Mailbox::reset() {
  std::lock_guard<std::mutex> lk(m_);
  poison_.reset();
  // Drain every bin (destroying queued messages returns their pooled
  // payload buffers) and drop the bin directory itself: contexts are
  // allocated fresh each run, so stale keys would only pollute the table.
  bins_.clear();
  table_.assign(kInitialSlots, nullptr);
  mru_ = nullptr;  // both point into bins_, which was just cleared
  last_take_ = nullptr;
  queued_ = 0;
  next_seq_ = 0;
}

std::vector<Mailbox::Pending> Mailbox::pending_summary() const {
  std::vector<Pending> out;
  {
    std::lock_guard<std::mutex> lk(m_);
    for (const Bin& b : bins_) {
      if (!b.q.empty()) {
        out.push_back(Pending{b.ctx, b.src, b.tag, b.q.size()});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Pending& a, const Pending& b) {
              return std::tie(a.ctx, a.src, a.tag) <
                     std::tie(b.ctx, b.src, b.tag);
            });
  return out;
}

}  // namespace ombx::mpi
