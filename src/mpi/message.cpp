#include "mpi/message.hpp"

#include <thread>

#include "ft/ft.hpp"
#include "mpi/error.hpp"

namespace ombx::mpi {

const std::byte* SyncCell::begin_transfer() {
  std::lock_guard<std::mutex> lk(m);
  if (!detached.empty()) {
    in_transfer = true;
    return detached.data();
  }
  if (poisoned != nullptr) return nullptr;
  in_transfer = true;
  return src.data;
}

void SyncCell::release_source() noexcept {
  if (src.data == nullptr) return;  // buffered or synthetic: nothing lent
  std::unique_lock<std::mutex> lk(m);
  // A claimed read is a bounded straight-line copy running on another
  // thread; spin it out rather than park.  This runs in destructors, maybe
  // mid-unwind, and a parked fiber would let other fibers run on a thread
  // whose exception state belongs to it.
  while (in_transfer && !done) {
    lk.unlock();
    std::this_thread::yield();
    lk.lock();
  }
  // A poisoned cell refuses new claims and a dead peer never makes one,
  // so only a live, unpoisoned receiver can still read the source.
  if (!done && poisoned == nullptr && ft_failed_rank < 0) detach_locked();
}

void SyncCell::detach_locked() {
  if (src.data != nullptr && detached.empty()) {
    detached = pool->acquire_copy(src.data, src.bytes);
  }
}

usec_t SyncCell::await() {
  std::unique_lock<std::mutex> lk(m);
  // A poisoned cell whose transfer is claimed stays blocked: the receiver
  // is copying out of the sender's (this thread's) buffer and will call
  // complete() in bounded time; unwinding now would free memory under it.
  // The same claim rule applies to FT interruptions.
  cv.wait(lk, [&] {
    return done ||
           ((poisoned != nullptr || ft_failed_rank >= 0 || ft_revoked) &&
            !in_transfer);
  });
  if (done) return release_time;
  if (poisoned != nullptr) {
    auto info = *poisoned;
    lk.unlock();
    throw_aborted(info);
  }
  if (ft_failed_rank >= 0) {
    throw ft::ProcFailedError(ft_failed_rank, ft_time, -1, ctx);
  }
  // A queued match beats revocation, so the receiver may still read this
  // send after the sender unwinds past its buffer: detach first.
  detach_locked();
  throw ft::RevokedError(ft_time, -1, ctx);
}

bool SyncCell::ready() {
  std::unique_lock<std::mutex> lk(m);
  if (done) return true;
  if (in_transfer) return false;
  if (poisoned) {
    auto info = *poisoned;
    lk.unlock();
    throw_aborted(info);
  }
  if (ft_failed_rank >= 0) {
    throw ft::ProcFailedError(ft_failed_rank, ft_time, -1, ctx);
  }
  if (ft_revoked) {
    detach_locked();  // as in await()
    throw ft::RevokedError(ft_time, -1, ctx);
  }
  return false;
}

}  // namespace ombx::mpi
