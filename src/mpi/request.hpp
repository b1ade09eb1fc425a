// Non-blocking operation handles (MPI_Request analogue).
//
// Semantics: an isend is injected immediately (eager) or left pending on
// its rendezvous SyncCell (completed at wait) — zero-copy, so its buffer
// must stay untouched until then, as in MPI; an irecv records its
// parameters and performs the matched receive at wait/test time.  Because
// completion *times* are computed from message timestamps, deferring the
// physical dequeue to wait() yields the same virtual time as an eagerly
// progressed receive would.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "check/checker.hpp"
#include "mpi/comm.hpp"
#include "mpi/message.hpp"

namespace ombx::mpi {

class Request {
 public:
  Request() = default;

  /// True once wait() has run (or for default-constructed requests).
  [[nodiscard]] bool done() const noexcept { return kind_ == Kind::kDone; }

  /// Block until the operation completes; returns its Status (empty status
  /// for sends).  Idempotent: a second wait returns the cached status.
  Status wait();

  /// Non-blocking completion check; completes the op when possible.
  bool test();

  /// Wait for every request, in order.  Returns one Status per request.
  static std::vector<Status> wait_all(std::span<Request> reqs);

 private:
  friend class Comm;
  enum class Kind { kDone, kSend, kRecv };

  static Request make_send(const Comm& c, std::shared_ptr<SyncCell> cell);
  static Request make_recv(const Comm& c, MutView v, int src, int tag);

  /// Marks the checker's pin/leak record complete; no-op when done.
  void settle_ticket() noexcept;

  Kind kind_ = Kind::kDone;
  const Comm* comm_ = nullptr;
  /// Send only (rendezvous).  Dropping the last copy unwaited releases the
  /// zero-copy source (SenderHandle), so the receiver never reads a
  /// buffer the caller is free to reuse.
  SenderHandle cell_;
  MutView view_{};                  // recv only
  int src_ = kAnySource;
  int tag_ = kAnyTag;
  Status status_{};
  /// Checker bookkeeping (null unless --check): buffer pin + leak-on-drop
  /// diagnosis.  shared_ptr because Request is copyable; the last copy to
  /// be completed or destroyed settles the ticket.
  std::shared_ptr<check::OpTicket> ticket_;
};

}  // namespace ombx::mpi
