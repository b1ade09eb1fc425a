#include "mpi/request.hpp"

#include "mpi/error.hpp"
#include "sched/sched.hpp"

namespace ombx::mpi {

Request Request::make_send(const Comm& c, std::shared_ptr<SyncCell> cell) {
  Request r;
  r.kind_ = Kind::kSend;
  r.comm_ = &c;
  r.cell_ = SenderHandle(std::move(cell));
  return r;
}

Request Request::make_recv(const Comm& c, MutView v, int src, int tag) {
  Request r;
  r.kind_ = Kind::kRecv;
  r.comm_ = &c;
  r.view_ = v;
  r.src_ = src;
  r.tag_ = tag;
  return r;
}

void Request::settle_ticket() noexcept {
  if (ticket_) {
    ticket_->complete();
    ticket_.reset();
  }
}

Status Request::wait() {
  switch (kind_) {
    case Kind::kDone:
      return status_;
    case Kind::kSend:
      if (cell_) {
        comm_->engine().await_cell(comm_->world_rank(comm_->rank()),
                                   *cell_);
        cell_.settle();
      }
      settle_ticket();
      kind_ = Kind::kDone;
      return status_;
    case Kind::kRecv:
      // Settle before the dequeue so the checker's write pin is gone by
      // the time recv touches the buffer on our own behalf.
      settle_ticket();
      status_ = comm_->recv(view_, src_, tag_);
      kind_ = Kind::kDone;
      return status_;
  }
  throw Error("corrupt request state");
}

bool Request::test() {
  switch (kind_) {
    case Kind::kDone:
      return true;
    case Kind::kSend:
      if (!cell_) {
        settle_ticket();
        kind_ = Kind::kDone;
        return true;
      }
      if (!cell_->ready()) {
        // User-level poll loops (`while (!req.test())`) must not pin a
        // scheduler worker: give other fibers — including the peer this
        // request waits on — a turn.  No-op on the thread backend.
        sched::maybe_yield();
        return false;
      }
      comm_->engine().await_cell(comm_->world_rank(comm_->rank()),
                                 *cell_);
      cell_.settle();
      settle_ticket();
      kind_ = Kind::kDone;
      return true;
    case Kind::kRecv:
      // (Engine::iprobe yields on a miss, so this path is covered.)
      if (!comm_->iprobe(src_, tag_).has_value()) return false;
      settle_ticket();
      status_ = comm_->recv(view_, src_, tag_);
      kind_ = Kind::kDone;
      return true;
  }
  throw Error("corrupt request state");
}

std::vector<Status> Request::wait_all(std::span<Request> reqs) {
  std::vector<Status> out;
  out.reserve(reqs.size());
  for (Request& r : reqs) out.push_back(r.wait());
  return out;
}

}  // namespace ombx::mpi
