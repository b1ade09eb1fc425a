#include "mpi/rma.hpp"

#include <cstring>
#include <exception>
#include <numeric>

#include "mpi/error.hpp"

namespace ombx::mpi {

namespace {

constexpr int kTagRmaOp = 0x7d000001;
constexpr int kTagRmaResp = 0x7d000002;

// Wire header preceding each RMA operation message.
struct RmaHeader {
  std::uint8_t kind;
  std::uint8_t dtype;
  std::uint8_t op;
  std::uint64_t disp;
  std::uint64_t len;
};
constexpr std::size_t kHeaderBytes = 3 + 8 + 8;

void write_header(std::byte* out, const RmaHeader& h) {
  out[0] = static_cast<std::byte>(h.kind);
  out[1] = static_cast<std::byte>(h.dtype);
  out[2] = static_cast<std::byte>(h.op);
  std::memcpy(out + 3, &h.disp, 8);
  std::memcpy(out + 11, &h.len, 8);
}

RmaHeader read_header(const std::byte* in) {
  RmaHeader h;
  h.kind = static_cast<std::uint8_t>(in[0]);
  h.dtype = static_cast<std::uint8_t>(in[1]);
  h.op = static_cast<std::uint8_t>(in[2]);
  std::memcpy(&h.disp, in + 3, 8);
  std::memcpy(&h.len, in + 11, 8);
  return h;
}

}  // namespace

Win::Win(const Comm& comm, MutView window)
    : comm_(std::make_unique<Comm>(comm.dup())),
      window_(window),
      ops_to_target_(static_cast<std::size_t>(comm.size()), 0) {
  OMBX_REQUIRE(comm_->engine().payload_mode() == PayloadMode::kReal,
               "RMA windows require real payloads (headers ride the wire)");
}

Win::~Win() {
  check::Checker* chk = comm_->engine().checker();
  if (chk == nullptr) return;
  const std::int64_t issued = std::accumulate(
      ops_to_target_.begin(), ops_to_target_.end(), std::int64_t{0});
  if (issued == 0 && pending_sends_.empty() && pending_gets_.empty()) return;
  if (std::uncaught_exceptions() > 0 || chk->leaks_suppressed()) return;
  const int world = comm_->world_rank(comm_->rank());
  chk->report_noexcept(check::Violation{
      check::Code::kRmaEpochOpen, world, comm_->context(), "win",
      std::to_string(issued) + " operation(s) issued (" +
          std::to_string(pending_gets_.size()) +
          " get(s) pending) but the epoch was never closed with fence()"});
}

void Win::issue(OpKind kind, ConstView payload, int target,
                std::size_t target_disp, std::size_t len, Datatype dt,
                Op op) {
  OMBX_REQUIRE(target >= 0 && target < size(), "RMA target out of range");
  // Wire traffic stages through `msg`, which dies when issue() returns —
  // checker pins on it would dangle.
  check::InternalOp internal(comm_->engine().checker(),
                             comm_->world_rank(comm_->rank()));
  std::vector<std::byte> msg(kHeaderBytes + payload.bytes);
  write_header(msg.data(),
               RmaHeader{static_cast<std::uint8_t>(kind),
                         static_cast<std::uint8_t>(dt),
                         static_cast<std::uint8_t>(op),
                         static_cast<std::uint64_t>(target_disp),
                         static_cast<std::uint64_t>(len)});
  if (payload.data != nullptr && payload.bytes > 0) {
    std::memcpy(msg.data() + kHeaderBytes, payload.data, payload.bytes);
  }
  // `msg` dies before fence() waits on the send: buffered, so the engine
  // copies it at post time.
  pending_sends_.push_back(
      comm_->isend(ConstView{msg.data(), msg.size(), payload.space}, target,
                   kTagRmaOp, SendBuffering::kBuffered));
  ++ops_to_target_[static_cast<std::size_t>(target)];
}

void Win::put(ConstView src, int target, std::size_t target_disp) {
  issue(OpKind::kPut, src, target, target_disp, src.bytes,
        Datatype::kByte, Op::kSum);
}

void Win::get(MutView dst, int target, std::size_t target_disp) {
  issue(OpKind::kGet, ConstView{nullptr, 0, dst.space}, target, target_disp,
        dst.bytes, Datatype::kByte, Op::kSum);
  pending_gets_.push_back(PendingGet{dst, target});
}

void Win::accumulate(ConstView src, int target, std::size_t target_disp,
                     Datatype dt, Op op) {
  issue(OpKind::kAccumulate, src, target, target_disp, src.bytes, dt, op);
}

void Win::service_incoming(int incoming_ops) {
  // Same wire-traffic bracket as issue(): the staging vector and the
  // window-slice responses are substrate-internal, not user buffers.
  check::InternalOp internal(comm_->engine().checker(),
                             comm_->world_rank(comm_->rank()));
  for (int i = 0; i < incoming_ops; ++i) {
    const Status st = comm_->probe(kAnySource, kTagRmaOp);
    std::vector<std::byte> msg(st.bytes);
    (void)comm_->recv(MutView{msg.data(), msg.size()}, st.source,
                      kTagRmaOp);
    OMBX_REQUIRE(msg.size() >= kHeaderBytes, "short RMA message");
    const RmaHeader h = read_header(msg.data());
    OMBX_REQUIRE(h.disp + h.len <= window_.bytes,
                 "RMA operation exceeds the target window");
    switch (static_cast<OpKind>(h.kind)) {
      case OpKind::kPut:
        OMBX_REQUIRE(msg.size() == kHeaderBytes + h.len,
                     "RMA put length mismatch");
        if (window_.data != nullptr && h.len > 0) {
          std::memcpy(window_.data + h.disp, msg.data() + kHeaderBytes,
                      h.len);
        }
        break;
      case OpKind::kGet:
        // Non-blocking: two ranks answering each other's gets must not
        // block in a rendezvous response simultaneously.  Zero-copy: the
        // window slice is left alone until fence() waits on the send
        // (conflicting accesses in one epoch are erroneous in MPI).
        pending_sends_.push_back(comm_->isend(
            ConstView{window_.data ? window_.data + h.disp : nullptr, h.len,
                      window_.space},
            st.source, kTagRmaResp));
        break;
      case OpKind::kAccumulate: {
        OMBX_REQUIRE(msg.size() == kHeaderBytes + h.len,
                     "RMA accumulate length mismatch");
        const auto dt = static_cast<Datatype>(h.dtype);
        const auto op = static_cast<Op>(h.op);
        const std::size_t elems = h.len / size_of(dt);
        OMBX_REQUIRE(elems * size_of(dt) == h.len,
                     "RMA accumulate length not a datatype multiple");
        const std::size_t flops =
            apply(op, dt,
                  window_.data ? window_.data + h.disp : nullptr,
                  window_.data ? msg.data() + kHeaderBytes : nullptr,
                  elems);
        comm_->charge_flops(static_cast<double>(flops));
        break;
      }
      default:
        throw Error("unknown RMA operation kind");
    }
  }
}

void Win::fence() {
  // Epoch close: counts exchange, drain, get responses, local waits.

  // 1. Everyone learns how many operations target it this epoch.
  std::vector<std::int64_t> incoming(1, 0);
  reduce_scatter(
      *comm_,
      ConstView{reinterpret_cast<const std::byte*>(ops_to_target_.data()),
                ops_to_target_.size() * sizeof(std::int64_t)},
      MutView{reinterpret_cast<std::byte*>(incoming.data()),
              sizeof(std::int64_t)},
      Datatype::kInt64, Op::kSum);

  // 2. Drain the operations that target this rank.
  service_incoming(static_cast<int>(incoming[0]));

  // 3. Collect responses for our gets (issued order per target; matching
  //    is FIFO per (source, tag), so per-target order is preserved).
  for (const PendingGet& g : pending_gets_) {
    (void)comm_->recv(g.dst, g.target, kTagRmaResp);
  }
  pending_gets_.clear();

  // 4. Local completion of our own issued sends, then close the epoch.
  (void)Request::wait_all(pending_sends_);
  pending_sends_.clear();
  std::fill(ops_to_target_.begin(), ops_to_target_.end(), 0);

  barrier(*comm_);
}

}  // namespace ombx::mpi
