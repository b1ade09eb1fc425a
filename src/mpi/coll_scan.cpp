// Scan / Exscan (inclusive and exclusive prefix reductions).
//
// Implemented with the standard log-step algorithm for commutative-and-
// associative ops over a linear rank order: at step k, rank r receives the
// partial prefix from r - 2^k and sends its running partial to r + 2^k.
#include "mpi/coll_util.hpp"
#include "mpi/collectives.hpp"
#include "mpi/request.hpp"

namespace ombx::mpi {

namespace {

using detail::kTagVector;
using detail::Scratch;

constexpr int kTagScan = 0x7e00000b;

/// Shared core: computes the inclusive prefix into `acc`; also tracks the
/// prefix of *strictly preceding* ranks in `pre` (for exscan) when
/// `want_pre` is set.
void prefix_core(Comm& c, ConstView send, MutView acc, Scratch* pre,
                 Datatype dt, Op op) {
  const int n = c.size();
  const int rank = c.rank();
  const bool real = detail::real_payload(c, send);
  const std::size_t bytes = send.bytes;

  detail::copy_bytes(acc, send, bytes);
  Scratch incoming(bytes, real, send.space);
  bool pre_valid = false;

  for (int dist = 1; dist < n; dist <<= 1) {
    const int to = rank + dist;
    const int from = rank - dist;
    Request sreq;
    if (to < n) {
      // Buffered: `acc` is combined into below, before sreq.wait().
      sreq = c.isend(detail::slice(detail::as_const(acc), 0, bytes), to,
                     kTagScan, SendBuffering::kBuffered);
    }
    if (from >= 0) {
      (void)c.recv(incoming.mview(), from, kTagScan);
      // The incoming block is the inclusive prefix of ranks
      // [from-2^k+1 ... from] — fold it in front of ours.
      detail::combine(c, dt, op, acc, incoming.cview(), bytes);
      if (pre != nullptr) {
        if (!pre_valid) {
          detail::copy_bytes(pre->mview(), incoming.cview(), bytes);
          pre_valid = true;
        } else {
          detail::combine(c, dt, op, pre->mview(), incoming.cview(), bytes);
        }
      }
    }
    sreq.wait();
  }
}

}  // namespace

void scan(Comm& c, ConstView send, MutView recv, Datatype dt, Op op) {
  OMBX_REQUIRE(recv.bytes >= send.bytes,
               "scan recv buffer smaller than contribution");
  if (c.size() == 1) {
    detail::copy_bytes(recv, send, send.bytes);
    return;
  }
  detail::CollSpan span(
      c, "scan", "log_step", send.bytes,
      detail::CollMeta{.bytes = static_cast<long long>(send.bytes),
                       .datatype = static_cast<int>(dt),
                       .op = static_cast<int>(op)});
  prefix_core(c, send, detail::slice(recv, 0, send.bytes), nullptr, dt, op);
}

void exscan(Comm& c, ConstView send, MutView recv, Datatype dt, Op op) {
  OMBX_REQUIRE(recv.bytes >= send.bytes,
               "exscan recv buffer smaller than contribution");
  if (c.size() == 1) return;  // rank 0's exscan result is undefined (MPI)
  detail::CollSpan span(
      c, "exscan", "log_step", send.bytes,
      detail::CollMeta{.bytes = static_cast<long long>(send.bytes),
                       .datatype = static_cast<int>(dt),
                       .op = static_cast<int>(op)});
  const bool real = detail::real_payload(c, send);
  Scratch acc(send.bytes, real, send.space);
  Scratch pre(send.bytes, real, send.space);
  prefix_core(c, send, acc.mview(), &pre, dt, op);
  if (c.rank() > 0) {
    detail::copy_bytes(detail::slice(recv, 0, send.bytes), pre.cview(),
                       send.bytes);
  }
}

}  // namespace ombx::mpi
