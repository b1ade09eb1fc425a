#include "mpi/comm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>

#include "mpi/error.hpp"
#include "mpi/request.hpp"

namespace ombx::mpi {

namespace {
// Tags reserved for communicator-management traffic; user tags must be
// non-negative and below this band (checked in send/recv).
constexpr int kSplitGatherTag = 0x7ff00001;
constexpr int kSplitReplyTag = 0x7ff00002;

ConstView bytes_of(const std::vector<std::int32_t>& v) {
  return ConstView{reinterpret_cast<const std::byte*>(v.data()),
                   v.size() * sizeof(std::int32_t), net::MemSpace::kHost};
}

std::string rank_or_any(int r) {
  return r == kAnySource ? "any" : std::to_string(r);
}
std::string tag_or_any(int t) {
  return t == kAnyTag ? "any" : std::to_string(t);
}
}  // namespace

Comm::Comm(Engine& engine, int context, std::vector<int> world_ranks,
           int my_comm_rank)
    : engine_(&engine),
      context_(context),
      world_ranks_(std::move(world_ranks)),
      my_rank_(my_comm_rank) {
  OMBX_REQUIRE(!world_ranks_.empty(), "communicator must not be empty");
  OMBX_REQUIRE(my_rank_ >= 0 && my_rank_ < size(),
               "comm rank out of range");
  my_world_ = world_ranks_[static_cast<std::size_t>(my_rank_)];
  // FT mode tracks every communicator's membership for failure scoping
  // (no-op when FT is disabled; idempotent — first registering rank wins).
  engine_->ft_register_comm(context_, world_ranks_);
}

int Comm::world_rank(int comm_rank) const {
  OMBX_REQUIRE(comm_rank >= 0 && comm_rank < size(),
               "comm rank out of range");
  return world_ranks_[static_cast<std::size_t>(comm_rank)];
}

simtime::SimClock& Comm::clock() const {
  return engine_->state(my_world_).clock;
}

void Comm::send(ConstView v, int dst, int tag) const {
  OMBX_REQUIRE_AT(tag >= 0, "user tags must be non-negative", my_world_,
                  context_);
  if (auto* chk = engine_->checker()) {
    // Reading a range a pending irecv may still rewrite is the hazard;
    // reading alongside pending isends (OSU window sends) is legal.
    chk->on_touch(my_world_, context_, v.data, v.bytes,
                  check::Checker::Access::kRead, "send");
  }
  // Blocking send parks on the cell until the receiver is done with `v`,
  // so rendezvous goes zero-copy.
  auto cell = engine_->post_send(my_world_, world_rank(dst), context_,
                                 my_rank_, tag, v);
  if (cell) engine_->await_cell(my_world_, *cell);
}

Status Comm::recv(MutView v, int src, int tag) const {
  if (auto* chk = engine_->checker()) {
    // Writing over a range a pending isend still reads is the hazard:
    // rendezvous isends are zero-copy, so the peer may not have read it.
    chk->on_touch(my_world_, context_, v.data, v.bytes,
                  check::Checker::Access::kWrite, "recv");
  }
  // `src` is comm-local; the engine matches on it.
  return engine_->recv(my_world_, context_, src, tag, v);
}

Status Comm::sendrecv(ConstView s, int dst, int stag, MutView r, int src,
                      int rtag) const {
  Request sreq = isend(s, dst, stag);
  Status st = recv(r, src, rtag);
  sreq.wait();
  return st;
}

Request Comm::isend(ConstView v, int dst, int tag,
                    SendBuffering buffering) const {
  OMBX_REQUIRE_AT(tag >= 0, "user tags must be non-negative", my_world_,
                  context_);
  // Pin + ticket before posting so a hazardous isend is flagged before
  // its message is in flight (and so a failing post leaves nothing
  // half-registered: the ticket unwinds silently with the exception).
  std::shared_ptr<check::OpTicket> ticket;
  if (auto* chk = engine_->checker();
      chk != nullptr && !chk->in_internal(my_world_)) {
    const std::string desc = chk->describe(
        my_world_, "isend " + std::to_string(v.bytes) + "B to comm rank " +
                       std::to_string(dst) + " tag " + std::to_string(tag));
    const std::uint64_t pin =
        chk->pin(my_world_, context_, v.data, v.bytes,
                 check::Checker::Access::kRead, desc);
    ticket = std::make_shared<check::OpTicket>(*chk, my_world_, context_,
                                               pin, desc);
  }
  // Zero-copy unless the caller said otherwise: the receiver reads `v`
  // until wait(), and a Request dropped unwaited releases it (request.hpp).
  auto cell = engine_->post_send(my_world_, world_rank(dst), context_,
                                 my_rank_, tag, v, /*force_payload=*/false,
                                 buffering);
  Request r = Request::make_send(*this, std::move(cell));
  r.ticket_ = std::move(ticket);
  return r;
}

Request Comm::irecv(MutView v, int src, int tag) const {
  Request r = Request::make_recv(*this, v, src, tag);
  if (auto* chk = engine_->checker();
      chk != nullptr && !chk->in_internal(my_world_)) {
    const std::string desc = chk->describe(
        my_world_, "irecv " + std::to_string(v.bytes) +
                       "B from comm rank " + rank_or_any(src) + " tag " +
                       tag_or_any(tag));
    const std::uint64_t pin =
        chk->pin(my_world_, context_, v.data, v.bytes,
                 check::Checker::Access::kWrite, desc);
    r.ticket_ = std::make_shared<check::OpTicket>(*chk, my_world_, context_,
                                                  pin, desc);
  }
  return r;
}

Status Comm::probe(int src, int tag) const {
  return engine_->probe(my_world_, context_, src, tag);
}

std::optional<Status> Comm::iprobe(int src, int tag) const {
  return engine_->iprobe(my_world_, context_, src, tag);
}

std::optional<Comm> Comm::split(int color, int key) const {
  // Linear gather of (color, key) at comm rank 0, which partitions, asks
  // the engine for one fresh context per group, and replies to each member
  // with [context, new_rank, group_size, world_ranks...].
  const int n = size();
  std::vector<std::int32_t> reply;

  if (my_rank_ == 0) {
    std::vector<std::pair<std::int32_t, std::int32_t>> entries(
        static_cast<std::size_t>(n));
    entries[0] = {color, key};
    for (int r = 1; r < n; ++r) {
      std::vector<std::int32_t> buf(2);
      MutView mv{reinterpret_cast<std::byte*>(buf.data()),
                 buf.size() * sizeof(std::int32_t), net::MemSpace::kHost};
      (void)engine_->recv(my_world_, context_, r, kSplitGatherTag, mv);
      entries[static_cast<std::size_t>(r)] = {buf[0], buf[1]};
    }

    // Group members by color; order inside a group by (key, parent rank).
    std::map<std::int32_t, std::vector<int>> groups;
    for (int r = 0; r < n; ++r) {
      if (entries[static_cast<std::size_t>(r)].first >= 0) {
        groups[entries[static_cast<std::size_t>(r)].first].push_back(r);
      }
    }
    std::map<std::int32_t, std::int32_t> contexts;
    for (auto& [c, members] : groups) {
      std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
        return entries[static_cast<std::size_t>(a)].second <
               entries[static_cast<std::size_t>(b)].second;
      });
      contexts[c] = engine_->allocate_context();
    }

    for (int r = n - 1; r >= 0; --r) {
      const std::int32_t c = entries[static_cast<std::size_t>(r)].first;
      std::vector<std::int32_t> out;
      if (c < 0) {
        out = {-1, -1, 0};
      } else {
        const auto& members = groups.at(c);
        const auto pos = std::find(members.begin(), members.end(), r);
        out.push_back(contexts.at(c));
        out.push_back(
            static_cast<std::int32_t>(pos - members.begin()));
        out.push_back(static_cast<std::int32_t>(members.size()));
        for (int m : members) {
          out.push_back(static_cast<std::int32_t>(world_rank(m)));
        }
      }
      if (r == 0) {
        reply = std::move(out);
      } else {
        auto cell = engine_->post_send(my_world_, world_rank(r), context_,
                                       my_rank_, kSplitReplyTag,
                                       bytes_of(out),
                                       /*force_payload=*/true);
        if (cell) engine_->await_cell(my_world_, *cell);
      }
    }
  } else {
    const std::vector<std::int32_t> mine = {color, key};
    auto cell = engine_->post_send(my_world_, world_rank(0), context_,
                                   my_rank_, kSplitGatherTag,
                                   bytes_of(mine),
                                   /*force_payload=*/true);
    if (cell) engine_->await_cell(my_world_, *cell);

    const Status st = engine_->probe(my_world_, context_, 0, kSplitReplyTag);
    reply.resize(st.bytes / sizeof(std::int32_t));
    MutView mv{reinterpret_cast<std::byte*>(reply.data()), st.bytes,
               net::MemSpace::kHost};
    (void)engine_->recv(my_world_, context_, 0, kSplitReplyTag, mv);
  }

  OMBX_REQUIRE(reply.size() >= 3, "malformed split reply");
  if (reply[0] < 0) return std::nullopt;
  const int new_ctx = reply[0];
  const int new_rank = reply[1];
  const int new_size = reply[2];
  OMBX_REQUIRE(reply.size() == 3 + static_cast<std::size_t>(new_size),
               "malformed split reply length");
  std::vector<int> worlds(reply.begin() + 3, reply.end());
  return Comm(*engine_, new_ctx, std::move(worlds), new_rank);
}

Comm Comm::dup() const {
  auto out = split(0, my_rank_);
  OMBX_REQUIRE(out.has_value(), "dup must produce a communicator");
  return *std::move(out);
}

}  // namespace ombx::mpi
