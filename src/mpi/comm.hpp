// Communicator: the user-facing handle for point-to-point communication.
//
// A Comm is a lightweight view (engine pointer + context id + rank table);
// collectives are free functions in collectives.hpp.  The API mirrors the
// MPI operations OMB exercises: Send/Recv/Isend/Irecv/Sendrecv/Probe plus
// communicator management (dup/split).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mpi/engine.hpp"
#include "mpi/message.hpp"

namespace ombx::mpi {

class Request;

class Comm {
 public:
  /// COMM_WORLD constructor (used by World): identity rank mapping.
  Comm(Engine& engine, int context, std::vector<int> world_ranks,
       int my_comm_rank);

  [[nodiscard]] int rank() const noexcept { return my_rank_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(world_ranks_.size());
  }
  [[nodiscard]] int context() const noexcept { return context_; }

  /// Physical (world) rank of a communicator rank.
  [[nodiscard]] int world_rank(int comm_rank) const;

  [[nodiscard]] Engine& engine() const noexcept { return *engine_; }
  [[nodiscard]] const net::NetworkModel& net() const noexcept {
    return engine_->net();
  }
  [[nodiscard]] simtime::SimClock& clock() const;
  [[nodiscard]] usec_t now() const { return clock().now(); }

  // ---- Blocking point-to-point -------------------------------------------

  void send(ConstView v, int dst, int tag) const;
  Status recv(MutView v, int src, int tag) const;
  Status sendrecv(ConstView s, int dst, int stag, MutView r, int src,
                  int rtag) const;

  // ---- Non-blocking point-to-point ---------------------------------------

  /// Rendezvous isends read `v` in place until wait(), so `v` must stay
  /// alive and unmodified until then (MPI's rule).  Internal staging that
  /// breaks that rule passes SendBuffering::kBuffered.
  [[nodiscard]] Request isend(
      ConstView v, int dst, int tag,
      SendBuffering buffering = SendBuffering::kZeroCopy) const;
  [[nodiscard]] Request irecv(MutView v, int src, int tag) const;

  // ---- Probes --------------------------------------------------------------

  [[nodiscard]] Status probe(int src, int tag) const;
  [[nodiscard]] std::optional<Status> iprobe(int src, int tag) const;

  // ---- Communicator management ---------------------------------------------

  /// Collective over all members: partition by `color`, order by (key,
  /// rank).  Every member must call it.  Negative color = do not join any
  /// new communicator (returns an empty optional).
  [[nodiscard]] std::optional<Comm> split(int color, int key) const;

  /// Collective: duplicate this communicator with a fresh context.
  [[nodiscard]] Comm dup() const;

  // ---- ULFM fault tolerance (WorldConfig::ft; see ft/ft.hpp) ---------------

  /// MPI_Comm_revoke: mark this communicator dead for every member.  Peers
  /// blocked (or later blocking) on it unwind with ft::RevokedError once
  /// no queued match can satisfy them.  Non-collective; first call wins.
  void revoke() const;

  /// MPI_Comm_shrink: collective over the surviving members — every live
  /// member must call it (dead members are excused).  Returns a working
  /// communicator over the survivors, renumbered in old-rank order, on a
  /// fresh context.
  [[nodiscard]] Comm shrink() const;

  /// MPIX_Comm_agree: fault-tolerant agreement on the AND of `bits`
  /// across the surviving members.  Tolerates failures during the
  /// agreement itself.
  struct AgreeOutcome {
    std::uint32_t bits = 0;
    /// A member died that this caller had not failure_ack()ed.
    bool new_failures = false;
  };
  [[nodiscard]] AgreeOutcome agree(std::uint32_t bits) const;

  /// MPI_Comm_failure_ack: acknowledge the currently-known failures on
  /// this communicator; returns how many were newly acknowledged.
  int failure_ack() const;

  /// MPI_Comm_get_failed: the known-dead members (world ranks, sorted).
  [[nodiscard]] std::vector<int> get_failed() const;

  // ---- Local compute charging ----------------------------------------------

  /// Charge priced floating-point work to this rank's virtual clock.
  void charge_flops(double flops) const {
    engine_->charge_flops(my_world_, flops);
  }
  /// Charge priced streaming-byte work to this rank's virtual clock.
  void charge_bytes(double bytes) const {
    engine_->charge_bytes(my_world_, bytes);
  }

 private:
  Engine* engine_;
  int context_;
  std::vector<int> world_ranks_;  ///< comm rank -> world rank
  int my_rank_;
  int my_world_;
};

}  // namespace ombx::mpi
