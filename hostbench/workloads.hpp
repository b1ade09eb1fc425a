// The benchmark's three workloads.  Each is a closed loop driven by one
// process: a round is a fixed list of operations, run to completion
// before the next round starts.
//
//   fullsub-coll    allreduce + allgather sweeps, native C and Python
//                   direct, Frontera 16x1 (real payloads) and 16x56
//                   (synthetic payloads): the mailbox/scheduler/engine/
//                   collective path of Figs 14-21.
//   p2p-pickle      2-rank latency / bandwidth / bibw, native C, Python
//                   direct and Python pickle, 1 B - 4 MiB, real payloads,
//                   validation on: the pickle/payload-pool/rendezvous
//                   copy path of Figs 4-13 and 32-35.
//   campaign-sweep  one campaign::run of allreduce + bcast on
//                   frontera-large, np 64 and 256: several mid-size
//                   worlds sharing the fiber pool, plus the campaign's
//                   stats, stopping-rule and cache-write path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hostbench {

/// Which zero-perturbation hook a round runs with.  Virtual-time rows must
/// be byte-identical under all three.
enum class Hook { kOff, kMetrics, kCheck };

[[nodiscard]] const char* to_string(Hook h);

/// Collects failed correctness checks (an empty list means correct).
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Outcome of one round.
struct RoundResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;    ///< FNV-1a over the virtual-time rows
  std::uint64_t rows = 0;      ///< result rows produced
  std::uint64_t attempted = 0;  ///< operations attempted this round
  std::uint64_t failed = 0;     ///< of which failed
  /// Obs counters summed over ranks and runs (Hook::kMetrics only).
  std::map<std::string, std::uint64_t> counters;
  /// Campaign counters (campaign-sweep only).
  ombx::obs::CampaignCounters::Snapshot campaign{};
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Largest communicator size any of the workload's worlds has.
  [[nodiscard]] virtual int max_np() const = 0;

  /// Build every World the workload's round builds and run one empty
  /// rank program on each (what setup_s times).
  virtual void setup() = 0;

  /// One round of the timed part.  With Hook::kMetrics the obs counters
  /// are on and exported; with Hook::kCheck the MPI-usage checker runs in
  /// report mode.  Correctness failures of the round go to `checks`.
  virtual RoundResult round(Hook hook, Checks& checks) = 0;

  /// The hooks-off round the hooked rounds are compared with: round(kOff)
  /// unless the hooked rounds take another path (campaign-sweep replays
  /// its worlds through the suite, since the campaign API has no hooks).
  virtual RoundResult hook_baseline(Checks& checks) {
    return round(Hook::kOff, checks);
  }

  /// Correctness probes computed independently of the program (closed
  /// forms, seeded round trips); run once per process, outside timing.
  virtual void probes(Checks& checks) = 0;
};

/// `dir` is a private scratch directory for exported counter files and the
/// campaign cache.  The campaign runs as many workers as the fiber pool.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const std::string& dir);

}  // namespace hostbench
