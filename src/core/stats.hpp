// Cross-rank latency statistics, computed the way the paper describes:
// per-rank values are combined with MPI_Reduce (avg via SUM, plus MIN and
// MAX) at the root.  On top of that, `Summary`/`summarize` provide the
// repetition-level statistics (median, variance, 95% CI) that the
// campaign engine's experimental design needs — single-shot numbers are
// meaningless without them (Hunold & Carpen-Amarie, "MPI Benchmarking
// Revisited", see DESIGN.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mpi/collectives.hpp"
#include "mpi/comm.hpp"

namespace ombx::core {

struct Stats {
  double avg = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// True iff `s` carries real data.  Empty-input paths (a StatsBoard no
/// rank deposited into, a non-root rank after reduce_stats) report NaN —
/// never a fake 0.0 that renders as a legitimate row.
[[nodiscard]] bool stats_valid(const Stats& s) noexcept;

/// Combine one double per rank into avg/min/max at `root`.
/// Collective: every rank must call it.  Non-root ranks receive NaN
/// (explicitly "not computed here" — rendering it is a caller bug that
/// shows up as `nan`, not as a plausible zero).
/// Note: requires real payloads — in PayloadMode::kSynthetic no data rides
/// the simulated wire, so use StatsBoard instead.
[[nodiscard]] Stats reduce_stats(mpi::Comm& c, double local, int root = 0);

/// Host-side cross-rank statistics for simulation benches: every rank
/// deposits its value, then (after a barrier, which the engine's physical
/// synchronization makes a true rendezvous) any rank may compute.  Works
/// in synthetic payload mode, where reduce_stats cannot.
class StatsBoard {
 public:
  explicit StatsBoard(int nranks)
      : values_(static_cast<std::size_t>(nranks), 0.0),
        touched_(static_cast<std::size_t>(nranks), 0) {}

  void deposit(int rank, double v) {
    const auto i = static_cast<std::size_t>(rank);
    values_[i] = v;
    touched_[i] = 1;  // each rank writes only its own slots: no shared count
  }

  /// Ranks that have deposited at least once since construction.  Like
  /// compute(), call only after a barrier following the deposits.
  [[nodiscard]] int deposited() const noexcept {
    return static_cast<int>(
        std::count(touched_.begin(), touched_.end(), char{1}));
  }

  /// Call only after a barrier following the deposits of interest.
  /// A board no rank ever deposited into yields NaN stats (see
  /// stats_valid) instead of silently averaging the zero-initialised
  /// slots into a fake 0.0 row.
  [[nodiscard]] Stats compute() const;

 private:
  std::vector<double> values_;
  std::vector<char> touched_;  ///< not vector<bool>: plain byte flags
};

/// Repetition-level summary over n samples of one configuration.
/// All fields are NaN when n == 0; variance and the CI are NaN when
/// n < 2 (a single sample has no dispersion estimate).
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double median = 0.0;
  double variance = 0.0;  ///< unbiased sample variance (n-1 denominator)
  double ci_low = 0.0;    ///< 95% Student-t confidence interval on the mean
  double ci_high = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// CI half-width; NaN when the CI is undefined.
  [[nodiscard]] double ci_half() const noexcept {
    return (ci_high - ci_low) / 2.0;
  }
  /// Relative CI half-width (the campaign stopping-rule metric);
  /// NaN when undefined, +inf when mean == 0 with nonzero dispersion.
  [[nodiscard]] double ci_rel() const noexcept;
};

/// Two-sided 95% Student-t critical value for `dof` degrees of freedom
/// (exact table through 30, bracketed at 40/60/120, 1.960 asymptote).
[[nodiscard]] double t_critical_95(std::size_t dof) noexcept;

/// Summarize samples: mean, median, unbiased variance, t-based 95% CI.
/// Takes the vector by value because the median requires a sort.
[[nodiscard]] Summary summarize(std::vector<double> samples);

}  // namespace ombx::core
