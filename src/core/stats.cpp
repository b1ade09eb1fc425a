#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ombx::core {

namespace {
mpi::ConstView dview(const double& d) {
  return mpi::ConstView{reinterpret_cast<const std::byte*>(&d),
                        sizeof(double), net::MemSpace::kHost};
}
mpi::MutView dview(double& d) {
  return mpi::MutView{reinterpret_cast<std::byte*>(&d), sizeof(double),
                      net::MemSpace::kHost};
}
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

bool stats_valid(const Stats& s) noexcept {
  return std::isfinite(s.avg) && std::isfinite(s.min) && std::isfinite(s.max);
}

Stats StatsBoard::compute() const {
  if (deposited() == 0) return Stats{kNaN, kNaN, kNaN};
  Stats s;
  s.min = values_.front();
  s.max = values_.front();
  double sum = 0.0;
  for (const double v : values_) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.avg = sum / static_cast<double>(values_.size());
  return s;
}

Stats reduce_stats(mpi::Comm& c, double local, int root) {
  const double& loc = local;
  double sum = 0.0;
  double mn = 0.0;
  double mx = 0.0;
  mpi::reduce(c, dview(loc), dview(sum), mpi::Datatype::kDouble,
              mpi::Op::kSum, root);
  mpi::reduce(c, dview(loc), dview(mn), mpi::Datatype::kDouble,
              mpi::Op::kMin, root);
  mpi::reduce(c, dview(loc), dview(mx), mpi::Datatype::kDouble,
              mpi::Op::kMax, root);
  if (c.rank() != root) return Stats{kNaN, kNaN, kNaN};
  Stats s;
  s.avg = sum / static_cast<double>(c.size());
  s.min = mn;
  s.max = mx;
  return s;
}

double Summary::ci_rel() const noexcept {
  const double half = ci_half();
  if (std::isnan(half)) return kNaN;
  if (mean == 0.0) {
    // Zero mean with dispersion: the relative width is unbounded — +inf
    // ("never converged"), not NaN ("undefined"), so the campaign
    // stopping rule sees an ordinary too-wide interval.
    return half == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return half / std::fabs(mean);
}

double t_critical_95(std::size_t dof) noexcept {
  // Two-sided alpha = 0.05.  Exact through dof 30; the classic table
  // brackets (40, 60, 120) above that; 1.960 is the normal asymptote.
  static constexpr double kTable[31] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
      2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
      2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
      2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  if (dof == 0) return kNaN;
  if (dof <= 30) return kTable[dof];
  if (dof <= 40) return 2.021;
  if (dof <= 60) return 2.000;
  if (dof <= 120) return 1.980;
  return 1.960;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) {
    s.mean = s.median = s.variance = s.ci_low = s.ci_high = kNaN;
    s.min = s.max = kNaN;
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.median = (s.n % 2 == 1)
                 ? samples[s.n / 2]
                 : (samples[s.n / 2 - 1] + samples[s.n / 2]) / 2.0;
  if (s.n < 2) {
    s.variance = s.ci_low = s.ci_high = kNaN;
    return s;
  }
  double ss = 0.0;
  for (const double v : samples) {
    const double d = v - s.mean;
    ss += d * d;
  }
  s.variance = ss / static_cast<double>(s.n - 1);
  const double sem = std::sqrt(s.variance / static_cast<double>(s.n));
  const double half = t_critical_95(s.n - 1) * sem;
  s.ci_low = s.mean - half;
  s.ci_high = s.mean + half;
  return s;
}

}  // namespace ombx::core
