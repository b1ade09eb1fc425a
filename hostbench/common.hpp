// Shared helpers for the host-time benchmark: host clocks, order
// statistics, the row digest and the in-memory span log.
//
// Every number this benchmark reports is HOST time (what the simulator
// spends); the program's own output is virtual time, which only feeds the
// row digest and the correctness checks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace hostbench {

/// Steady-clock seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds consumed by the whole process so far.
inline double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set size of the process, in MB (1 MB = 2^20 bytes).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0, 1]); NaN-free for non-empty v.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of the samples ranked within [q - w, q + w]: a quantile estimate
/// for per-op clock readings.  Those come in whole nanoseconds, so a plain
/// order statistic snaps to a tick and repeats from run to run.
inline double quantile_band(std::vector<double> v, double q, double w) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double last = static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::max(0.0, (q - w) * last));
  const auto hi = static_cast<std::size_t>(std::min(last, (q + w) * last));
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

/// Band estimates of the median and the 99th percentile.
inline double p50(const std::vector<double>& v) { return quantile_band(v, 0.5, 0.05); }
inline double p99(const std::vector<double>& v) { return quantile_band(v, 0.99, 0.005); }

/// FNV-1a over the exact bit patterns of virtual-time rows.  Two runs have
/// the same digest iff they produced byte-identical rows.
class Digest {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ull;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  void add(double d) { add(&d, sizeof d); }
  void add(std::uint64_t u) { add(&u, sizeof u); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Steady-clock spans kept in memory and written out at exit (trace
/// runs only).  Spans nest: open() makes the new span a child of the
/// innermost open span.  Single-threaded: only the main thread records.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                      now_s(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  /// Closes span `id` (the innermost open one) and returns its length.
  double close(int id) {
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    open_.pop_back();
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.t1 - s.t0;
  }

  /// Chrome trace-event JSON (one complete event per span, self time in
  /// args) — loadable in chrome://tracing or Perfetto.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a SpanLog; seconds() gives the closed span's length.
class Scope {
 public:
  Scope(SpanLog& log, std::string name)
      : log_(&log), id_(log.open(std::move(name))) {}
  ~Scope() {
    if (log_ != nullptr) (void)log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double close() {
    const double s = log_->close(id_);
    log_ = nullptr;
    return s;
  }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace hostbench
