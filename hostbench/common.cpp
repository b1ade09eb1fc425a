#include "common.hpp"

#include <cstdio>
#include <fstream>

namespace hostbench {

void SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os || spans_.empty()) return;
  const double base = spans_.front().t0;
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d,"
                  "\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", s.name.c_str(), (s.t0 - base) * 1e6,
                  (s.t1 - s.t0) * 1e6, s.parent,
                  (s.t1 - s.t0 - child[i]) * 1e6);
    os << buf;
  }
  os << "\n]}\n";
}

}  // namespace hostbench
