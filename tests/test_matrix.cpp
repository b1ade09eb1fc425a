// Cross-product smoke matrix: every (cluster x mode x buffer-class)
// combination drives the latency and allreduce benchmarks and must
// produce physically sane, deterministic numbers.  This is the coverage
// net that catches configuration-dependent regressions the focused tests
// miss.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bench_suite/suite.hpp"
#include "core/runner.hpp"

using namespace ombx;
using core::Mode;
using core::SuiteConfig;

namespace {

net::ClusterSpec cluster_by_name(const std::string& name) {
  if (name == "frontera") return net::ClusterSpec::frontera();
  if (name == "stampede2") return net::ClusterSpec::stampede2();
  if (name == "ri2") return net::ClusterSpec::ri2();
  return net::ClusterSpec::ri2_gpu();
}

// Holds no pointer: gtest prints the raw bytes of a parameter that has no
// operator<<, and ctest takes its test names from that listing, so a heap
// pointer here (std::string) would give every run a different test name.
struct MatrixCase {
  char cluster[32];
  Mode mode;
  buffers::BufferKind buffer;
};
static_assert(sizeof(MatrixCase) == 40);

std::string case_name(const MatrixCase& c) {
  std::string m = core::to_string(c.mode);
  for (auto& ch : m) {
    if (ch == '-') ch = '_';
  }
  std::string cl = c.cluster;
  for (auto& ch : cl) {
    if (ch == '-') ch = '_';
  }
  return cl + "_" + m + "_" + buffers::to_string(c.buffer);
}

class BenchMatrix : public ::testing::TestWithParam<MatrixCase> {
 protected:
  SuiteConfig make_cfg() const {
    const MatrixCase& p = GetParam();
    SuiteConfig cfg;
    cfg.cluster = cluster_by_name(p.cluster);
    cfg.tuning = buffers::is_gpu(p.buffer) ? net::MpiTuning::mvapich2_gdr()
                                           : net::MpiTuning::mvapich2();
    cfg.mode = p.mode;
    cfg.buffer = p.buffer;
    cfg.nranks = 2;
    cfg.ppn = buffers::is_gpu(p.buffer) ? 1 : 2;
    cfg.opts.max_size = 1 << 14;
    cfg.opts.iterations = 3;
    cfg.opts.warmup = 1;
    cfg.opts.validate = true;
    return cfg;
  }
};

}  // namespace

TEST_P(BenchMatrix, LatencyIsSaneAndDeterministic) {
  const SuiteConfig cfg = make_cfg();
  const auto a = bench_suite::run_latency(cfg);
  ASSERT_EQ(a.size(), cfg.opts.sizes().size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GT(a[i].stats.avg, 0.0);
    EXPECT_LT(a[i].stats.avg, 1e6);  // under a second per message
    if (i > 0) {
      EXPECT_GE(a[i].stats.avg, a[i - 1].stats.avg * 0.99);
    }
  }
  const auto b = bench_suite::run_latency(cfg);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].stats.avg, b[i].stats.avg);
  }
}

TEST_P(BenchMatrix, AllreduceIsSane) {
  if (GetParam().mode == Mode::kPythonPickle) {
    GTEST_SKIP() << "collective pickle benchmarking is not in v1";
  }
  SuiteConfig cfg = make_cfg();
  cfg.nranks = 4;
  cfg.ppn = buffers::is_gpu(cfg.buffer) ? 1 : 4;
  cfg.opts.validate = false;
  const auto rows =
      bench_suite::run_collective(cfg, bench_suite::CollBench::kAllreduce);
  for (const auto& r : rows) {
    EXPECT_GT(r.stats.avg, 0.0);
    EXPECT_LE(r.stats.min, r.stats.avg);
    EXPECT_GE(r.stats.max, r.stats.avg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CpuClusters, BenchMatrix,
    ::testing::Values(
        MatrixCase{"frontera", Mode::kNativeC, buffers::BufferKind::kNumpy},
        MatrixCase{"frontera", Mode::kPythonDirect,
                   buffers::BufferKind::kNumpy},
        MatrixCase{"frontera", Mode::kPythonDirect,
                   buffers::BufferKind::kByteArray},
        MatrixCase{"frontera", Mode::kPythonPickle,
                   buffers::BufferKind::kNumpy},
        MatrixCase{"stampede2", Mode::kNativeC,
                   buffers::BufferKind::kNumpy},
        MatrixCase{"stampede2", Mode::kPythonDirect,
                   buffers::BufferKind::kNumpy},
        MatrixCase{"stampede2", Mode::kPythonPickle,
                   buffers::BufferKind::kByteArray},
        MatrixCase{"ri2", Mode::kNativeC, buffers::BufferKind::kNumpy},
        MatrixCase{"ri2", Mode::kPythonDirect,
                   buffers::BufferKind::kByteArray},
        MatrixCase{"ri2", Mode::kPythonPickle,
                   buffers::BufferKind::kNumpy}),
    [](const auto& info) { return case_name(info.param); });

INSTANTIATE_TEST_SUITE_P(
    GpuCluster, BenchMatrix,
    ::testing::Values(
        MatrixCase{"ri2-gpu", Mode::kNativeC, buffers::BufferKind::kCupy},
        MatrixCase{"ri2-gpu", Mode::kPythonDirect,
                   buffers::BufferKind::kCupy},
        MatrixCase{"ri2-gpu", Mode::kPythonDirect,
                   buffers::BufferKind::kPycuda},
        MatrixCase{"ri2-gpu", Mode::kPythonDirect,
                   buffers::BufferKind::kNumba}),
    [](const auto& info) { return case_name(info.param); });

// ---- Suite-wide cross checks -----------------------------------------------------

TEST(MatrixCross, EveryRegisteredBenchmarkRunsOnDefaults) {
  core::register_suite();
  for (const std::string& name : core::Registry::instance().names()) {
    const auto* info = core::Registry::instance().find(name);
    ASSERT_NE(info, nullptr);
    core::SuiteConfig cfg;
    cfg.nranks = info->category == core::Category::kPointToPoint ||
                         info->category == core::Category::kOneSided
                     ? 2
                     : 4;
    cfg.ppn = cfg.nranks;
    cfg.opts.max_size = 1024;
    cfg.opts.iterations = 2;
    cfg.opts.warmup = 1;
    const auto rows = info->fn(cfg);
    EXPECT_FALSE(rows.empty()) << name;
    for (const auto& r : rows) {
      EXPECT_GT(r.stats.avg, 0.0) << name;
    }
  }
}

TEST(MatrixCross, GpuLatencyExceedsCpuLatency) {
  // Device buffers ride a higher-startup path than host shm.
  core::SuiteConfig cpu;
  cpu.cluster = net::ClusterSpec::ri2();
  cpu.nranks = 2;
  cpu.ppn = 1;
  cpu.mode = Mode::kNativeC;
  cpu.opts.min_size = 8;
  cpu.opts.max_size = 8;
  cpu.opts.iterations = 2;
  cpu.opts.warmup = 1;

  core::SuiteConfig gpu = cpu;
  gpu.cluster = net::ClusterSpec::ri2_gpu();
  gpu.tuning = net::MpiTuning::mvapich2_gdr();
  gpu.buffer = buffers::BufferKind::kCupy;

  EXPECT_GT(bench_suite::run_latency(gpu).front().stats.avg,
            bench_suite::run_latency(cpu).front().stats.avg);
}

TEST(MatrixCross, InterNodeSlowerThanIntraNodeEverywhere) {
  for (const char* name : {"frontera", "stampede2", "ri2"}) {
    core::SuiteConfig intra;
    intra.cluster = cluster_by_name(name);
    intra.nranks = 2;
    intra.ppn = 2;
    intra.mode = Mode::kNativeC;
    intra.opts.min_size = 64;
    intra.opts.max_size = 64;
    intra.opts.iterations = 2;
    intra.opts.warmup = 1;
    core::SuiteConfig inter = intra;
    inter.ppn = 1;
    EXPECT_GT(bench_suite::run_latency(inter).front().stats.avg,
              bench_suite::run_latency(intra).front().stats.avg)
        << name;
  }
}
