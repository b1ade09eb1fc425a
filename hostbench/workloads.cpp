#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "bench_suite/cli.hpp"
#include "bench_suite/suite.hpp"
#include "campaign/campaign.hpp"
#include "common.hpp"
#include "core/registry.hpp"
#include "core/runner.hpp"
#include "mpi/world.hpp"
#include "probes.hpp"
#include "sched/sched.hpp"

namespace fs = std::filesystem;

namespace hostbench {

const char* to_string(Hook h) {
  switch (h) {
    case Hook::kOff: return "off";
    case Hook::kMetrics: return "metrics";
    case Hook::kCheck: return "check";
  }
  return "?";
}

namespace {

using namespace ombx;
using BenchFn = std::function<std::vector<core::Row>(const core::SuiteConfig&)>;

/// One benchmark-suite call: a labelled configuration and the suite entry
/// point that runs it (one World per call, as the figure binaries do).
struct Job {
  std::string label;
  core::SuiteConfig cfg;
  BenchFn fn;
};

/// Row-wise ordering between two jobs over the same sizes: every row of
/// `lo` must be <= the matching row of `hi` (the paper's OMB-Py >= OMB and
/// pickle >= direct, in latency; bandwidth orders the other way round).
struct Order {
  std::size_t lo;
  std::size_t hi;
};

std::uint64_t sizes_in(const core::SuiteConfig& cfg) {
  return cfg.opts.sizes().size();
}

/// Sum every counter of a long-form `label,counter,rank,value` metrics CSV
/// (core::export_observability's format) over labels and ranks.
std::map<std::string, std::uint64_t> sum_metrics_csv(const std::string& path,
                                                     Checks& checks) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  checks.expect(in.good(), "metrics export missing: " + path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    const auto c3 = line.find(',', c2 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        c3 == std::string::npos) {
      checks.expect(false, "malformed metrics line: " + line);
      continue;
    }
    out[line.substr(c1 + 1, c2 - c1 - 1)] +=
        std::stoull(line.substr(c3 + 1));
  }
  return out;
}

/// Lines after the header of the checker's report CSV (violations).
std::size_t count_report_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) ++n;
  return n > 0 ? n - 1 : 0;
}

/// Runs a list of suite jobs as one round under `hook`.  A job that throws
/// fails all of its rows; a non-finite or non-positive row fails itself.
class SuiteRunner {
 public:
  explicit SuiteRunner(std::string dir) : dir_(std::move(dir)) {}

  std::vector<std::vector<core::Row>> run(const std::vector<Job>& jobs,
                                          Hook hook, RoundResult& res,
                                          Checks& checks) const {
    const std::string metrics = dir_ + "/metrics.csv";
    const std::string report = dir_ + "/check.csv";
    fs::remove(metrics);
    fs::remove(report);

    std::vector<std::vector<core::Row>> out;
    out.reserve(jobs.size());
    const double t0 = now_s();
    const double c0 = cpu_s();
    for (const Job& job : jobs) {
      core::SuiteConfig cfg = job.cfg;
      if (hook == Hook::kMetrics) cfg.obs.metrics_csv = metrics;
      if (hook == Hook::kCheck) {
        cfg.check.enabled = true;
        cfg.check.report_csv = report;
      }
      std::vector<core::Row> rows;
      try {
        rows = job.fn(cfg);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "hostbench: %s failed: %s\n", job.label.c_str(),
                     e.what());
      }
      out.push_back(std::move(rows));
    }
    res.wall_s += now_s() - t0;
    res.cpu_s += cpu_s() - c0;

    Digest d;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::uint64_t expected = sizes_in(jobs[j].cfg);
      std::uint64_t good = 0;
      d.add(jobs[j].label);
      for (const core::Row& r : out[j]) {
        d.add(static_cast<std::uint64_t>(r.size));
        d.add(r.stats.avg);
        d.add(r.stats.min);
        d.add(r.stats.max);
        if (std::isfinite(r.stats.avg) && r.stats.avg > 0.0) ++good;
      }
      res.rows += out[j].size();
      res.attempted += expected;
      res.failed += expected - std::min(expected, good);
    }
    res.digest = d.value();

    if (hook == Hook::kMetrics) res.counters = sum_metrics_csv(metrics, checks);
    if (hook == Hook::kCheck) {
      checks.expect(count_report_lines(report) == 0,
                    "MPI-usage checker reported violations (" + report + ")");
    }
    return out;
  }

  /// Checks every Order over rows of one round.
  static void check_orders(const std::vector<Job>& jobs,
                           const std::vector<std::vector<core::Row>>& rows,
                           const std::vector<Order>& orders, Checks& checks) {
    for (const Order& o : orders) {
      const auto& lo = rows[o.lo];
      const auto& hi = rows[o.hi];
      if (lo.size() != hi.size()) continue;  // counted as failed rows
      for (std::size_t i = 0; i < lo.size(); ++i) {
        std::ostringstream what;
        what << "ordering: " << jobs[o.lo].label << " <= " << jobs[o.hi].label
             << " at " << lo[i].size << " B (" << lo[i].stats.avg << " vs "
             << hi[i].stats.avg << ")";
        checks.expect(lo[i].stats.avg <= hi[i].stats.avg, what.str());
      }
    }
  }

 private:
  std::string dir_;
};

/// Builds the World each job builds and runs one empty rank program.
void setup_worlds(const std::vector<core::SuiteConfig>& cfgs) {
  for (const core::SuiteConfig& cfg : cfgs) {
    mpi::World world(core::make_world_config(cfg));
    world.run([](mpi::Comm&) {});
  }
}

std::vector<core::SuiteConfig> configs_of(const std::vector<Job>& jobs) {
  std::vector<core::SuiteConfig> out;
  for (const Job& j : jobs) out.push_back(j.cfg);
  return out;
}

// ---- fullsub-coll ----------------------------------------------------------

class FullsubColl final : public Workload {
 public:
  FullsubColl(std::uint64_t seed, const std::string& dir)
      : seed_(seed), runner_(dir) {
    for (const int ppn : {1, 56}) {
      add_geometry(16 * ppn, ppn);
    }
  }

  int max_np() const override { return 896; }

  void setup() override { setup_worlds(configs_of(jobs_)); }

  RoundResult round(Hook hook, Checks& checks) override {
    RoundResult res;
    const auto rows = runner_.run(jobs_, hook, res, checks);
    SuiteRunner::check_orders(jobs_, rows, orders_, checks);
    return res;
  }

  void probes(Checks& checks) override { closed_form_collectives(seed_, checks); }

 private:
  // Same clusters, size ranges and payload modes as the Figs 14-21
  // binaries; one iteration per size and no warm-up keeps a round short
  // while every geometry, mode and size still runs.
  void add_geometry(int np, int ppn) {
    using bench_suite::CollBench;
    const std::size_t ag_large_max = np > 64 ? 128 * 1024 : 512 * 1024;
    struct Sweep {
      CollBench which;
      const char* name;
      std::size_t min;
      std::size_t max;
    };
    const Sweep sweeps[] = {
        {CollBench::kAllreduce, "allreduce/small", 4, 8 * 1024},
        {CollBench::kAllreduce, "allreduce/large", 16 * 1024, 1024 * 1024},
        {CollBench::kAllgather, "allgather/small", 1, 8 * 1024},
        {CollBench::kAllgather, "allgather/large", 16 * 1024, ag_large_max},
    };
    for (const Sweep& s : sweeps) {
      const std::size_t native = jobs_.size();
      for (const core::Mode mode :
           {core::Mode::kNativeC, core::Mode::kPythonDirect}) {
        core::SuiteConfig cfg;
        cfg.cluster = net::ClusterSpec::frontera();
        cfg.tuning = net::MpiTuning::mvapich2();
        cfg.nranks = np;
        cfg.ppn = ppn;
        cfg.mode = mode;
        cfg.sched = sched::Mode::kFibers;
        cfg.payload = np > 64 ? mpi::PayloadMode::kSynthetic
                              : mpi::PayloadMode::kReal;
        cfg.opts.min_size = s.min;
        cfg.opts.max_size = s.max;
        cfg.opts.iterations = 1;
        cfg.opts.warmup = 0;
        cfg.opts.iterations_large = 1;
        cfg.opts.warmup_large = 0;
        const CollBench which = s.which;
        jobs_.push_back(
            {std::string(s.name) + "/" + std::to_string(np) + "x" +
                 std::to_string(ppn) + "/" + core::to_string(mode),
             cfg, [which](const core::SuiteConfig& c) {
               return bench_suite::run_collective(c, which);
             }});
      }
      orders_.push_back({native, native + 1});  // OMB <= OMB-Py
    }
  }

  std::uint64_t seed_;
  SuiteRunner runner_;
  std::vector<Job> jobs_;
  std::vector<Order> orders_;
};

// ---- p2p-pickle ------------------------------------------------------------

class P2pPickle final : public Workload {
 public:
  P2pPickle(std::uint64_t seed, const std::string& dir)
      : seed_(seed), runner_(dir) {
    using core::Mode;
    const auto add = [&](const char* bench, Mode mode, BenchFn fn) {
      core::SuiteConfig cfg;
      cfg.cluster = net::ClusterSpec::frontera();
      cfg.tuning = net::MpiTuning::mvapich2();
      cfg.nranks = 2;
      cfg.ppn = 1;
      cfg.mode = mode;
      cfg.sched = sched::Mode::kFibers;
      cfg.payload = mpi::PayloadMode::kReal;
      cfg.opts.min_size = 1;
      cfg.opts.max_size = 4 * 1024 * 1024;
      cfg.opts.iterations = kIters;
      cfg.opts.warmup = kWarmup;
      cfg.opts.iterations_large = kItersLarge;
      cfg.opts.warmup_large = kWarmupLarge;
      cfg.opts.validate = true;
      jobs_.push_back({std::string(bench) + "/" + core::to_string(mode), cfg,
                       std::move(fn)});
      return jobs_.size() - 1;
    };
    const auto lat_c = add("latency", Mode::kNativeC, bench_suite::run_latency);
    const auto lat_d =
        add("latency", Mode::kPythonDirect, bench_suite::run_latency);
    const auto lat_p =
        add("latency", Mode::kPythonPickle, bench_suite::run_latency);
    const auto bw_c = add("bw", Mode::kNativeC, bench_suite::run_bandwidth);
    const auto bw_d = add("bw", Mode::kPythonDirect, bench_suite::run_bandwidth);
    const auto bw_p = add("bw", Mode::kPythonPickle, bench_suite::run_bandwidth);
    const auto bibw_c = add("bibw", Mode::kNativeC, bench_suite::run_bibw);
    const auto bibw_d = add("bibw", Mode::kPythonDirect, bench_suite::run_bibw);
    // Latency: C <= direct <= pickle.  Bandwidth: pickle <= direct <= C.
    orders_ = {{lat_c, lat_d}, {lat_d, lat_p}, {bw_d, bw_c},
               {bw_p, bw_d},   {bibw_d, bibw_c}};
  }

  int max_np() const override { return 2; }

  void setup() override { setup_worlds(configs_of(jobs_)); }

  RoundResult round(Hook hook, Checks& checks) override {
    RoundResult res;
    const auto rows = runner_.run(jobs_, hook, res, checks);
    SuiteRunner::check_orders(jobs_, rows, orders_, checks);
    return res;
  }

  void probes(Checks& checks) override { pickle_round_trips(seed_, checks); }

 private:
  // Iteration counts (OSU's are 10000/1000); the virtual-time engine is
  // deterministic, so these only set how much host work a round does.
  static constexpr int kIters = 20;
  static constexpr int kWarmup = 2;
  static constexpr int kItersLarge = 2;
  static constexpr int kWarmupLarge = 0;

  std::uint64_t seed_;
  SuiteRunner runner_;
  std::vector<Job> jobs_;
  std::vector<Order> orders_;
};

// ---- campaign-sweep --------------------------------------------------------

class CampaignSweep final : public Workload {
 public:
  CampaignSweep(std::uint64_t seed, const std::string& dir) : runner_(dir) {
    spec_.benches = {"allreduce", "bcast"};
    spec_.clusters = {"frontera-large"};
    spec_.tunings = {"mvapich2"};
    spec_.modes = {"omb-py"};
    spec_.nps = {64, 256};
    spec_.ppns = {32};
    spec_.min_size = 8;
    spec_.max_size = 64 * 1024;
    spec_.iterations = kIters;
    spec_.warmup = kWarmup;
    spec_.reps_min = 3;
    spec_.reps_max = 3;
    spec_.seed = seed;
    spec_.workers = sched::FiberPool::instance().workers();
    spec_.sched = "fibers";
    spec_.cache_dir = dir + "/campaign-cache";
    cells_ = campaign::expand(spec_);

    // The same worlds campaign::run builds, one job per repetition (the
    // replay the counted and hooked rounds run: the campaign API has no
    // metrics switch).
    for (const campaign::Cell& cell : cells_) {
      for (int rep = 0; rep < cell.reps_max; ++rep) {
        core::SuiteConfig cfg;
        cfg.cluster = bench_suite::cluster_by_name(cell.cluster);
        cfg.tuning = bench_suite::tuning_by_name(cell.tuning);
        cfg.mode = bench_suite::mode_by_name(cell.mode);
        cfg.nranks = cell.np;
        cfg.ppn = cell.ppn;
        cfg.opts.min_size = cell.min_size;
        cfg.opts.max_size = cell.max_size;
        cfg.opts.iterations = cell.iterations;
        cfg.opts.warmup = cell.warmup;
        cfg.fault.seed = cell.base_seed + static_cast<std::uint64_t>(rep);
        cfg.sched = sched::Mode::kFibers;
        const core::BenchmarkInfo* info =
            core::Registry::instance().find(cell.bench);
        replay_.push_back({cell.bench + "/np" + std::to_string(cell.np) +
                               "/rep" + std::to_string(rep),
                           cfg, info->fn});
      }
    }
  }

  int max_np() const override { return 256; }

  void setup() override { setup_worlds(configs_of(replay_)); }

  RoundResult round(Hook hook, Checks& checks) override {
    return hook == Hook::kOff ? campaign_round(checks)
                              : replay_round(hook, checks);
  }

  RoundResult hook_baseline(Checks& checks) override {
    return replay_round(Hook::kOff, checks);
  }

  void probes(Checks&) override {}

 private:
  static constexpr int kIters = 4;
  static constexpr int kWarmup = 1;

  RoundResult campaign_round(Checks& checks) {
    RoundResult res;
    fs::remove_all(spec_.cache_dir);
    const double t0 = now_s();
    const double c0 = cpu_s();
    const campaign::Outcome out = campaign::run(spec_);
    res.wall_s = now_s() - t0;
    res.cpu_s = cpu_s() - c0;
    res.campaign = out.counters;

    const auto ncells = static_cast<std::uint64_t>(cells_.size());
    const std::uint64_t nreps = ncells * static_cast<std::uint64_t>(spec_.reps_max);
    res.attempted = ncells + nreps;
    res.failed = out.counters.reps_failed;
    Digest d;
    for (const campaign::CellResult& r : out.results) {
      d.add(cell_label(r.cell));
      if (r.reps == 0) ++res.failed;
      for (const auto& row : r.rows) {
        add_row(d, row.bytes, row.summary);
        ++res.rows;
      }
    }
    res.digest = d.value();

    checks.expect(out.counters.cells_run == ncells &&
                      out.counters.cells_cached == 0 &&
                      out.counters.reps_run == nreps &&
                      out.counters.rows_emitted == res.rows,
                  "campaign counters disagree with the spec");
    std::size_t cached = 0;
    for (const auto& e : fs::directory_iterator(spec_.cache_dir)) {
      cached += e.is_regular_file() ? 1 : 0;
    }
    checks.expect(cached == cells_.size(), "campaign cache not written");
    return res;
  }

  /// The campaign's worlds, replayed through the suite one repetition
  /// at a time, aggregated exactly as campaign::run aggregates them, so the
  /// digest must equal the campaign round's.
  RoundResult replay_round(Hook hook, Checks& checks) {
    RoundResult res;
    const auto rows = runner_.run(replay_, hook, res, checks);
    const auto reps = static_cast<std::size_t>(spec_.reps_max);
    res.attempted = cells_.size() + replay_.size();
    res.failed = 0;
    res.rows = 0;
    Digest d;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      std::map<std::size_t, std::vector<double>> samples;
      std::uint64_t reps_ok = 0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const std::size_t j = c * reps + rep;
        if (rows[j].size() != sizes_in(replay_[j].cfg)) {
          ++res.failed;
          continue;
        }
        ++reps_ok;
        for (const core::Row& r : rows[j]) samples[r.size].push_back(r.stats.avg);
      }
      if (reps_ok == 0) ++res.failed;
      d.add(cell_label(cells_[c]));
      for (const auto& [bytes, vals] : samples) {
        add_row(d, bytes, core::summarize(vals));
        ++res.rows;
      }
    }
    res.digest = d.value();
    return res;
  }

  /// The cell's configuration without its seed, so the digest is the same
  /// for every --seed (a run without faults ignores the seed).
  static std::string cell_label(const campaign::Cell& c) {
    return c.bench + "/" + c.cluster + "/" + c.tuning + "/" + c.mode + "/np" +
           std::to_string(c.np) + "/ppn" + std::to_string(c.ppn);
  }

  static void add_row(Digest& d, std::size_t bytes, const core::Summary& s) {
    d.add(static_cast<std::uint64_t>(bytes));
    d.add(s.mean);
    d.add(s.median);
    d.add(s.variance);
    d.add(s.min);
    d.add(s.max);
  }

  SuiteRunner runner_;
  campaign::Spec spec_;
  std::vector<campaign::Cell> cells_;
  std::vector<Job> replay_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& dir) {
  if (name == "fullsub-coll") return std::make_unique<FullsubColl>(seed, dir);
  if (name == "p2p-pickle") return std::make_unique<P2pPickle>(seed, dir);
  if (name == "campaign-sweep") return std::make_unique<CampaignSweep>(seed, dir);
  return nullptr;
}

}  // namespace hostbench
