// omb_run: the OMB-Py-style command-line driver.  Runs any benchmark from
// the registry with user options (the paper's Sec. IV-F flag set).
//
//   $ ./omb_run --list
//   $ ./omb_run latency --cluster frontera --ppn 2 --mode omb-py
//   $ ./omb_run allreduce --nranks 16 --min 4 --max 1048576 --mode omb-c
//   $ ./omb_run latency --buffer cupy --cluster ri2-gpu --mode omb-py
//
// Schedule-space exploration (explore/explorer.hpp):
//   $ ./omb_run allreduce --ft --kill 3@400 --nranks 4 --explore
//         --explore-budget 32 --explore-out repro.sched
//   $ ./omb_run allreduce --ft --kill 3@400 --nranks 4
//         --replay-schedule repro.sched
//
// Campaign mode (campaign/campaign.hpp): a declarative sweep spec instead
// of one benchmark, executed across a worker pool with per-cell stopping
// rules and a reproducibility manifest per row:
//   $ ./omb_run --campaign sweep.spec --campaign-workers 4 --csv
#include <iostream>
#include <string>

#include "bench_suite/cli.hpp"
#include "campaign/campaign.hpp"
#include "bench_suite/suite.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "explore/explore.hpp"
#include "explore/explorer.hpp"
#include "mpi/error.hpp"

namespace {

using namespace ombx;

/// Run the selected benchmark once under the given config.  Exploration
/// re-invokes this per candidate schedule with cfg.oracle armed.
void run_once(const core::BenchmarkInfo* info, const bench_suite::CliOptions& cli,
              const core::SuiteConfig& cfg, bool print) {
  if (cli.ft_mode) {
    const core::FtReport report = bench_suite::run_ft_collective(
        cfg, bench_suite::ft_bench_by_name(cli.bench));
    if (!print) return;
    const core::Table table = core::ft_resilience_table(report);
    if (cli.csv) {
      table.write_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    return;
  }
  const auto rows = info->fn(cfg);
  if (!print) return;
  const bool is_bw = info->metric == "bandwidth_mbps";
  core::Table table(
      "OMB-X " + cli.bench + " (" + cfg.cluster.name + ", " +
          cfg.tuning.name + ", " + core::to_string(cfg.mode) + ", " +
          buffers::to_string(cfg.buffer) + ")",
      {"Size", is_bw ? "Bandwidth (MB/s)" : "Avg Latency (us)",
       "Min", "Max"});
  for (const auto& r : rows) {
    table.add_row(r.size, {r.stats.avg, r.stats.min, r.stats.max});
  }
  if (cli.csv) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// --explore: drive the benchmark through alternate wildcard schedules
/// with strict checking as the violation oracle.  Exit 3 when a failing
/// schedule is found (and write its reproducer to --explore-out).
int run_explore(const core::BenchmarkInfo* info, const bench_suite::CliOptions& cli) {
  core::SuiteConfig cfg = cli.cfg;
  cfg.check.enabled = true;
  cfg.check.strict = true;
  cfg.oracle = std::make_shared<explore::ScheduleOracle>(cfg.nranks);

  explore::SearchConfig sc;
  sc.mode = cli.explore_mode == "fuzz" ? explore::SearchMode::kFuzz
                                       : explore::SearchMode::kDpor;
  sc.budget = cli.explore_budget;

  const explore::RunFn run_one = [&](const explore::Schedule& sched) {
    explore::RunResult rr;
    cfg.oracle->arm(sched);
    try {
      run_once(info, cli, cfg, /*print=*/false);
    } catch (const mpi::DeadlockError& e) {
      rr.failed = true;
      rr.deadlock = true;
      rr.what = e.what();
    } catch (const std::exception& e) {
      rr.failed = true;
      rr.what = e.what();
    }
    rr.log = cfg.oracle->log();
    rr.diverged = cfg.oracle->diverged();
    return rr;
  };

  const explore::SearchResult res = explore::search(run_one, sc);
  std::cerr << "[ombx::explore] " << res.runs << " schedule(s) run, "
            << res.shrink_runs << " shrink run(s), "
            << res.findings.size() << " finding(s)"
            << (res.exhausted ? ", space exhausted" : "") << "\n";
  if (res.findings.empty()) return 0;

  const explore::Finding& f = res.findings.front();
  std::cerr << "[ombx::explore] failing schedule ("
            << (f.deadlock ? "deadlock" : "violation") << "): " << f.what
            << "\n";
  if (!cli.explore_out.empty()) {
    explore::Schedule repro = f.schedule;
    repro.nranks = cfg.nranks;
    explore::save_schedule(repro, cli.explore_out);
    std::cerr << "[ombx::explore] reproducer written to " << cli.explore_out
              << "; replay with --replay-schedule\n";
  }
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  core::register_suite();

  bench_suite::CliOptions cli;
  try {
    cli = bench_suite::parse_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help) {
    bench_suite::print_usage(std::cout);
    return argc < 2 ? 1 : 0;
  }
  if (cli.list) {
    for (const auto cat :
         {core::Category::kPointToPoint, core::Category::kBlockingCollective,
          core::Category::kVectorCollective}) {
      std::cout << core::to_string(cat) << ":\n";
      for (const auto* b : core::Registry::instance().by_category(cat)) {
        std::cout << "  " << b->name << " — " << b->description << "\n";
      }
    }
    return 0;
  }

  if (!cli.campaign_spec.empty()) {
    try {
      campaign::Spec spec = campaign::load_spec(cli.campaign_spec);
      if (cli.campaign_workers > 0) spec.workers = cli.campaign_workers;
      const campaign::Outcome out = campaign::run(spec);
      const core::Table table = campaign::to_table(out);
      if (cli.json) {
        table.write_json(std::cout);
      } else if (cli.csv) {
        table.write_csv(std::cout);
      } else {
        table.print(std::cout);
      }
      // Counters go to stderr so the results stream stays byte-identical
      // across cached and uncached re-runs of the same spec.
      campaign::counters_table(out.counters).print(std::cerr);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  const auto* info = core::Registry::instance().find(cli.bench);
  if (info == nullptr && !cli.ft_mode) {
    std::cerr << "unknown benchmark '" << cli.bench << "'; try --list\n";
    return 1;
  }

  try {
    if (cli.explore) return run_explore(info, cli);

    core::SuiteConfig cfg = cli.cfg;
    if (!cli.replay_schedule.empty()) {
      const explore::Schedule sched =
          explore::load_schedule(cli.replay_schedule);
      if (sched.nranks > 0 && sched.nranks != cfg.nranks) {
        throw std::invalid_argument(
            "--replay-schedule was recorded with nranks=" +
            std::to_string(sched.nranks) + ", run has nranks=" +
            std::to_string(cfg.nranks));
      }
      cfg.oracle = std::make_shared<explore::ScheduleOracle>(cfg.nranks);
      cfg.oracle->arm(sched);
      std::cerr << "[ombx::explore] replaying " << cli.replay_schedule
                << " (" << sched.pins.size() << " pinned decision(s))\n";
    }
    run_once(info, cli, cfg, /*print=*/true);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
