// hostbench: host-time benchmark for OMB-X.
//
//   hostbench --workload <fullsub-coll|p2p-pickle|campaign-sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// --trace 0 measures the end-to-end metrics with counters, tracing and
// checking off; --trace 1 is the separate traced run that produces the
// per-layer metrics.  The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// hostbench/run.py builds this binary and pins its run settings.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "probes.hpp"
#include "sched/sched.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;

namespace hostbench {
namespace {

// Set-up sampling: each block runs at least kSetupsPerBlock set-ups and
// lasts at least kSetupBlockS.  setup_s is the fastest sample: on a shared
// host, thread wake-up latency skews set-up samples upwards, and the
// minimum moved less between sets of runs than the lower quartile or the
// median did (see README.md, "Reference figures").
constexpr int kSetupsPerBlock = 3;
constexpr double kSetupBlockS = 1.0;
// Paired hook rounds of a traced run.
constexpr int kHookTriples = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/hostbench-out";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v) != 0;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::uint64_t counter(const RoundResult& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

std::uint64_t msgs_of(const RoundResult& r) {
  return counter(r, "eager_msgs") + counter(r, "rendezvous_msgs") +
         counter(r, "self_msgs");
}

void print_json(const Checks& checks, std::uint64_t attempted,
                std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              checks.failures.empty() ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Runs a probe; a probe that throws is a failed check, not a lost run.
void guarded(Checks& checks, const char* what, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    checks.expect(false, std::string(what) + " threw: " + e.what());
  }
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  bool first = true;

  /// Every round of a process must produce the same virtual-time rows,
  /// whatever hook it ran with (zero perturbation) and whichever path.
  void add(const RoundResult& r, Hook hook, Checks& checks) {
    attempted += r.attempted;
    failed += r.failed;
    if (first) digest = r.digest;
    first = false;
    checks.expect(r.digest == digest,
                  std::string("virtual-time rows differ in a round with hook ") +
                      to_string(hook));
  }
};

int run(const Args& args) {
  const std::string dir = args.out_dir + "/run-" + std::to_string(getpid());
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed, dir);
  if (!wl) {
    std::fprintf(stderr, "hostbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Run settings: a number is only comparable at the same pool size.
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = ombx::sched::FiberPool::instance().workers();
  const char* backend =
      ombx::sched::to_string(ombx::sched::resolve(ombx::sched::Mode::kFibers));
  std::printf("hostbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("hostbench: build_type=%s backend=%s pool_workers=%d "
              "campaign_workers=%d nproc=%d\n",
              HOSTBENCH_BUILD_TYPE, backend, workers, workers, nproc);
  if (workers > nproc || std::string(backend) != "fibers") {
    std::fprintf(stderr, "hostbench: run settings out of range (need fibers, "
                         "pool workers <= nproc)\n");
    return 2;
  }
  fs::remove_all(dir);
  fs::create_directories(dir);

  Checks checks;
  Totals totals;
  SpanLog spans;
  std::vector<Metric> metrics;
  const int root = spans.open(args.workload);

  if (!args.trace) {
    // Every timed round (all hooks off) follows a block of set-ups, so the
    // set-up samples span the whole run instead of its first seconds.  The
    // first set-up pays one-off costs (starting the pool workers) and is
    // not sampled.
    wl->setup();
    std::vector<double> setup;
    std::vector<double> wall;
    std::vector<double> cpu;
    const double t0 = now_s();
    do {
      {
        Scope block(spans, "setup");
        const double b0 = now_s();
        for (int n = 0; n < kSetupsPerBlock || now_s() - b0 < kSetupBlockS; ++n) {
          const double s0 = now_s();
          wl->setup();
          setup.push_back(now_s() - s0);
        }
      }
      Scope s(spans, "round.off");
      const RoundResult r = wl->round(Hook::kOff, checks);
      totals.add(r, Hook::kOff, checks);
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
    } while (now_s() - t0 < args.seconds);
    // Read before the counted round, so the peak is that of hooks-off work.
    const double rss_mb = peak_rss_mb();
    // One counted round (obs counters on) gives the message count.
    RoundResult counted;
    {
      Scope s(spans, "round.metrics");
      counted = wl->round(Hook::kMetrics, checks);
    }
    totals.add(counted, Hook::kMetrics, checks);
    {
      Scope s(spans, "probes");
      guarded(checks, "correctness probes", [&] { wl->probes(checks); });
    }
    std::printf("hostbench: setup_s n=%zu min=%.6f p10=%.6f p25=%.6f "
                "median=%.6f p75=%.6f\n",
                setup.size(), quantile(setup, 0.0), quantile(setup, 0.1),
                quantile(setup, 0.25), median(setup), quantile(setup, 0.75));
    std::printf("hostbench: round wall_s/cpu_s:");
    for (std::size_t i = 0; i < wall.size(); ++i) {
      std::printf(" %.3f/%.3f", wall[i], cpu[i]);
    }
    std::printf("\n");
    const std::uint64_t msgs = msgs_of(counted);
    checks.expect(msgs > 0, "no simulated messages counted");
    std::printf("hostbench: rows_per_round=%" PRIu64 " digest=%016" PRIx64
                " msgs_per_round=%" PRIu64 " timed_rounds=%zu\n",
                counted.rows, totals.digest, msgs, wall.size());
    metrics = {
        {"setup_s", "s", quantile(setup, 0.0)},
        {"wall_s", "s", median(wall)},
        {"cpu_s", "s", median(cpu)},
        {"sim_msgs_per_s", "msg/s", static_cast<double>(msgs) / median(wall)},
        {"peak_rss_mb", "MB", rss_mb},
    };
  } else {
    const auto hooked = [&](const char* name, Hook hook, bool baseline) {
      Scope s(spans, name);
      const RoundResult r =
          baseline ? wl->hook_baseline(checks) : wl->round(hook, checks);
      totals.add(r, hook, checks);
      return r;
    };
    // A counted warm-up round, then kHookTriples triples of adjacent
    // baseline / counters-on / checker-on rounds.  A hook's overhead is the
    // median over the triples of its round minus the baseline before it,
    // which cancels drift between triples.
    const RoundResult m1 = hooked("round.metrics", Hook::kMetrics, false);
    RoundResult m2;
    std::vector<double> metrics_extra;
    std::vector<double> check_extra;
    for (int t = 0; t < kHookTriples; ++t) {
      const RoundResult base = hooked("round.baseline", Hook::kOff, true);
      m2 = hooked("round.metrics", Hook::kMetrics, false);
      const RoundResult chk = hooked("round.check", Hook::kCheck, false);
      checks.expect(m1.counters == m2.counters,
                    "program-order counters differ between two counted rounds");
      metrics_extra.push_back(m2.wall_s - base.wall_s);
      check_extra.push_back(chk.wall_s - base.wall_s);
    }
    const RoundResult off = hooked("round.off", Hook::kOff, false);
    {
      Scope s(spans, "probes");
      guarded(checks, "correctness probes", [&] { wl->probes(checks); });
      guarded(checks, "layer probes", [&] {
        layer_probes(wl->max_np(), args.seed, checks, metrics, spans);
      });
    }
    std::printf("hostbench: rows_per_round=%" PRIu64 " digest=%016" PRIx64
                " msgs_per_round=%" PRIu64 "\n",
                m2.rows, totals.digest, msgs_of(m2));

    const auto count = [&](const char* name, double v) {
      metrics.push_back({name, "count", v});
    };
    const auto c = [&](const char* name) {
      return static_cast<double>(counter(m2, name));
    };
    count("mpi.msgs", static_cast<double>(msgs_of(m2)));
    count("mpi.eager_msgs", c("eager_msgs"));
    count("mpi.rendezvous_msgs", c("rendezvous_msgs"));
    count("mpi.self_msgs", c("self_msgs"));
    metrics.push_back({"mpi.bytes", "B",
                       c("eager_bytes") + c("rendezvous_bytes") + c("self_bytes")});
    count("mailbox.exact_hits", c("mailbox_exact_hits"));
    count("mailbox.mru_hits", c("mailbox_mru_hits"));
    count("mailbox.wildcard_scans", c("mailbox_wildcard_scans"));
    // Exact, MRU and wildcard are disjoint classes of successful dequeues.
    const double dequeues = c("mailbox_exact_hits") + c("mailbox_mru_hits") +
                            c("mailbox_wildcard_scans");
    metrics.push_back({"mailbox.mru_ratio", "ratio",
                       dequeues > 0 ? c("mailbox_mru_hits") / dequeues : 0.0});
    count("payload.inline", c("payload_inline"));
    count("payload.pooled", c("payload_pooled"));
    count("payload.heap", c("payload_heap"));
    count("campaign.cells_run", static_cast<double>(off.campaign.cells_run));
    count("campaign.reps_run", static_cast<double>(off.campaign.reps_run));
    metrics.push_back(
        {"campaign.rep_s", "s",
         off.campaign.reps_run > 0
             ? off.wall_s / static_cast<double>(off.campaign.reps_run)
             : 0.0});
    metrics.push_back({"hooks.metrics_extra_s", "s", median(metrics_extra)});
    metrics.push_back({"hooks.check_extra_s", "s", median(check_extra)});
  }
  (void)spans.close(root);
  if (args.trace) spans.write_json(args.out_dir + "/spans-" + args.workload + ".json");
  fs::remove_all(dir);

  for (const std::string& f : checks.failures) {
    std::printf("hostbench: CHECK FAILED: %s\n", f.c_str());
  }
  print_json(checks, totals.attempted, totals.failed, metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  try {
    return hostbench::run(hostbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: error: %s\n", e.what());
    return 1;
  }
}
