// Telemetry-overhead ablation: what does observability cost?
//
// Runs the full pipeline twice per circuit: once with
// SimOptions::telemetry == nullptr — the default, where every
// instrumentation site in bdd/, core/, util/ and store/ is one
// dormant branch (the exact hot path of an uninstrumented build) —
// and once with a live Telemetry context collecting every metric,
// span and histogram described in docs/OBSERVABILITY.md. The delta
// between the two bounds the *entire* cost of the observability
// layer from above: the disabled path can only be cheaper than the
// enabled one it is a strict subset of.
//
// The harness exits nonzero if enabled telemetry costs more than 2%
// wall-clock over the disabled baseline — which simultaneously proves
// the disabled path is within the 2% budget of an instrumentation-free
// build. When enabled it prints the paper-facing resource numbers:
// apply-cache hit rate, peak live OBDD nodes against the space limit,
// and the per-phase seconds table (paper Tables II-IV report exactly
// these time/space columns).
//
// Environment (see bench_common.h): MOTSIM_FULL, MOTSIM_VECTORS,
// MOTSIM_SEED, plus
//   MOTSIM_THREADS=n   worker threads of the symbolic stage (default 2)

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "obs/log.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;
using namespace motsim::bench;

namespace {

struct Measurement {
  double seconds = 0;
  std::size_t detected = 0;
};

Measurement measure(const Netlist& nl, const std::vector<Fault>& faults,
                    const TestSequence& seq, const SimOptions& opts,
                    int reps, obs::Telemetry* telemetry) {
  Measurement best;
  best.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    SimOptions run = opts;
    run.telemetry = telemetry;
    Stopwatch timer;
    const PipelineResult r = run_pipeline(nl, faults, seq, run);
    const double secs = timer.elapsed_seconds();
    if (secs < best.seconds) {
      best.seconds = secs;
      best.detected = r.detected_3v + r.detected_symbolic;
    }
  }
  return best;
}

double counter_of(const obs::MetricsSnapshot& s, const char* name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return static_cast<double>(v);
  }
  return 0;
}

double gauge_of(const obs::MetricsSnapshot& s, const char* name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

int main() {
  print_preamble("telemetry ablation",
                 "cost of the observability layer, off vs on");

  const std::size_t threads =
      static_cast<std::size_t>(env_int("MOTSIM_THREADS", 2));
  const std::size_t vectors =
      static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 96));
  const int reps = full_mode() ? 5 : 3;

  std::vector<std::string> names{"s526"};
  if (full_mode()) {
    names.push_back("s1238");
    names.push_back("s1423");
  }

  bool budget_met = true;
  for (const std::string& name : names) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(workload_seed());
    const TestSequence seq = random_sequence(nl, vectors, rng);

    SimOptions opts;
    opts.threads = threads;
    std::printf("%s: %zu faults, %zu vectors, %zu threads, best of %d\n",
                name.c_str(), faults.size(), seq.size(), threads, reps);

    // One untimed warmup so the off-measurement doesn't pay the
    // process's cold caches and page faults on behalf of both modes.
    (void)measure(nl, faults.faults(), seq, opts, 1, nullptr);

    const Measurement off =
        measure(nl, faults.faults(), seq, opts, reps, nullptr);
    obs::Telemetry telemetry;
    const Measurement on =
        measure(nl, faults.faults(), seq, opts, reps, &telemetry);

    // The whole stack at once: metrics + spans + recorder, plus a live
    // JSONL log sink at the default Info level and the background
    // sampler — everything `--log X --sample-interval 5` turns on.
    const std::string scratch =
        (std::filesystem::temp_directory_path() / "motsim_ablation_obs")
            .string();
    std::filesystem::create_directories(scratch);
    obs::Telemetry full_tele;
    auto logger =
        obs::Logger::open(scratch + "/" + name + ".log.jsonl",
                          obs::LogLevel::Info);
    Measurement full;
    if (logger.has_value()) {
      full_tele.attach_logger(logger->get());
      auto sampler = obs::Sampler::start(
          full_tele, scratch + "/" + name + ".samples.jsonl", 5);
      full = measure(nl, faults.faults(), seq, opts, reps, &full_tele);
      if (sampler.has_value()) (*sampler)->stop();
      full_tele.attach_logger(nullptr);
    } else {
      std::fprintf(stderr, "ablation_obs: %s\n", logger.error().c_str());
      full = on;
    }

    const double overhead =
        off.seconds > 0 ? (on.seconds - off.seconds) / off.seconds : 0.0;
    const double full_overhead =
        off.seconds > 0 ? (full.seconds - off.seconds) / off.seconds : 0.0;
    std::printf("  %-18s %9.3f s   %zu detected\n", "telemetry off",
                off.seconds, off.detected);
    std::printf("  %-18s %9.3f s   %zu detected   overhead %+.1f%%\n",
                "telemetry on", on.seconds, on.detected, overhead * 100.0);
    std::printf("  %-18s %9.3f s   %zu detected   overhead %+.1f%%\n",
                "full obs stack", full.seconds, full.detected,
                full_overhead * 100.0);
    if (on.detected != off.detected || full.detected != off.detected) {
      std::fprintf(stderr,
                   "RESULT DIVERGENCE: %s detects %zu with telemetry, "
                   "%zu with the full stack, %zu without\n",
                   name.c_str(), on.detected, full.detected, off.detected);
      budget_met = false;
    }
    if (overhead >= 0.02) {
      std::fprintf(stderr,
                   "BUDGET VIOLATION: %s telemetry costs %.1f%% "
                   "(budget 2%%)\n",
                   name.c_str(), overhead * 100.0);
      budget_met = false;
    }
    if (full_overhead >= 0.02) {
      std::fprintf(stderr,
                   "BUDGET VIOLATION: %s full observability stack costs "
                   "%.1f%% (budget 2%%)\n",
                   name.c_str(), full_overhead * 100.0);
      budget_met = false;
    }

    // The paper-facing resource numbers (Tables II-IV time/space
    // columns), straight from the enabled run's registry. Repeated
    // measure() reps accumulate into one context; the ratios and
    // peaks below are rep-invariant.
    const obs::MetricsSnapshot s = telemetry.metrics.snapshot();
    const double lookups = counter_of(s, "bdd.apply_cache_lookups");
    const double hits = counter_of(s, "bdd.apply_cache_hits");
    std::printf("  apply-cache hit rate   %6.2f%%  (%.0f / %.0f)\n",
                lookups > 0 ? 100.0 * hits / lookups : 0.0, hits, lookups);
    std::printf("  peak live OBDD nodes   %6.0f   (space limit %zu)\n",
                gauge_of(s, "bdd.peak_live_nodes"), opts.node_limit);
    std::printf("  gc runs                %6.0f   (%.0f nodes reclaimed, "
                "%.3f s)\n",
                counter_of(s, "bdd.gc_runs"),
                counter_of(s, "bdd.gc_reclaimed_nodes"),
                gauge_of(s, "bdd.gc_seconds"));
    std::printf("\nper-phase seconds (all reps):\n%s\n",
                telemetry.tracer.phase_summary().c_str());
  }

  if (!budget_met) return 1;
  std::printf("telemetry overhead (bare and full stack) is within the 2%% "
              "budget and results are identical off vs on.\n");
  return 0;
}
