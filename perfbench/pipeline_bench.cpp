// pipeline_bench — timed harness around the whole motsim fault-simulation
// pipeline (ID_X-red -> three-valued stage -> hybrid symbolic stage).
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//
// One run:
//   1. writes the workload's circuits as .bench text and derives every
//      input (synthetic circuits, random test sequences) from --seed;
//   2. set-up: parse the .bench text, collapse the fault lists, generate
//      the sequences — once before the first round and again after
//      every round (setup_s is the median);
//   3. one untimed warm-up round over the jobs; its verdicts are the
//      expected ones;
//   4. --trace 0: whole rounds over the job list until --seconds is
//      spent, timing every run_pipeline call (the end-to-end metrics);
//      --trace 1: the same rounds with a Telemetry context attached and
//      the benchmark's own spans around each layer it calls into (the
//      per-layer metrics);
//   5. re-runs every job under a differential configuration the engines
//      guarantee bit-identical and compares the verdicts.
//
// The last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 on success, 1 on an internal error, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cone.h"
#include "analysis/sgraph.h"
#include "analysis/trim.h"
#include "bench_data/registry.h"
#include "bench_data/synth_gen.h"
#include "circuit/bench_io.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "obs/telemetry.h"
#include "tpg/sequences.h"
#include "util/rng.h"

using namespace motsim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- workloads --------------------------------------------------------

/// One job's circuit, stored as the .bench text a user would load, and
/// the observation strategy its symbolic stage runs under.
struct Source {
  std::string name;
  std::string bench_text;
  std::size_t vectors = 200;
  std::uint64_t sequence_seed = 0;
  Strategy strategy = Strategy::Mot;
};

struct Workload {
  SimOptions options;
  std::vector<Source> sources;
};

/// Roster circuits of every sequential style (counter, controller,
/// twin-paths, random logic) whose symbolic MOT cost varies little from
/// one random sequence to the next, so runs with different seeds
/// measure comparable work. Each job takes 20-300 ms.
const char* const kSymbolicMix[] = {"s208.1", "s386", "s510",  "s713",
                                    "s820",   "s832", "s1488", "s1494"};

/// Larger roster circuits for the three-valued-only workload.
const char* const kX01Mix[] = {"s641",  "s713",  "s1196", "s1238",
                               "s1423", "s1488", "s1494"};

/// Adds one job per strategy for a roster circuit, each with its own
/// random sequence of 200 frames.
void add_roster(Workload& w, const char* name,
                std::initializer_list<Strategy> strategies,
                std::uint64_t& state) {
  const std::string text = write_bench_string(make_benchmark(name));
  for (const Strategy s : strategies) {
    w.sources.push_back(Source{name, text, 200, splitmix64(state), s});
  }
}

/// Builds the named workload; every input is a pure function of `seed`.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  std::uint64_t state = seed;
  constexpr Strategy kMot = Strategy::Mot;
  Workload w;
  if (name == "mot_serial") {
    for (const char* c : kSymbolicMix) add_roster(w, c, {kMot, kMot}, state);
  } else if (name == "sot_rmot") {
    for (const char* c : kSymbolicMix) {
      add_roster(w, c, {Strategy::Sot, Strategy::Rmot}, state);
    }
  } else if (name == "x01") {
    w.options.run_symbolic = false;
    // Three sequences per circuit; the strategy is unused.
    for (const char* c : kX01Mix) add_roster(w, c, {kMot, kMot, kMot}, state);
  } else if (name == "acyclic") {
    // Feedback-free DFF chains: every flip-flop has a finite
    // synchronization depth, so the s-graph pass downgrades MOT faults
    // to SOT-equivalent updates once their horizon passes.
    struct Shape {
      std::size_t inputs, outputs, dffs, gates;
    };
    const Shape shapes[] = {{5, 3, 10, 80},   {6, 4, 16, 140},
                            {8, 4, 24, 200},  {8, 6, 32, 260},
                            {10, 6, 40, 320}, {12, 8, 48, 400}};
    int index = 0;
    for (const Shape& s : shapes) {
      for (int copy = 0; copy < 2; ++copy) {
        const std::string cname = "apipe" + std::to_string(index++);
        const Netlist nl = generate_circuit(
            SynthSpec{cname, s.inputs, s.outputs, s.dffs, s.gates,
                      CircuitStyle::AcyclicPipeline, splitmix64(state)});
        w.sources.push_back(Source{cname, write_bench_string(nl), 96,
                                   splitmix64(state), kMot});
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---- set-up -------------------------------------------------------------

/// Prepared inputs of one job.
struct Job {
  Netlist netlist;
  std::vector<Fault> faults;
  TestSequence sequence;
  Strategy strategy;
};

struct SetupTimes {
  double parse = 0, collapse = 0, sequence = 0;
  [[nodiscard]] double total() const { return parse + collapse + sequence; }
};

std::vector<Job> prepare(const std::vector<Source>& sources, SetupTimes& t) {
  std::vector<Job> jobs;
  jobs.reserve(sources.size());
  for (const Source& s : sources) {
    auto t0 = Clock::now();
    Netlist nl = parse_bench_string(s.bench_text, s.name);
    t.parse += seconds_since(t0);
    t0 = Clock::now();
    std::vector<Fault> faults = CollapsedFaultList(nl).faults();
    t.collapse += seconds_since(t0);
    t0 = Clock::now();
    Rng rng(s.sequence_seed);
    TestSequence seq = random_sequence(nl, s.vectors, rng);
    t.sequence += seconds_since(t0);
    jobs.push_back(
        Job{std::move(nl), std::move(faults), std::move(seq), s.strategy});
  }
  return jobs;
}

// ---- verdicts -------------------------------------------------------------

struct Verdict {
  std::vector<FaultStatus> status;
  std::vector<std::uint32_t> detect_frame;
  std::size_t detected = 0;

  friend bool operator==(const Verdict& a, const Verdict& b) {
    return a.status == b.status && a.detect_frame == b.detect_frame;
  }
};

Verdict verdict_of(const PipelineResult& r) {
  Verdict v{r.status, r.detect_frame, 0};
  for (const FaultStatus s : r.status) v.detected += is_detected(s);
  return v;
}

/// Runs one job; `seconds` (optional) receives its wall time.
Verdict run_job(const Job& job, SimOptions options,
                double* seconds = nullptr) {
  options.strategy = job.strategy;
  const auto t0 = Clock::now();
  const PipelineResult r =
      run_pipeline(job.netlist, job.faults, job.sequence, options);
  if (seconds != nullptr) *seconds = seconds_since(t0);
  return verdict_of(r);
}

/// Configuration the engines guarantee bit-identical to `o`: the
/// s-graph pass is a pure performance knob and both three-valued
/// backends produce the same verdicts. Trimming stays as configured:
/// turning it off changes the live OBDD sizes and with them the frames
/// at which the space limit opens fallback windows, so verdicts can
/// differ once a window opens (s953 under some sequences).
SimOptions differential_options(SimOptions o) {
  o.sgraph = !o.sgraph;
  o.sim3_backend = o.sim3_backend == Sim3Backend::Event ? Sim3Backend::BitPar
                                                        : Sim3Backend::Event;
  return o;
}

// ---- output ---------------------------------------------------------------

/// Unit of a metric, from its name's suffix.
const char* unit_of(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_pct")) return "%";
  if (ends_with("_ratio")) return "ratio";
  if (ends_with("_per_s")) return "1/s";
  if (ends_with("_mib")) return "MiB";
  if (ends_with("_s")) return "s";
  return "count";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::map<std::string, double>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), value, unit_of(name));
    sep = ", ";
  }
  std::printf("}}\n");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- traced run -------------------------------------------------------------

std::uint64_t counter_of(const obs::MetricsSnapshot& s, const char* name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

double gauge_of(const obs::MetricsSnapshot& s, const char* name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return v;
  }
  return 0;
}

/// Per-layer totals of one round over the job list.
using RoundStats = std::map<std::string, double>;

/// Shard workers of the sharded sibling run in traced mode.
constexpr std::size_t kShardThreads = 2;

/// Adds the counters every engine run reports into `round`, each name
/// prefixed with `prefix`.
void add_engine_counters(const obs::MetricsSnapshot& s, RoundStats& round,
                         const std::string& prefix) {
  round[prefix + "symbolic_frames_ms"] +=
      1e3 * gauge_of(s, "hybrid.symbolic_seconds");
  round[prefix + "symbolic_frames"] +=
      static_cast<double>(counter_of(s, "hybrid.symbolic_frames"));
  round[prefix + "bdd_nodes_created"] +=
      static_cast<double>(counter_of(s, "bdd.nodes_created"));
}

/// Runs one job with telemetry attached and the benchmark's own spans
/// around the static plan builds the symbolic stage performs, adding
/// every per-layer figure into `round`; `seconds` receives the wall
/// time of the traced run_pipeline call. Symbolic jobs then run once
/// more on the fault-sharded engine (ParallelSymSim), untimed by the end-to-end metrics.
Verdict traced_job(const Job& job, SimOptions options, RoundStats& round,
                   double& seconds) {
  options.strategy = job.strategy;
  if (options.run_symbolic) {
    auto t0 = Clock::now();
    const SgraphPlan plan = build_sgraph_plan(job.netlist, job.faults);
    round["sgraph_plan_ms"] += 1e3 * seconds_since(t0);
    round["sgraph_sccs"] += static_cast<double>(plan.nontrivial_sccs);
    round["finite_horizons"] +=
        static_cast<double>(plan.finite_horizon_count());
    t0 = Clock::now();
    (void)build_trim_plan(job.netlist, job.faults);
    round["trim_plan_ms"] += 1e3 * seconds_since(t0);
    std::vector<std::size_t> live(job.faults.size());
    for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
    t0 = Clock::now();
    (void)cluster_live_order(job.netlist, job.faults, live);
    round["cluster_order_ms"] += 1e3 * seconds_since(t0);
  }

  obs::Telemetry telemetry;
  options.telemetry = &telemetry;
  const auto t0 = Clock::now();
  const PipelineResult r =
      run_pipeline(job.netlist, job.faults, job.sequence, options);
  seconds = seconds_since(t0);

  const obs::MetricsSnapshot s = telemetry.metrics.snapshot();
  add_engine_counters(s, round, "");
  round["xred_ms"] += 1e3 * r.seconds_xred;
  round["sim3_ms"] += 1e3 * r.seconds_3v;
  round["symbolic_ms"] += 1e3 * r.seconds_symbolic;
  round["fallback_ms"] += 1e3 * gauge_of(s, "hybrid.fallback_seconds");
  round["detected_3v"] += static_cast<double>(r.detected_3v);
  round["detected_symbolic"] += static_cast<double>(r.detected_symbolic);
  round["x_redundant"] += static_cast<double>(r.x_redundant);
  round["three_valued_frames"] +=
      static_cast<double>(counter_of(s, "hybrid.three_valued_frames"));
  round["fallback_windows"] +=
      static_cast<double>(counter_of(s, "hybrid.fallback_windows"));
  round["frames_skipped"] += static_cast<double>(r.frames_skipped);
  round["faults_terminated_early"] +=
      static_cast<double>(r.faults_terminated_early);
  round["faultfree_evals_shared"] +=
      static_cast<double>(r.faultfree_evals_shared);
  round["mot_downgrades"] += static_cast<double>(r.mot_downgrades);
  round["bdd_gc_runs"] += static_cast<double>(counter_of(s, "bdd.gc_runs"));
  round["bdd_cache_lookups"] +=
      static_cast<double>(counter_of(s, "bdd.apply_cache_lookups"));
  round["bdd_cache_hits"] +=
      static_cast<double>(counter_of(s, "bdd.apply_cache_hits"));
  round["bdd_peak_live_nodes"] = std::max(
      round["bdd_peak_live_nodes"], gauge_of(s, "bdd.peak_live_nodes"));
  round["sim3_words_evaluated"] +=
      static_cast<double>(counter_of(s, "sim3.words_evaluated"));

  if (options.run_symbolic) {
    obs::Telemetry sharded_telemetry;
    SimOptions sharded = options;
    sharded.threads = kShardThreads;
    sharded.telemetry = &sharded_telemetry;
    const PipelineResult rs =
        run_pipeline(job.netlist, job.faults, job.sequence, sharded);
    const obs::MetricsSnapshot ss = sharded_telemetry.metrics.snapshot();
    add_engine_counters(ss, round, "sharded_");
    round["sharded_symbolic_ms"] += 1e3 * rs.seconds_symbolic;
    round["parallel_shards"] +=
        static_cast<double>(counter_of(ss, "parallel.shards"));
    round["parallel_busy_s"] += gauge_of(ss, "parallel.busy_seconds");
    round["parallel_idle_s"] += gauge_of(ss, "parallel.idle_seconds");
  }
  return verdict_of(r);
}

// ---- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        a.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);

  // Set-up runs once before the first round and again after every
  // round, so its samples spread over the whole run like the jobs'.
  std::vector<double> setup_s, parse_ms, collapse_ms, sequence_ms;
  const auto set_up = [&] {
    SetupTimes t;
    std::vector<Job> prepared = prepare(w.sources, t);
    setup_s.push_back(t.total());
    parse_ms.push_back(1e3 * t.parse);
    collapse_ms.push_back(1e3 * t.collapse);
    sequence_ms.push_back(1e3 * t.sequence);
    return prepared;
  };
  const std::vector<Job> jobs = set_up();

  // Warm-up round: fills caches and allocator pools and fixes the
  // expected verdict of every job.
  std::vector<Verdict> expected;
  for (const Job& job : jobs) expected.push_back(run_job(job, w.options));

  // Whole rounds over the job list, so every job is sampled equally
  // often; a round starts only if it is expected to end in time.
  std::size_t attempted = 0, failed = 0;
  std::vector<std::vector<double>> seconds_of_job(jobs.size());
  std::vector<RoundStats> rounds;
  const auto start = Clock::now();
  double last_round = 0;
  do {
    const auto round_start = Clock::now();
    RoundStats* const round = args.trace ? &rounds.emplace_back() : nullptr;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      double s = 0;
      const Verdict v = round != nullptr
                            ? traced_job(jobs[j], w.options, *round, s)
                            : run_job(jobs[j], w.options, &s);
      seconds_of_job[j].push_back(s);
      ++attempted;
      failed += !(v == expected[j]);
    }
    last_round = seconds_since(round_start);
    (void)set_up();
  } while (seconds_since(start) + last_round <= args.seconds);
  const double rss_mib = peak_rss_mib();

  // Differential check against the bit-identical reference settings.
  const SimOptions reference = differential_options(w.options);
  std::size_t detected = 0;
  bool correct = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    correct &= run_job(jobs[j], reference) == expected[j];
    detected += expected[j].detected;
  }
  correct &= detected > 0 && failed == 0;

  // Each job's latency is its best round: host interference only ever
  // adds time, and the minimum over rounds filters it out.
  std::vector<double> best(jobs.size());
  double fault_frames = 0, busy = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    best[j] = *std::min_element(seconds_of_job[j].begin(),
                                seconds_of_job[j].end());
    fault_frames += static_cast<double>(jobs[j].faults.size() *
                                        jobs[j].sequence.size());
    busy += best[j];
  }

  std::map<std::string, double> metrics;
  if (!args.trace) {
    metrics = {
        {"job_p50_ms", 1e3 * median(best)},
        {"job_p90_ms", 1e3 * quantile(best, 0.9)},
        {"fault_frames_per_s", fault_frames / busy},
        {"peak_rss_mib", rss_mib},
        {"setup_s", median(setup_s)},
    };
  } else {
    // Every per-layer figure is the median over rounds of its round
    // total; ratios are formed per round first.
    std::map<std::string, std::vector<double>> per_round;
    for (RoundStats& r : rounds) {
      if (r["symbolic_ms"] > 0) {
        r["symbolic_unattributed_ms"] =
            r["symbolic_ms"] - r["symbolic_frames_ms"] - r["fallback_ms"];
        r["sharded_over_serial_ratio"] =
            r["sharded_symbolic_ms"] / r["symbolic_ms"];
      }
      if (r["bdd_cache_lookups"] > 0) {
        r["bdd_cache_hit_pct"] =
            100.0 * r["bdd_cache_hits"] / r["bdd_cache_lookups"];
      }
      if (const double pool = r["parallel_busy_s"] + r["parallel_idle_s"];
          pool > 0) {
        r["parallel_idle_pct"] = 100.0 * r["parallel_idle_s"] / pool;
      }
      for (const auto& [name, value] : r) per_round[name].push_back(value);
    }
    per_round["parse_ms"] = parse_ms;
    per_round["collapse_ms"] = collapse_ms;
    per_round["sequence_ms"] = sequence_ms;
    per_round["traced_job_p50_ms"] = {1e3 * median(best)};
    for (const auto& [name, values] : per_round) {
      metrics[name] = median(values);
    }
  }
  std::fprintf(stderr,
               "pipeline_bench: workload %s seed %llu: %zu jobs, %zu timed "
               "runs, %zu detected per round\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               jobs.size(), attempted, detected);
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
