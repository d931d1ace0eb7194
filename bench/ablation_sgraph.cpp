// S-graph ablation: what does the synchronization-depth analysis buy
// the symbolic stage, and does the MOT -> SOT downgrade really change
// nothing?
//
// Runs the full pipeline twice — with and without SimOptions::sgraph
// (SCC condensation, per-fault observation horizons, the rMOT/MOT
// downgrade and the horizon-aware shard assignment; docs/ANALYSIS.md
// pass 6) — across every observation strategy and across the serial
// and the sharded engine, and compares:
//
//  * faults downgraded to SOT-equivalent updates and the nontrivial
//    SCC count the pass reported,
//  * wall-clock of the whole pipeline (best of N),
//  * and, as a hard correctness gate, the detected-fault sets: the
//    downgrade is bit-identical by OBDD canonicity, so the detected
//    set and every detection frame must match exactly between the
//    sgraph-on and sgraph-off runs AND between thread counts. Any
//    mismatch exits nonzero — this harness doubles as the soundness
//    check of docs/ANALYSIS.md's pass-6 section on real workloads.
//
// Workloads are chosen so the gates bite from both sides:
//
//  * the acyclic-pipeline synthetic profile, whose s-graph has no
//    cycles at all — every fault horizon is finite, so the on-run
//    must report mot_downgrades > 0 (a dead pass fails loudly);
//  * s27 proper, whose three flip-flops all sit in nontrivial SCCs
//    ({G5,G6} plus the G7 self-loop) — every horizon is unbounded, so
//    the on-run must report mot_downgrades == 0 (a pass that
//    downgrades here is unsound, not just dead);
//  * an s27-derived circuit with an added input-only comparator
//    output carrying a redundant fault (GR1 stuck-at-1 on G0 OR NOT
//    G0): the fault survives the three-valued stage forever, its
//    observation cone never crosses a flip-flop, so its horizon is 0
//    and the on-run must downgrade it — mot_downgrades > 0 on an
//    s27-class circuit.
//
// s27 and its comparator have three flip-flops, so run_pipeline would
// send their symbolic stage to the explicit-state engine, which has no
// s-graph pass. Those two workloads therefore drive HybridFaultSim
// (threads 1) and ParallelSymSim (threads 4) directly on the whole
// fault list, with the same options; the acyclic profile (10
// flip-flops) still goes through run_pipeline.
//
// The analysis stage stays OFF here (unlike ablation_trim): the
// static X-red analysis would prune the deliberately redundant
// comparator fault before the symbolic stage ever saw it.
//
// Environment (see bench_common.h): MOTSIM_FULL, MOTSIM_VECTORS,
// MOTSIM_SEED.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_data/s27.h"
#include "bench_data/synth_gen.h"
#include "circuit/bench_io.h"
#include "analysis/sgraph.h"
#include "core/hybrid_sim.h"
#include "core/parallel_sym_sim.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "faults/fault.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;
using namespace motsim::bench;

namespace {

struct Workload {
  Netlist nl;
  std::size_t vectors;
  /// Whether the on-run must (true) or must not (false) downgrade
  /// rMOT/MOT faults — both directions are hard gates.
  bool expect_downgrades;
  int reps;
  /// Drive the OBDD engines directly instead of run_pipeline.
  bool direct = false;
};

struct Measurement {
  double seconds = 1e100;
  PipelineResult result;
};

/// The symbolic stage alone on the OBDD engine `opts.threads` selects,
/// reported in the fields the gates read. It simulates the whole fault
/// list (no ID_X-red or X01 stage first), so its times are not
/// comparable with the run_pipeline workloads'.
PipelineResult run_obdd_engine(const Netlist& nl,
                               const std::vector<Fault>& faults,
                               const TestSequence& seq,
                               const SimOptions& opts) {
  HybridResult h;
  if (opts.threads == 1) {
    HybridFaultSim sim(nl, faults, opts);
    h = sim.run(seq);
  } else {
    ParallelSymSim sim(nl, faults, opts);
    h = sim.run(seq);
  }
  PipelineResult r;
  r.status = std::move(h.status);
  r.detect_frame = std::move(h.detect_frame);
  r.used_fallback = h.used_fallback;
  r.mot_downgrades = h.mot_downgrades;
  return r;
}

Measurement measure(const Netlist& nl, const std::vector<Fault>& faults,
                    const TestSequence& seq, Strategy strategy,
                    std::size_t threads, int reps, bool sgraph, bool direct) {
  SimOptions opts;
  opts.strategy = strategy;
  opts.threads = threads;
  opts.chunk_size = 8;  // several shards even on these small lists
  opts.sgraph = sgraph;
  Measurement best;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    PipelineResult r = direct ? run_obdd_engine(nl, faults, seq, opts)
                              : run_pipeline(nl, faults, seq, opts);
    const double secs = timer.elapsed_seconds();
    if (secs < best.seconds) {
      best.seconds = secs;
      best.result = std::move(r);
    }
  }
  // The engines build their own plan; this one, outside the timed
  // loop, only supplies the SCC count run_pipeline would report.
  if (direct && sgraph) {
    best.result.sgraph_sccs = build_sgraph_plan(nl, faults).nontrivial_sccs;
  }
  return best;
}

/// True when the two runs have identical detected sets and frames.
bool detection_identical(const Netlist& nl, const std::vector<Fault>& faults,
                         const char* what, const PipelineResult& a,
                         const PipelineResult& b) {
  bool ok = a.status.size() == b.status.size();
  for (std::size_t i = 0; ok && i < a.status.size(); ++i) {
    if (is_detected(a.status[i]) != is_detected(b.status[i]) ||
        a.detect_frame[i] != b.detect_frame[i]) {
      std::fprintf(stderr, "MISMATCH (%s): %s %s: a=%s@%u b=%s@%u\n", what,
                   nl.name().c_str(), fault_name(nl, faults[i]).c_str(),
                   to_cstring(a.status[i]), a.detect_frame[i],
                   to_cstring(b.status[i]), b.detect_frame[i]);
      ok = false;
    }
  }
  return ok;
}

/// s27 plus an input-only comparator output whose GR1 stuck-at-1
/// fault is combinationally redundant (G0 OR NOT G0 is constant one):
/// undetectable by any stage, so it stays live in the symbolic engine
/// with observation horizon 0 — the deterministic downgrade witness.
Netlist make_s27_comparator() {
  std::string text = s27_bench_text();
  text +=
      "\nOUTPUT(CMP)\n"
      "GN0 = NOT(G0)\n"
      "GR1 = OR(G0, GN0)\n"
      "CMP = AND(GR1, G1)\n";
  return parse_bench_string(text, "s27cmp");
}

const char* to_label(Strategy s) {
  switch (s) {
    case Strategy::Sot: return "sot";
    case Strategy::Rmot: return "rmot";
    default: return "mot";
  }
}

}  // namespace

int main() {
  print_preamble("s-graph ablation",
                 "pipeline with vs without the synchronization-depth "
                 "analysis and its rMOT/MOT downgrade");

  const bool full = full_mode();
  const std::size_t v = static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 0));
  const int reps = full ? 5 : 3;

  std::vector<Workload> workloads;
  // Feedback-free chains: 10 flip-flops split into three chains, so
  // the deepest synchronization depth is 4 and 48 frames leave every
  // surviving rMOT/MOT fault plenty of room to downgrade.
  workloads.push_back({generate_circuit(SynthSpec{
                           "pipe-acyclic", 5, 3, 10, 80,
                           CircuitStyle::AcyclicPipeline, workload_seed()}),
                       v != 0 ? v : 48, true, reps});
  workloads.push_back(
      {make_benchmark("s27"), v != 0 ? v : 96, false, reps, true});
  workloads.push_back(
      {make_s27_comparator(), v != 0 ? v : 96, true, reps, true});

  const Strategy strategies[] = {Strategy::Sot, Strategy::Rmot, Strategy::Mot};
  const std::size_t thread_counts[] = {1, 4};

  bool ok = true;
  std::printf("%-12s %-5s %8s %10s %6s %8s %9s %9s %7s\n", "circuit",
              "strat", "faults", "downgrades", "sccs", "detect", "off[s]",
              "on[s]", "win");
  for (const Workload& w : workloads) {
    const Netlist& nl = w.nl;
    const CollapsedFaultList faults(nl);
    Rng rng(workload_seed());
    const TestSequence seq = random_sequence(nl, w.vectors, rng);

    for (Strategy strategy : strategies) {
      // threads=1 exercises HybridFaultSim, threads=4 ParallelSymSim;
      // the on-runs across thread counts must also agree with each
      // other (the horizon-aware partition may not leak into results).
      std::vector<Measurement> on_runs;
      for (std::size_t threads : thread_counts) {
        const Measurement off = measure(nl, faults.faults(), seq, strategy,
                                        threads, w.reps, false, w.direct);
        const Measurement on = measure(nl, faults.faults(), seq, strategy,
                                       threads, w.reps, true, w.direct);

        // Hard gates. (1) bit-identity on vs off.
        if (!detection_identical(nl, faults.faults(), "sgraph on vs off",
                                 off.result, on.result)) {
          ok = false;
        }
        // (2) the off-run must report zero s-graph work.
        if (off.result.mot_downgrades != 0 || off.result.sgraph_sccs != 0) {
          std::fprintf(stderr,
                       "FAILURE: %s reported s-graph work with sgraph off.\n",
                       nl.name().c_str());
          ok = false;
        }
        // (3) downgrades happen exactly where the structure says: on
        // acyclic / comparator cones, never past a nontrivial SCC.
        // SOT never downgrades — there is nothing to collapse.
        const bool expect =
            w.expect_downgrades && strategy != Strategy::Sot;
        if (expect && on.result.mot_downgrades == 0) {
          std::fprintf(stderr,
                       "FAILURE: %s/%s/t%zu: no rMOT/MOT fault downgraded on "
                       "a finite-horizon workload.\n",
                       nl.name().c_str(), to_label(strategy), threads);
          ok = false;
        }
        if (!expect && on.result.mot_downgrades != 0) {
          std::fprintf(stderr,
                       "FAILURE: %s/%s/t%zu: downgraded %llu faults on a "
                       "workload with no finite horizon.\n",
                       nl.name().c_str(), to_label(strategy), threads,
                       static_cast<unsigned long long>(
                           on.result.mot_downgrades));
          ok = false;
        }
        // (4) no fallback windows — these workloads fit the default
        // node budget, and fallback would make gate (1) vacuous.
        if (off.result.used_fallback || on.result.used_fallback) {
          std::fprintf(stderr, "FAILURE: %s/%s/t%zu used fallback.\n",
                       nl.name().c_str(), to_label(strategy), threads);
          ok = false;
        }
        on_runs.push_back(on);
        if (threads == 1) {
          const double win =
              off.seconds > 0 ? off.seconds / on.seconds : 1.0;
          std::printf("%-12s %-5s %8zu %10llu %6zu %8zu %9.3f %9.3f %6.2fx\n",
                      nl.name().c_str(), to_label(strategy), faults.size(),
                      static_cast<unsigned long long>(
                          on.result.mot_downgrades),
                      on.result.sgraph_sccs,
                      on.result.summary().detected_total(), off.seconds,
                      on.seconds, win);
        }
      }
      // (5) thread-count independence of the sgraph-on runs.
      if (!detection_identical(nl, faults.faults(), "threads 1 vs 4",
                               on_runs[0].result, on_runs[1].result)) {
        ok = false;
      }
    }
  }
  if (!ok) {
    std::fprintf(stderr, "FAILURE: the s-graph pass changed a detection "
                         "result or did the wrong amount of work.\n");
    return 1;
  }
  std::printf("\ndetected-fault sets are bit-identical with and without the "
              "s-graph pass on every circuit, strategy and thread count.\n");
  return 0;
}
