#include "core/pipeline.h"

#include <memory>
#include <optional>
#include <string>

#include "analysis/implication.h"
#include "analysis/sgraph.h"
#include "analysis/static_xred.h"
#include "analysis/trim.h"
#include "core/explicit_sim.h"
#include "core/parallel_sym_sim.h"
#include "core/xred.h"
#include "obs/telemetry.h"
#include "sim3/fault_simulator.h"
#include "util/stopwatch.h"

namespace motsim {

namespace {

/// Opens one pipeline stage: the structured-log record paired with the
/// span the call sites start themselves.
void begin_stage(obs::Telemetry* telemetry, const char* name) {
  obs::log_event(telemetry, obs::LogLevel::Debug, "pipeline.stage.begin",
                 {obs::LogField::str("stage", name)});
}

/// Closes out one pipeline stage: ends its trace span, reports it to
/// the progress sink, records its wall seconds as a pipeline.* gauge
/// (gauges add, so repeated runs into one context accumulate) and logs
/// the stage-end record.
void finish_stage(obs::Telemetry* telemetry, ProgressSink* progress,
                  std::optional<obs::SpanTracer::Span>& span,
                  const char* name, double seconds) {
  span.reset();
  if (telemetry != nullptr) {
    telemetry->metrics.gauge(std::string("pipeline.") + name + "_seconds")
        .add(seconds);
  }
  obs::log_event(telemetry, obs::LogLevel::Info, "pipeline.stage.end",
                 {obs::LogField::str("stage", name),
                  obs::LogField::f64("seconds", seconds)});
  if (progress != nullptr) {
    progress->on_stage((std::string("stage.") + name).c_str(), seconds);
  }
}

}  // namespace

PipelineResult run_pipeline(const Netlist& netlist,
                            const std::vector<Fault>& faults,
                            const TestSequence& sequence,
                            const SimOptions& unchecked,
                            ProgressSink* progress,
                            CheckpointSink* checkpoint) {
  const SimOptions options = unchecked.validated();
  // Small state spaces run the symbolic stage on the explicit-state
  // engine, which needs none of the OBDD engines' plans.
  const bool explicit_state =
      netlist.dff_count() <= ExplicitStateSim::kMaxDffs &&
      checkpoint == nullptr && options.checkpoint_interval == 0;
  PipelineResult result;
  result.detect_frame.assign(faults.size(), 0);
  obs::Telemetry* const telemetry = options.telemetry;

  // ---- Stage 0: sequence-independent static analysis ---------------------
  std::vector<FaultStatus> status(faults.size(), FaultStatus::Undetected);
  std::vector<ConstVal> tied;  // nonempty => constants for the symbolic stage
  // Implication-enriched trimming plan for the symbolic stage: its
  // settled constants subsume the structural ones the engines would
  // otherwise derive themselves. Only built when the analysis stage
  // paid for the engine anyway.
  std::optional<TrimPlan> trim_plan;
  if (options.analysis) {
    std::optional<obs::SpanTracer::Span> span;
    if (telemetry != nullptr) span = telemetry->tracer.span("stage.analysis");
    begin_stage(telemetry, "analysis");
    Stopwatch timer;
    const StaticXRedAnalysis sa(netlist);
    status = sa.classify(faults);
    // The implication engine only upgrades faults the cheaper
    // structural pass left Undetected, so the two counts stay disjoint.
    const ImplicationEngine eng(netlist);
    result.static_untestable = eng.classify(faults, status);
    if (eng.tied_constant_count() != 0) tied = eng.tied_constants();
    if (options.run_symbolic && options.trim && !explicit_state) {
      trim_plan = build_trim_plan(eng, faults);
    }
    result.seconds_analysis = timer.elapsed_seconds();
    for (FaultStatus s : status) {
      if (s == FaultStatus::StaticXRed) ++result.static_x_redundant;
    }
    if (telemetry != nullptr) {
      telemetry->metrics.counter("analysis.implications_learned")
          .add(eng.stats().learned_implications);
      telemetry->metrics.counter("analysis.faults_pruned")
          .add(result.static_x_redundant + result.static_untestable);
      telemetry->metrics.counter("analysis.constants_tied")
          .add(eng.tied_constant_count());
    }
    finish_stage(telemetry, progress, span, "analysis",
                 result.seconds_analysis);
  }

  // Per fault ID_X-red flagged X-redundant, the frame after which its
  // fault-free run was settled (XRedResult::settled_from); the
  // symbolic stage's settled hand-off skips such faults when their
  // state matches the fault-free one. Empty when it never settled.
  std::vector<std::uint32_t> xred_settled_from;

  // ---- Stage 1: ID_X-red ------------------------------------------------
  if (options.run_xred) {
    std::optional<obs::SpanTracer::Span> span;
    if (telemetry != nullptr) span = telemetry->tracer.span("stage.xred");
    begin_stage(telemetry, "xred");
    Stopwatch timer;
    const XRedResult xr = run_id_x_red(netlist, sequence);
    const std::vector<FaultStatus> xs = xr.classify(faults);
    // Statically pruned faults keep their (stronger) verdict; the
    // x_redundant count therefore never overlaps static_x_redundant.
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (status[i] == FaultStatus::Undetected &&
          xs[i] == FaultStatus::XRedundant) {
        status[i] = FaultStatus::XRedundant;
        ++result.x_redundant;
        if (xr.settled_from() != 0) {
          xred_settled_from.resize(faults.size(), 0);
          xred_settled_from[i] = xr.settled_from();
        }
      }
    }
    result.seconds_xred = timer.elapsed_seconds();
    finish_stage(telemetry, progress, span, "xred", result.seconds_xred);
  }

  // One compiled view of the netlist for the three-valued and the
  // symbolic stage.
  const auto circuit = std::make_shared<const LevelizedCircuit>(netlist);
  // Per fault, the frame after which the three-valued stage was exact
  // (FaultSim3Result::exact_from); the symbolic stage's settled
  // hand-off skips faults already simulated exactly past that point.
  std::vector<std::uint32_t> exact_from;

  // ---- Stage 2: three-valued simulation ----------------------------------
  {
    std::optional<obs::SpanTracer::Span> span;
    if (telemetry != nullptr) span = telemetry->tracer.span("stage.sim3");
    begin_stage(telemetry, "sim3");
    Stopwatch timer;
    Sim3EngineConfig ec;
    ec.threads = options.threads;
    ec.telemetry = telemetry;
    const std::unique_ptr<FaultSimulator3> sim =
        make_fault_simulator3(options.sim3_backend, circuit, faults, ec);
    sim->set_initial_status(status);
    FaultSim3Result r3 = sim->run(sequence);
    result.seconds_3v = timer.elapsed_seconds();
    result.detected_3v = r3.detected_count;
    status = std::move(r3.status);
    result.detect_frame = std::move(r3.detect_frame);
    exact_from = std::move(r3.exact_from);
    finish_stage(telemetry, progress, span, "sim3", result.seconds_3v);
  }

  // ---- Stage 3: symbolic simulation of the remainder ---------------------
  bool has_x_inputs = false;
  for (const auto& frame : sequence) {
    for (Val3 v : frame) has_x_inputs |= !is_binary(v);
  }
  if (options.run_symbolic && has_x_inputs) {
    result.symbolic_skipped_x_inputs = true;
  }
  if (options.run_symbolic && !has_x_inputs) {
    // X-redundant faults are *not* lost causes symbolically; re-enable
    // them alongside the three-valued leftovers.
    std::vector<FaultStatus> leftover = status;
    for (auto& s : leftover) {
      if (s == FaultStatus::XRedundant) s = FaultStatus::Undetected;
    }

    std::optional<obs::SpanTracer::Span> span;
    if (telemetry != nullptr) span = telemetry->tracer.span("stage.symbolic");
    begin_stage(telemetry, "symbolic");
    Stopwatch timer;
    // S-graph plan for the MOT/rMOT -> SOT downgrade, built once here
    // so serial and parallel runs (and every shard) share it; either
    // engine would derive the identical plan on its own.
    std::optional<SgraphPlan> sgraph_plan;
    if (options.sgraph && !explicit_state) {
      obs::SpanTracer::Span plan_span =
          obs::open_span(telemetry, "plan.sgraph");
      sgraph_plan = build_sgraph_plan(netlist, faults);
      plan_span.close();
      result.sgraph_sccs = sgraph_plan->nontrivial_sccs;
      if (telemetry != nullptr) {
        telemetry->metrics.counter("analysis.sgraph_sccs")
            .add(sgraph_plan->nontrivial_sccs);
      }
      obs::log_event(
          telemetry, obs::LogLevel::Debug, "pipeline.sgraph",
          {obs::LogField::u64("nontrivial_sccs", sgraph_plan->nontrivial_sccs),
           obs::LogField::u64("finite_horizons",
                              sgraph_plan->finite_horizon_count()),
           obs::LogField::u64("faults", faults.size())});
    }
    // A checkpointed run must keep every fault's binary-mode divergence
    // in its records, so it keeps the whole hand-off.
    if (checkpoint != nullptr) {
      exact_from.clear();
      xred_settled_from.clear();
    }
    HybridResult rs;
    if (explicit_state) {
      ExplicitStateSim sym(circuit, faults, options);
      sym.set_initial_status(leftover);
      sym.set_progress(progress);
      sym.set_settled_drops(std::move(exact_from),
                            std::move(xred_settled_from));
      rs = sym.run(sequence);
    } else if (options.threads == 1) {
      HybridFaultSim sym(netlist, faults, options);
      sym.set_circuit(circuit);
      sym.set_initial_status(leftover);
      sym.set_progress(progress);
      sym.set_checkpoint_sink(checkpoint);
      if (!tied.empty()) sym.set_tied_constants(tied);
      if (trim_plan) sym.set_trim_plan(*trim_plan);
      if (sgraph_plan) sym.set_sgraph_plan(*sgraph_plan);
      sym.set_settled_drops(std::move(exact_from),
                            std::move(xred_settled_from));
      rs = sym.run(sequence);
    } else {
      ParallelSymSim sym(netlist, faults, options);
      sym.set_initial_status(leftover);
      sym.set_progress(progress);
      sym.set_checkpoint_sink(checkpoint);
      if (!tied.empty()) sym.set_tied_constants(tied);
      if (trim_plan) sym.set_trim_plan(*trim_plan);
      if (sgraph_plan) sym.set_sgraph_plan(*sgraph_plan);
      sym.set_settled_drops(std::move(exact_from),
                            std::move(xred_settled_from));
      rs = sym.run(sequence);
    }
    result.seconds_symbolic = timer.elapsed_seconds();
    finish_stage(telemetry, progress, span, "symbolic",
                 result.seconds_symbolic);
    result.detected_symbolic = rs.detected_count;
    result.used_fallback = rs.used_fallback;
    result.symbolic_frames = rs.symbolic_frames;
    result.three_valued_frames = rs.three_valued_frames;
    result.binary_frames = rs.binary_frames;
    result.x01_exact_drops = rs.x01_exact_drops;
    result.xred_settled_drops = rs.xred_settled_drops;
    result.explicit_state = explicit_state;
    result.frames_skipped = rs.frames_skipped;
    result.faults_terminated_early = rs.faults_terminated_early;
    result.faultfree_evals_shared = rs.faultfree_evals_shared;
    result.mot_downgrades = rs.mot_downgrades;
    // analysis.mot_downgrades is recorded by the engines themselves
    // (every shard adds into the shared telemetry); only the log record
    // belongs here, where the merged total is known.
    if (rs.mot_downgrades != 0) {
      obs::log_event(telemetry, obs::LogLevel::Debug, "pipeline.sgraph.done",
                     {obs::LogField::u64("mot_downgrades", rs.mot_downgrades)});
    }

    // Merge: symbolic detections override; everything else keeps its
    // stage-1/2 classification (and its three-valued detection frame).
    // A nonzero symbolic detect_frame identifies the faults the hybrid
    // stage itself detected — faults it merely inherited as detected
    // (DetectedSim3 pre-classifications) carry frame 0 and must keep
    // their stage-2 frame.
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (rs.detect_frame[i] != 0) {
        status[i] = rs.status[i];
        result.detect_frame[i] = rs.detect_frame[i];
      }
    }
  }

  result.status = std::move(status);
  return result;
}

}  // namespace motsim
