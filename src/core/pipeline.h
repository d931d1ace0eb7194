#ifndef MOTSIM_CORE_PIPELINE_H
#define MOTSIM_CORE_PIPELINE_H

#include <cstdint>
#include <vector>

#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/progress.h"
#include "faults/fault.h"
#include "faults/report.h"
#include "logic/val3.h"
#include "tpg/sequences.h"

namespace motsim {

/// Outcome of run_pipeline. `status` holds the final per-fault
/// classification: X-redundant faults that the symbolic stage
/// subsequently detected carry the symbolic Detected* status.
struct PipelineResult {
  std::vector<FaultStatus> status;
  /// Frame (1-based) at which each fault was detected, aligned with
  /// `status`; 0 = never. Three-valued and symbolic detections both
  /// record their frame, so test-evaluation and diagnosis callers no
  /// longer re-run the simulator to recover detection times.
  std::vector<std::uint32_t> detect_frame;
  /// Faults ID_X-red flagged (before the symbolic stage re-enabled
  /// them). When the static analysis ran, only faults *not* already
  /// statically pruned are counted here — the two buckets never
  /// overlap.
  std::size_t x_redundant = 0;
  /// Faults the static analysis proved undetectable by any sequence
  /// (StaticXRed in `status`). 0 unless `options.analysis` was set.
  std::size_t static_x_redundant = 0;
  /// Faults the implication engine proved untestable by any sequence
  /// (StaticUntestable in `status`; disjoint from static_x_redundant —
  /// StaticXRed wins when both analyses flag a fault). 0 unless
  /// `options.analysis` was set.
  std::size_t static_untestable = 0;
  std::size_t detected_3v = 0;
  std::size_t detected_symbolic = 0;
  /// True if the hybrid simulator used three-valued fallback windows
  /// (the paper's asterisk: symbolic coverage then a lower bound).
  bool used_fallback = false;
  /// Frames the symbolic stage ran in each mode (summed over shards
  /// when fault-sharded): symbolic, three-valued fallback windows, and
  /// the exact binary mode after the settled hand-off. Zero when the
  /// stage did not run.
  std::size_t symbolic_frames = 0;
  std::size_t three_valued_frames = 0;
  std::size_t binary_frames = 0;
  /// Live faults the symbolic stage dropped on settling because the
  /// three-valued stage had already simulated their remaining frames
  /// exactly (HybridResult::x01_exact_drops), and X-redundant faults
  /// dropped once settled on the fault-free state
  /// (HybridResult::xred_settled_drops). Summed over shards.
  std::uint64_t x01_exact_drops = 0;
  std::uint64_t xred_settled_drops = 0;
  /// True when the symbolic stage ran on the explicit-state engine
  /// (ExplicitStateSim: at most ExplicitStateSim::kMaxDffs flip-flops
  /// and no checkpoints), false when it ran on the OBDD engines.
  bool explicit_state = false;
  /// True if the symbolic stage was skipped because the sequence
  /// carries X (partially specified) inputs, which only the
  /// three-valued stage supports.
  bool symbolic_skipped_x_inputs = false;
  /// Execution-redundancy trimming counters of the symbolic stage
  /// (docs/ANALYSIS.md; all zero when trimming was off or the stage
  /// did not run): fault-frames whose propagation was skipped, faults
  /// parked once their static activation horizon passed, and MOT
  /// fault-frames served from the shared fault-free equality product.
  std::uint64_t frames_skipped = 0;
  std::uint64_t faults_terminated_early = 0;
  std::uint64_t faultfree_evals_shared = 0;
  /// S-graph pass results (docs/ANALYSIS.md pass 6; zero when
  /// `options.sgraph` was off or the symbolic stage did not
  /// run): nontrivial SCCs of the flip-flop dependency graph, and
  /// rMOT/MOT faults downgraded to SOT-equivalent updates once the
  /// frame index passed their observation horizon (one event per
  /// fault per symbolic epoch).
  std::size_t sgraph_sccs = 0;
  std::uint64_t mot_downgrades = 0;
  double seconds_analysis = 0;
  double seconds_xred = 0;
  double seconds_3v = 0;
  double seconds_symbolic = 0;

  [[nodiscard]] CoverageSummary summary() const {
    return CoverageSummary::from_status(status);
  }
};

/// Runs the paper's complete flow on one fault list and test sequence.
///
/// Stage order and semantics follow Section V's experimental protocol:
/// X-redundant faults are skipped by the three-valued stage (that is
/// the whole point of ID_X-red) but handed to the symbolic stage
/// together with the three-valued leftovers — symbolic simulation can
/// detect faults that are undetectable under three-valued logic. The
/// three-valued stage's exact_from goes to the symbolic stage, whose
/// settled hand-off then skips faults that stage already simulated
/// exactly (not passed when `checkpoint` is set).
///
/// `options` is validated first (std::invalid_argument carrying the
/// validate() message on failure).
///
/// The symbolic stage runs on ExplicitStateSim when the circuit has at
/// most ExplicitStateSim::kMaxDffs flip-flops and the run emits no
/// checkpoints (`checkpoint == nullptr` and
/// `options.checkpoint_interval == 0`), whatever `options.threads`;
/// otherwise on HybridFaultSim (`threads == 1`) or ParallelSymSim.
///
/// `progress` (optional) observes the symbolic stage; see ProgressSink
/// for the threading contract under `options.threads != 1`.
///
/// `checkpoint` (optional) receives symbolic-stage snapshots when
/// `options.checkpoint_interval != 0` (see core/checkpoint.h);
/// checkpointed *campaigns* — persistence, resume, incremental
/// extension — live in store/campaign.h, which bypasses the
/// three-valued stage for exact resumability.
[[nodiscard]] PipelineResult run_pipeline(const Netlist& netlist,
                                          const std::vector<Fault>& faults,
                                          const TestSequence& sequence,
                                          const SimOptions& options = {},
                                          ProgressSink* progress = nullptr,
                                          CheckpointSink* checkpoint = nullptr);

}  // namespace motsim

#endif  // MOTSIM_CORE_PIPELINE_H
