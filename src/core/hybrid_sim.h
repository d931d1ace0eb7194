#ifndef MOTSIM_CORE_HYBRID_SIM_H
#define MOTSIM_CORE_HYBRID_SIM_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/sgraph.h"
#include "analysis/static_xred.h"
#include "analysis/trim.h"
#include "bdd/bdd.h"
#include "core/checkpoint.h"
#include "core/options.h"
#include "core/progress.h"
#include "core/sym_fault_sim.h"
#include "faults/fault.h"
#include "logic/val3.h"
#include "sim3/fault_simulator.h"

namespace motsim {

/// Result of a hybrid run.
struct HybridResult {
  std::vector<FaultStatus> status;
  std::vector<std::uint32_t> detect_frame;  ///< 1-based; 0 = never
  std::size_t detected_count = 0;
  /// True when at least one three-valued window ran — the asterisk in
  /// the paper's Tables II/III (coverage may then be inexact).
  bool used_fallback = false;
  std::size_t fallback_windows = 0;
  std::size_t symbolic_frames = 0;
  std::size_t three_valued_frames = 0;
  /// Frames simulated after the settled hand-off: once every fault-free
  /// state bit and every faulty state divergence is a constant and no
  /// X input vector remains, the rest of the sequence runs on the
  /// three-valued engine, where it is exact (not a fallback window).
  /// Every simulated frame counts in exactly one of the three modes.
  std::size_t binary_frames = 0;
  std::size_t peak_live_nodes = 0;
  /// Checkpoint synchronizations performed (symbolic-mode re-seeds at
  /// checkpoint boundaries; window-mode checkpoints do not sync).
  std::size_t checkpoint_syncs = 0;
  /// Trimming telemetry (zero when SimOptions::trim is off): symbolic
  /// fault-frames whose propagation was skipped (quiescent or parked),
  /// faults parked past their static activation horizon, and MOT
  /// fault-frames served by the shared fault-free equality product.
  std::uint64_t frames_skipped = 0;
  std::uint64_t faults_terminated_early = 0;
  std::uint64_t faultfree_evals_shared = 0;
  /// S-graph telemetry (zero when SimOptions::sgraph is off): fault
  /// downgrade events — a fault counts once per symbolic epoch in
  /// which its observation horizon passed (re-seeding the state
  /// variables restarts the clock, so a fault may re-downgrade after
  /// every fallback window or checkpoint sync).
  std::uint64_t mot_downgrades = 0;
  /// Live faults left out of the settled hand-off because the
  /// three-valued stage already simulated their remaining frames
  /// exactly (set_settled_drops).
  std::uint64_t x01_exact_drops = 0;
  /// Live faults left out of the settled hand-off because ID_X-red
  /// flagged them X-redundant over a fault-free run already settled
  /// by then, and their state equals the fault-free one
  /// (set_settled_drops's `xred_settled_from`).
  std::uint64_t xred_settled_drops = 0;
};

/// Hybrid fault simulator (paper Sections I and IV.A, following [8]):
/// symbolic simulation under the configured observation strategy, with
/// bounded OBDD space. When the live node count exceeds the limit the
/// simulator converts machine state to three-valued logic, simulates a
/// few frames with the conventional event-driven simulator (still
/// detecting and dropping faults), then re-enters symbolic mode:
/// unknown state bits are re-seeded with state variables and every
/// detection function D̃ restarts at constant 1. All claims made in
/// fallback and after resumption remain sound — the represented state
/// sets only ever grow. Conversely, once the symbolic machine settles
/// (no state function of either machine depends on a state variable)
/// and only binary input vectors remain, three-valued simulation is
/// exact, so the run hands every live fault to the three-valued engine
/// for the rest of the sequence with unchanged verdicts and detection
/// frames (docs/ALGORITHMS.md).
///
/// Reads the symbolic-engine fields of its SimOptions (strategy,
/// layout, limits, checkpoint_interval, trim, sgraph, BDD tuning), the
/// three-valued backend of its fallback windows (sim3_backend) and the
/// telemetry context (options.telemetry, which receives mode timers
/// and spans, frame counters, re-seeded state bits and the BDD
/// manager's statistics; nullptr costs one branch per frame). The
/// stage switches and the parallel fields are ignored.
class HybridFaultSim {
 public:
  /// Throws std::invalid_argument when options.validate() fails and
  /// std::logic_error on a non-finalized netlist.
  HybridFaultSim(const Netlist& netlist, std::vector<Fault> faults,
                 const SimOptions& options = {});

  /// Pre-classifies faults; non-Undetected entries are not simulated.
  void set_initial_status(std::vector<FaultStatus> status);

  /// Observer for the run (see ProgressSink). Called from the thread
  /// that executes run(); nullptr (the default) keeps the hot path
  /// free of everything but one predictable branch per event.
  void set_progress(ProgressSink* sink) noexcept { progress_ = sink; }

  /// Receiver of checkpoint snapshots (see core/checkpoint.h); only
  /// consulted when options.checkpoint_interval != 0. Called from the
  /// thread that executes run(). Emitted chunk ids are 0 and fault
  /// indices are this fault list's (the parallel driver translates).
  void set_checkpoint_sink(CheckpointSink* sink) noexcept {
    checkpoint_ = sink;
  }

  /// Every-frame constant nets the symbolic true-value simulator may
  /// tie to constant OBDDs (ImplicationEngine::tied_constants; empty =
  /// none). By canonicity the tied functions are what evaluation would
  /// produce anyway, so results are bit-identical — tying only skips
  /// the intermediate apply() work. The vector is validated by
  /// SymTrueValueSim::set_tied_constants when run() starts.
  void set_tied_constants(std::vector<ConstVal> tied) {
    tied_ = std::move(tied);
  }

  /// Supplies a pre-built trimming plan (aligned with this fault
  /// list). Used by the pipeline to hand down the implication-enriched
  /// plan and by the parallel driver to slice one global plan per
  /// chunk; without it the engine builds the structural plan itself
  /// when options.trim is on. Ignored when options.trim is off.
  void set_trim_plan(TrimPlan plan);

  /// Supplies a pre-built s-graph plan (aligned with this fault
  /// list); same contract as set_trim_plan but for the observation
  /// horizons. Ignored when options.sgraph is off.
  void set_sgraph_plan(SgraphPlan plan);

  /// Supplies what the earlier stages proved about the rest of the
  /// sequence, for this fault list, over the same sequence from the
  /// all-X state. At the settled hand-off after frame t, a live fault
  /// stays out of the three-valued session when either
  ///  - `exact_from` (FaultSim3Result::exact_from) is in 1..t: that
  ///    stage saw its remaining frames exactly and found no output
  ///    difference, so no strategy can detect it there; or
  ///  - `xred_settled_from` is in 1..t and its faulty state equals the
  ///    fault-free one: from there on the flag's I_X/OB summaries are
  ///    exact, so the fault is never activated, or stays blocked inside
  ///    its fanout-free region, and the faulty machine never leaves the
  ///    fault-free one. This vector is not X01 data: it holds ID_X-red's
  ///    one XRedResult::settled_from for each fault ID_X-red flagged
  ///    X-redundant, and 0 (never drop) for the others.
  /// Either way verdicts and detection frames are unchanged. Symbolic
  /// and window modes never consult them. Ignored while checkpoints
  /// are emitted, since a binary-mode record must carry every live
  /// fault's divergence. An empty vector (the default) disables its
  /// drop.
  void set_settled_drops(std::vector<std::uint32_t> exact_from,
                         std::vector<std::uint32_t> xred_settled_from = {});

  /// Supplies the compiled view of the netlist that the symbolic and
  /// three-valued engines of the run read (read-only, so one view may
  /// serve concurrent runs). Used by the parallel driver to compile
  /// once per job; without it run() compiles its own. Throws
  /// std::invalid_argument if the view was compiled from another
  /// netlist.
  void set_circuit(std::shared_ptr<const LevelizedCircuit> circuit);

  /// Resumes a previous run from a snapshot this engine emitted:
  /// run() starts at frame `ck.frame` in the recorded mode, with
  /// statuses, detection frames and per-fault state divergences
  /// restored. Replaces any set_initial_status. With the same
  /// options (same checkpoint_interval in particular) the
  /// resumed run's result is bit-identical to the uninterrupted run.
  void set_resume(ChunkCheckpoint checkpoint);

  [[nodiscard]] HybridResult run(
      const std::vector<std::vector<Val3>>& sequence);

 private:
  const Netlist* netlist_;
  std::vector<Fault> faults_;
  SimOptions options_;
  std::vector<FaultStatus> initial_status_;
  ProgressSink* progress_ = nullptr;
  CheckpointSink* checkpoint_ = nullptr;
  std::optional<ChunkCheckpoint> resume_;
  std::vector<ConstVal> tied_;
  std::optional<TrimPlan> trim_plan_;
  std::optional<SgraphPlan> sgraph_plan_;
  std::vector<std::uint32_t> exact_from_;
  std::vector<std::uint32_t> xred_settled_from_;
  std::shared_ptr<const LevelizedCircuit> circuit_;
};

}  // namespace motsim

#endif  // MOTSIM_CORE_HYBRID_SIM_H
