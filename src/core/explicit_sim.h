#ifndef MOTSIM_CORE_EXPLICIT_SIM_H
#define MOTSIM_CORE_EXPLICIT_SIM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/progress.h"
#include "faults/fault.h"
#include "logic/val3.h"
#include "sim3/levelized.h"

namespace motsim {

/// Explicit-state symbolic fault simulator for circuits with at most
/// kMaxDffs flip-flops (docs/ALGORITHMS.md, "Explicit-state engine").
///
/// Instead of OBDDs over the initial-state variables it enumerates
/// the initial states: bit s of a node's plane (1, 2 or 4 words) is
/// the node's value when the machine starts in state s. The
/// fault-free machine is simulated once per frame for every state and
/// shared by all faults; each faulty machine is simulated sparsely,
/// only where its plane differs from the fault-free one. SOT, rMOT
/// and MOT (Lemma 1, as a refinement of the fault-free output-prefix
/// classes) are decided exactly over those planes, so verdicts and
/// detection frames equal HybridFaultSim's whenever that engine opens
/// no fallback window, and are a sound superset when it would.
///
/// Reads the strategy and the telemetry context of its SimOptions; the
/// BDD limits, windows, trimming, s-graph, variable layout and thread
/// fields do not apply. Faults whose state has settled are dropped on
/// the evidence set_settled_drops supplies, exactly as the hybrid's
/// settled hand-off drops them.
class ExplicitStateSim {
 public:
  /// Largest flip-flop count the engine accepts: 2^8 initial states,
  /// four 64-bit words per plane.
  static constexpr std::size_t kMaxDffs = 8;

  /// Throws std::invalid_argument when options.validate() fails or the
  /// circuit has more than kMaxDffs flip-flops.
  ExplicitStateSim(std::shared_ptr<const LevelizedCircuit> circuit,
                   std::vector<Fault> faults, const SimOptions& options = {});

  /// Pre-classifies faults; non-Undetected entries are not simulated.
  void set_initial_status(std::vector<FaultStatus> status);

  /// Observer for the run (see ProgressSink), called from the thread
  /// that executes run(); `live_nodes` is always 0.
  void set_progress(ProgressSink* sink) noexcept { progress_ = sink; }

  /// Same evidence and contract as HybridFaultSim::set_settled_drops,
  /// applied per fault: after frame t a live fault is dropped when the
  /// fault-free state and the fault's state are constant over all
  /// initial states and either `exact_from` is in 1..t, or
  /// `xred_settled_from` is in 1..t and the fault's state equals the
  /// fault-free one. Verdicts and detection frames are unchanged.
  void set_settled_drops(std::vector<std::uint32_t> exact_from,
                         std::vector<std::uint32_t> xred_settled_from = {});

  /// Simulates the sequence, which must hold binary vectors of the
  /// circuit's input width (std::invalid_argument otherwise). Fills
  /// status, detect_frame, detected_count, symbolic_frames and the
  /// two drop counters of the result; every other field stays zero.
  [[nodiscard]] HybridResult run(
      const std::vector<std::vector<Val3>>& sequence);

 private:
  template <std::size_t W>
  HybridResult run_words(const std::vector<std::vector<Val3>>& sequence);

  std::shared_ptr<const LevelizedCircuit> circuit_;
  std::vector<Fault> faults_;
  SimOptions options_;
  std::vector<FaultStatus> initial_status_;
  ProgressSink* progress_ = nullptr;
  std::vector<std::uint32_t> exact_from_;
  std::vector<std::uint32_t> xred_settled_from_;
};

}  // namespace motsim

#endif  // MOTSIM_CORE_EXPLICIT_SIM_H
