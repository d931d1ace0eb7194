#ifndef MOTSIM_CORE_PARALLEL_SYM_SIM_H
#define MOTSIM_CORE_PARALLEL_SYM_SIM_H

#include <cstddef>
#include <optional>
#include <vector>

#include "core/checkpoint.h"
#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/progress.h"
#include "faults/fault.h"
#include "logic/val3.h"

namespace motsim {

/// Default shard size of the parallel driver: small enough to load-
/// balance a handful of workers on a ~1k-fault list, large enough that
/// the per-shard fixed cost (BDD manager + symbolic true-value
/// simulation of the whole sequence) stays amortized.
inline constexpr std::size_t kDefaultChunkSize = 64;

/// Fault-sharded parallel symbolic fault simulator.
///
/// The paper's hybrid engine is embarrassingly parallel across the
/// fault list — each faulty machine's detection function D̃ evolves
/// independently of every other fault — so this driver partitions the
/// live faults into fixed chunks, runs one HybridFaultSim per chunk,
/// each with its own private bdd::BddManager (the manager is single-
/// threaded by design; see bdd/bdd.h), and lets a pool of workers
/// drain the chunk queue via an atomic cursor.
///
/// Every shard's HybridFaultSim runs with this driver's SimOptions, so
/// `node_limit` is per shard (per BDD manager): a shard enters its
/// three-valued fallback window based on its own manager's live-node
/// count. `threads` is the worker count (0 = one per hardware thread)
/// and `chunk_size` the shard size (0 = kDefaultChunkSize);
/// `options.telemetry`, when set, is shared by every shard — the
/// instruments are thread-safe — and additionally receives a per-shard
/// "shard" span, the parallel.shard_seconds histogram and the worker
/// pool's statistics.
///
/// When options.trim is on, the live faults are first reordered
/// so faults sharing a cone-of-influence signature become shard
/// neighbours (cluster_live_order, analysis/cone.h): shard-mates then
/// diverge over the same region of the circuit, maximizing reuse of
/// the shard's one fault-free OBDD evaluation and its shared per-frame
/// MOT equality products. When options.sgraph is additionally
/// on, the clustered order is stably partitioned by s-graph
/// observation horizon, so faults that downgrade at the same frame —
/// equivalently, whose cones avoid the same SCC-fed outputs — share
/// shards and their downgraded frames stay cheap together (docs/
/// DESIGN.md). Both reorders are pure functions of the netlist, fault
/// list and initial statuses, so determinism is unaffected.
///
/// Determinism: the chunk partition is a pure function of the fault
/// list, the initial statuses, `chunk_size` and the trim/sgraph flags
/// — never of `threads` or of scheduling — and every chunk's simulation is
/// self-contained, so
/// the merged result is bit-identical for ANY thread count (1, 2, 8,
/// ...), including runs where fallback windows trigger. Relative to
/// the UNsharded serial engine the per-fault statuses also match
/// whenever no fallback window runs in either engine (the common
/// case); under memory pressure the window *schedules* differ — the
/// serial engine trips its limit on the whole fault list's nodes, a
/// shard only on its own — and coverage may legitimately differ while
/// remaining sound in both. docs/PARALLEL.md spells this out.
///
/// The merged HybridResult: per-fault status/detect_frame are written
/// into the global fault order; detected_count, fallback_windows,
/// symbolic_frames, three_valued_frames, binary_frames and the other
/// event counters (x01_exact_drops and xred_settled_drops among them)
/// are summed
/// over shards (each shard walks the whole sequence, so frame counters
/// scale with the shard count); peak_live_nodes is the max over
/// shards; used_fallback is the OR.
class ParallelSymSim {
 public:
  /// Validates the options like HybridFaultSim does (throws
  /// std::invalid_argument when options.validate() fails and
  /// std::logic_error on a non-finalized netlist).
  ParallelSymSim(const Netlist& netlist, std::vector<Fault> faults,
                 const SimOptions& options = {});

  /// Pre-classifies faults; non-Undetected entries are not simulated.
  void set_initial_status(std::vector<FaultStatus> status);

  /// Observer for the run; callbacks are serialized through a mutex
  /// and fault indices are translated to this fault list's indexing.
  /// Pass nullptr (default) for zero overhead.
  void set_progress(ProgressSink* sink) noexcept { progress_ = sink; }

  /// Receiver of checkpoint snapshots (options.checkpoint_interval
  /// must be nonzero for any to fire). Calls are serialized through
  /// the same mutex as progress callbacks; `chunk` and `fault_index`
  /// are translated to this driver's global chunk/fault numbering, so
  /// one sink (e.g. a RunStore) can persist every shard's snapshots
  /// into a single log. A sink that throws aborts the run.
  void set_checkpoint_sink(CheckpointSink* sink) noexcept {
    checkpoint_ = sink;
  }

  /// Resumes from per-chunk snapshots previously emitted through a
  /// checkpoint sink (global numbering, at most one per chunk; chunks
  /// without a snapshot start from frame 0). The caller must recreate
  /// the original partition: same fault list, same initial statuses,
  /// same chunk_size. run() validates each snapshot's fault set
  /// against the partition and throws std::invalid_argument on any
  /// mismatch. Thread count may differ from the original run — the
  /// merged result is still bit-identical.
  void set_resume(std::vector<ChunkCheckpoint> chunks) {
    resume_ = std::move(chunks);
  }

  /// Every-frame constant nets to tie in every shard's symbolic
  /// true-value simulator (see HybridFaultSim::set_tied_constants;
  /// empty = none). Bit-identical by OBDD canonicity, per shard.
  void set_tied_constants(std::vector<ConstVal> tied) {
    tied_ = std::move(tied);
  }

  /// Supplies a pre-built trimming plan in this fault list's global
  /// indexing (see HybridFaultSim::set_trim_plan); the driver slices
  /// it per chunk. Without it a structural plan is built once when
  /// options.trim is on. Ignored when trimming is off.
  void set_trim_plan(TrimPlan plan);

  /// Supplies a pre-built s-graph plan in this fault list's global
  /// indexing (see HybridFaultSim::set_sgraph_plan); the driver slices
  /// it per chunk and folds its horizons into the shard assignment.
  /// Without it a plan is built once when options.sgraph is on.
  /// Ignored when the pass is off.
  void set_sgraph_plan(SgraphPlan plan);

  /// Supplies the three-valued stage's exact_from and ID_X-red's
  /// per-fault settled_from in this fault list's global indexing (see
  /// HybridFaultSim::set_settled_drops); the driver slices both per
  /// chunk. An empty vector (the default) disables its hand-off drop.
  void set_settled_drops(std::vector<std::uint32_t> exact_from,
                         std::vector<std::uint32_t> xred_settled_from = {});

  /// Thread count after resolving 0 to the hardware default.
  [[nodiscard]] std::size_t resolved_threads() const noexcept;
  /// Shard size after resolving 0 to kDefaultChunkSize.
  [[nodiscard]] std::size_t resolved_chunk_size() const noexcept;

  [[nodiscard]] HybridResult run(
      const std::vector<std::vector<Val3>>& sequence);

 private:
  const Netlist* netlist_;
  std::vector<Fault> faults_;
  SimOptions options_;
  std::vector<FaultStatus> initial_status_;
  ProgressSink* progress_ = nullptr;
  CheckpointSink* checkpoint_ = nullptr;
  std::vector<ChunkCheckpoint> resume_;
  std::vector<ConstVal> tied_;
  std::optional<TrimPlan> trim_plan_;
  std::optional<SgraphPlan> sgraph_plan_;
  std::vector<std::uint32_t> exact_from_;
  std::vector<std::uint32_t> xred_settled_from_;
};

}  // namespace motsim

#endif  // MOTSIM_CORE_PARALLEL_SYM_SIM_H
