#ifndef MOTSIM_SIM3_BITPAR_SIM3_H
#define MOTSIM_SIM3_BITPAR_SIM3_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/netlist.h"
#include "faults/fault.h"
#include "logic/packed_val3.h"
#include "logic/val3.h"
#include "sim3/fault_simulator.h"
#include "sim3/good_sim3.h"
#include "sim3/levelized.h"
#include "util/thread_pool.h"

namespace motsim {

/// Bit-parallel levelized three-valued fault simulator
/// (Sim3Backend::BitPar): the PPSFP engine.
///
/// Faults are packed into groups of up to 64; each bit slot of a
/// PackedVal3 plane simulates one faulty machine of the group, with
/// the fault permanently injected into its slot through forcing masks
/// (stem faults overwrite a node's output plane, branch faults
/// overwrite one input pin of one gate, DFF D-pin branch faults apply
/// at latch time). A node whose packed plane equals the broadcast
/// fault-free value is never stored: every frame seeds only the fault
/// sites and the flip-flops whose planes diverge from the good
/// machine, then propagates level by level through the fanout CSR of
/// the LevelizedCircuit — one union-cone sweep simulates 64 faulty
/// machines, instead of one event-driven cone per fault. Groups are
/// independent, so campaign runs batch them on a util/thread_pool
/// when configured with more than one worker.
///
/// A group-frame with no X source — binary fault-free present state,
/// binary input vector, X-free state in every simulated slot — runs
/// the same sweep on one 64-bit word per node instead of the two-rail
/// Kleene planes (the two-valued path, docs/SIM3.md); any later X
/// sends the group back to the three-valued planes.
///
/// Results — detected sets, FaultStatus, detect frames and next-state
/// divergences — are bit-identical to the event-driven reference
/// backend (FaultSim3) for every sequence, group packing and thread
/// count: the packed operations implement exact Kleene logic, the
/// group partition depends only on fault-list order, and result
/// writes of distinct groups never alias. bench/ablation_sim3_backends
/// enforces this; bench/sim3_microbench measures the speedup.
class BitParFaultSim3 final : public FaultSimulator3 {
 public:
  /// `threads` drives campaign-run group batching: 0 = hardware
  /// concurrency, 1 = serial (no pool).
  BitParFaultSim3(const Netlist& netlist, std::vector<Fault> faults,
                  std::size_t threads = 1);
  /// Same, over a compiled circuit other engines of the job share.
  BitParFaultSim3(std::shared_ptr<const LevelizedCircuit> circuit,
                  std::vector<Fault> faults, std::size_t threads = 1);

  [[nodiscard]] Sim3Backend backend() const noexcept override {
    return Sim3Backend::BitPar;
  }

  [[nodiscard]] FaultSim3Result run(
      const std::vector<std::vector<Val3>>& sequence) override;

  void begin_window(const std::vector<Val3>& good_state,
                    std::vector<std::size_t> fault_indices,
                    std::vector<StateDiff3> diffs) override;
  [[nodiscard]] std::vector<std::uint32_t> step_window(
      const std::vector<Val3>& inputs) override;
  void drop_window_fault(std::uint32_t pos) override;
  [[nodiscard]] std::size_t window_live() const override {
    return window_live_;
  }
  [[nodiscard]] bool window_fault_alive(std::uint32_t pos) const override;
  [[nodiscard]] const std::vector<Val3>& window_state() const override {
    return good_.state();
  }
  [[nodiscard]] StateDiff3 window_diff(std::uint32_t pos) const override;
  void end_window() override;

  [[nodiscard]] const LevelizedCircuit& circuit() const noexcept {
    return *lc_;
  }

 private:
  /// Up to 64 faults compiled into per-slot injection tables plus the
  /// packed sequential state of their faulty machines.
  struct Group {
    std::vector<std::size_t> members;  ///< fault indices, slot order
    std::uint64_t full_mask = 0;
    /// Stem forces, one merged mask per forced node (both polarities
    /// of one stem can share a group in distinct slots), and their
    /// node-indexed lookup: stem_at[n] is 1 + the entry of node n, 0
    /// when n carries no stem force. A group holds at most 64 faults,
    /// so a byte indexes every table.
    std::vector<std::pair<NodeIndex, PackedVal3>> stem_forces;
    std::vector<std::uint8_t> stem_at;
    /// Branch forces: branch_at[n] is 1 + the entry of gate node n in
    /// branch_pins, 0 when none of its input pins is forced;
    /// branch_pins holds the offset of the gate's block in pin_forces,
    /// one force mask per input pin (two for NOT/BUF, whose AND form
    /// reads pin 0 twice: the second entry repeats the first).
    std::vector<std::uint8_t> branch_at;
    std::vector<std::uint32_t> branch_pins;
    std::vector<PackedVal3> pin_forces;
    /// Next-state forcing masks for DFF D-pin branch faults.
    std::vector<std::pair<std::uint32_t, PackedVal3>> latch_forces;
    /// Stem forces on primary inputs / constants (frame-input seeds).
    std::vector<std::pair<NodeIndex, PackedVal3>> input_stem_forces;
    /// Stem forces on gates carrying no branch force: a stem overwrites
    /// the output, so the seed plane is the forced fault-free plane and
    /// the gate itself needs no evaluation (when inputs diverge the
    /// scheduled evaluation recomputes and re-publishes it).
    std::vector<std::pair<NodeIndex, PackedVal3>> stem_gate_seeds;
    /// Stem forces on flip-flop outputs as (dff position, force);
    /// seeded even when the flip-flop's plane is clean.
    std::vector<std::pair<std::uint32_t, PackedVal3>> stem_dff_forces;
    /// Compiled gates carrying an injection (stem or branch), sorted
    /// and deduplicated; scheduled unconditionally every frame so a
    /// fault re-injects even when none of its gate's inputs changed.
    std::vector<std::uint32_t> seed_gates;
    /// Gate-indexed injection bits, one per compiled gate in the
    /// schedule-word layout: the sweep tests them against the
    /// schedule bit index directly, off the critical path of the gate
    /// record load, and only a set bit pays a table lookup.
    std::vector<std::uint64_t> stem_gate_bits;
    std::vector<std::uint64_t> branch_gate_bits;

    /// Per flip-flop planes — only valid where state_dirty is set; a
    /// clean flip-flop implicitly equals the fault-free machine, which
    /// is what lets the seed and latch loops skip it.
    std::vector<PackedVal3> state;
    std::vector<std::uint8_t> state_dirty;
    std::uint64_t alive = 0;  ///< not-detected (run) / not-dropped
    /// Slots whose state is X-free, with an X-free fault-free state
    /// too — as of the last latch (or begin_window). When it covers
    /// every simulated slot and the next frame's fault-free values are
    /// binary, that frame runs on the two-valued path. Campaign runs
    /// also turn it into FaultSim3Result::exact_from: the streak of
    /// each slot started after frame binary_since[slot].
    std::uint64_t binary = 0;
    std::array<std::uint32_t, kPackedSlots> binary_since{};
  };

  /// One node's scratch record: the plane and its epoch stamp share a
  /// 32-byte block so a divergence check plus value read is one cache
  /// line instead of two arrays.
  struct alignas(32) NodeSlot {
    std::uint32_t stamp = 0;
    std::uint32_t pad_ = 0;
    PackedVal3 val;
  };

  /// Per-evaluation scratch of the sparse kernel. Epoch stamps make
  /// clearing O(1) per frame: a NodeSlot is only valid when its stamp
  /// equals the current epoch, everything else implicitly holds the
  /// broadcast fault-free plane. `sched` is one bit per compiled gate;
  /// the ascending sweep consumes and clears it, so it is all-zero
  /// between frames.
  struct Scratch {
    explicit Scratch(const LevelizedCircuit& lc);

    std::vector<NodeSlot> nodes;       ///< per node, epoch-guarded
    std::vector<std::uint64_t> sched;  ///< per gate pending bit
    std::uint32_t epoch = 0;
  };

  [[nodiscard]] Group build_group(const std::size_t* fault_indices,
                                  std::size_t count) const;
  /// Sparse frame evaluation over one plane type (the plane policies
  /// in bitpar_sim3.cpp: two-rail Kleene planes, or one word per node
  /// on the two-valued path): seeds the group's divergences against
  /// the fault-free values of this frame (`good`, one scalar per node
  /// — the kernel re-broadcasts on the fly, keeping the side channel a
  /// byte per node so it stays L1-resident), propagates level by level
  /// through the fanout CSR, and leaves the divergent planes
  /// epoch-stamped in `s` as PackedVal3 (a one-word plane v as
  /// {v, ~v}). Slots outside `mask` are pinned to the fault-free value
  /// before storing, so detected (campaign) or padding slots generate
  /// no activity. Returns the number of packed gate words evaluated.
  template <typename Plane>
  std::uint64_t eval_frame_sparse(const Group& group, const Val3* good,
                                  std::uint64_t mask, Scratch& s) const;

  struct ChunkStats {
    std::uint64_t words = 0;   ///< packed gate words evaluated
    std::uint64_t frames = 0;  ///< group-frames simulated
    std::uint64_t binary_frames = 0;  ///< of those, on the two-valued path
  };
  /// Evaluates one group-frame with the slots of `mask` simulated,
  /// on the two-valued path when `frame_binary` (every fault-free
  /// value of the frame is binary) and every simulated slot's state
  /// is X-free (Group::binary), else on the three-valued planes.
  void eval_frame(const Group& group, const Val3* good, bool frame_binary,
                  std::uint64_t mask, Scratch& s, ChunkStats& stats) const;
  /// Latches the planes left by the matching eval_frame_sparse()
  /// (untouched D-pins fall back to the fault-free plane). Returns the
  /// slots whose latched state holds an X on some flip-flop whose plane
  /// diverges from the fault-free one; slots equal to the fault-free
  /// state elsewhere are X-free exactly when the fault-free state is.
  std::uint64_t latch_group(Group& group, const Val3* good,
                            const Scratch& s) const;
  /// Campaign kernel for one group over one frame (index `t` in the
  /// sequence): sparse evaluation, SOT detection against the alive
  /// mask, then latching and the X-free streak update
  /// (`good_state_binary`: the fault-free next state is X-free). The
  /// caller must not invoke this once `group.alive` is zero.
  void simulate_frame(Group& group, std::size_t t, const Val3* good,
                      bool frame_binary, bool good_state_binary,
                      Scratch& scratch, FaultSim3Result& result,
                      ChunkStats& stats) const;
  /// One group over one chunk of frames (`good_frames[f]` = fault-free
  /// node values of frame `base + f`, `frame_binary[f]` = they are all
  /// binary, `good_binary[f]` = its next state is X-free) — the unit
  /// of thread-pool batching. The serial path instead sweeps
  /// frame-outer over all groups for cache locality; both orders visit
  /// the same (group, frame) cells, so results are identical.
  ChunkStats simulate_chunk(
      Group& group, std::size_t base,
      const std::vector<std::vector<Val3>>& good_frames,
      const std::vector<std::uint8_t>& frame_binary,
      const std::vector<std::uint8_t>& good_binary, Scratch& scratch,
      FaultSim3Result& result) const;
  /// Adds one batch of work to the sim3.* counters (no-op without
  /// telemetry).
  void record(const ChunkStats& stats) const;

  std::shared_ptr<const LevelizedCircuit> lc_;
  std::size_t threads_;
  std::unique_ptr<ThreadPool> pool_;

  // Window session state.
  GoodSim3 good_;
  std::vector<Group> window_groups_;
  std::unique_ptr<Scratch> window_scratch_;
  std::size_t window_size_ = 0;
  std::size_t window_live_ = 0;
};

}  // namespace motsim

#endif  // MOTSIM_SIM3_BITPAR_SIM3_H
