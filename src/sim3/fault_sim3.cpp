#include "sim3/fault_sim3.h"

#include <algorithm>
#include <stdexcept>

namespace motsim {

// ---------------------------------------------------------------------------
// FaultPropagator3
// ---------------------------------------------------------------------------

FaultPropagator3::FaultPropagator3(const Netlist& netlist)
    : netlist_(&netlist),
      scratch_val_(netlist.node_count(), Val3::X),
      scratch_stamp_(netlist.node_count(), 0),
      queue_(netlist) {
  if (!netlist.finalized()) {
    throw std::logic_error("FaultPropagator3 requires a finalized netlist");
  }
}

Val3 FaultPropagator3::fval(NodeIndex node,
                            const std::vector<Val3>& good_values) const {
  return scratch_stamp_[node] == stamp_ ? scratch_val_[node]
                                        : good_values[node];
}

bool FaultPropagator3::step(const Fault& fault, StateDiff3& state_diff,
                            const std::vector<Val3>& good_values,
                            const std::vector<Val3>& good_next_state,
                            bool latch_even_if_detected) {
  const Netlist& nl = *netlist_;

  ++stamp_;
  changed_.clear();

  auto set_fval = [&](NodeIndex n, Val3 v) {
    if (scratch_stamp_[n] != stamp_) {
      scratch_stamp_[n] = stamp_;
      changed_.push_back(n);
    }
    scratch_val_[n] = v;
  };

  auto enqueue_fanouts = [&](NodeIndex n) {
    for (const FanoutRef& fo : nl.fanouts(n)) {
      if (nl.type(fo.node) != GateType::Dff) queue_.push(fo.node);
    }
  };

  // Seed 1: diverging present-state bits.
  for (const auto& [pos, v] : state_diff) {
    const NodeIndex dff = nl.dffs()[pos];
    set_fval(dff, v);
    enqueue_fanouts(dff);
  }

  // Seed 2: the fault site.
  const Val3 sv = to_val3(fault.stuck_value);
  const NodeIndex site_node = fault.site.node;
  if (fault.site.is_stem()) {
    const Val3 cur = fval(site_node, good_values);
    set_fval(site_node, sv);
    if (cur != sv) enqueue_fanouts(site_node);
  } else if (nl.type(site_node) != GateType::Dff) {
    // A branch fault re-evaluates only the faulted gate; the override
    // is applied inside the evaluation below. (DFF D-pin branch faults
    // act purely on the next state, handled at latch time.)
    const NodeIndex src = nl.gate(site_node).fanins[fault.site.pin];
    if (fval(src, good_values) != sv) queue_.push(site_node);
  }

  // Propagate divergence in level order.
  for (NodeIndex n = queue_.pop(); n != kNoNode; n = queue_.pop()) {
    if (fault.site.is_stem() && n == site_node) continue;  // output pinned
    const Gate& g = nl.gate(n);
    const bool branch_here = !fault.site.is_stem() && n == site_node;
    const Val3 newv =
        eval_gate3(g.type, g.fanins.size(), [&](std::size_t i) {
          if (branch_here && i == fault.site.pin) return sv;
          return fval(g.fanins[i], good_values);
        });
    if (newv != fval(n, good_values)) {
      set_fval(n, newv);
      enqueue_fanouts(n);
    }
  }

  // Detection: any primary output with opposite binary values.
  bool detected = false;
  for (NodeIndex n : changed_) {
    if (!nl.is_output(n)) continue;
    const Val3 gv = good_values[n];
    const Val3 fv = scratch_val_[n];
    if (is_binary(gv) && is_binary(fv) && gv != fv) {
      detected = true;
      break;
    }
  }
  if (detected && !latch_even_if_detected) return true;

  // Latch the faulty next state as a sparse diff against the fault-free
  // next state.
  state_diff.clear();
  for (std::uint32_t pos = 0; pos < nl.dffs().size(); ++pos) {
    const NodeIndex dff = nl.dffs()[pos];
    const NodeIndex d = nl.gate(dff).fanins[0];
    Val3 fv = fval(d, good_values);
    if (!fault.site.is_stem() && fault.site.node == dff) fv = sv;
    if (fv != good_next_state[pos]) state_diff.emplace_back(pos, fv);
  }

  return detected;
}

// ---------------------------------------------------------------------------
// FaultSim3 (event backend)
// ---------------------------------------------------------------------------

FaultSim3::FaultSim3(const Netlist& netlist, std::vector<Fault> faults)
    : FaultSimulator3(std::move(faults)),
      netlist_(&netlist),
      propagator_(netlist),
      good_(netlist) {}

FaultSim3Result FaultSim3::run(
    const std::vector<std::vector<Val3>>& sequence) {
  FaultSim3Result result;
  result.status = initial_status_;
  result.detect_frame.assign(faults_.size(), 0);
  result.exact_from.assign(faults_.size(), 0);

  struct Live {
    std::size_t index;
    StateDiff3 state_diff;
    /// First frame of the current run of frames after which both
    /// states were X-free; 0 while the run is broken.
    std::uint32_t binary_since = 0;
  };
  std::vector<Live> live;
  live.reserve(faults_.size());
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] == FaultStatus::Undetected) {
      live.push_back(Live{i, {}});
    }
  }
  result.simulated_faults = live.size();

  GoodSim3 good(good_.circuit());
  for (std::size_t t = 0; t < sequence.size() && !live.empty(); ++t) {
    good.step(sequence[t]);
    const std::vector<Val3>& good_values = good.values();
    const std::vector<Val3>& good_next = good.state();
    const bool good_binary =
        std::all_of(good_next.begin(), good_next.end(), is_binary);
    const auto frame = static_cast<std::uint32_t>(t + 1);

    std::size_t keep = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      Live& lf = live[i];
      if (propagator_.step(faults_[lf.index], lf.state_diff, good_values,
                           good_next)) {
        result.status[lf.index] = FaultStatus::DetectedSim3;
        result.detect_frame[lf.index] = frame;
        ++result.detected_count;
        continue;
      }
      // The faulty state is X-free iff the fault-free one is and every
      // divergent entry is binary.
      const bool binary =
          good_binary &&
          std::all_of(lf.state_diff.begin(), lf.state_diff.end(),
                      [](const auto& entry) { return is_binary(entry.second); });
      if (!binary) {
        lf.binary_since = 0;
      } else if (lf.binary_since == 0) {
        lf.binary_since = frame;
      }
      if (keep != i) live[keep] = std::move(lf);
      ++keep;
    }
    live.resize(keep);
  }

  const std::uint32_t last_x =
      last_nonbinary_frame(sequence, netlist_->input_count());
  for (const Live& lf : live) {
    if (lf.binary_since != 0) {
      result.exact_from[lf.index] = std::max(lf.binary_since, last_x);
    }
  }
  return result;
}

void FaultSim3::begin_window(const std::vector<Val3>& good_state,
                             std::vector<std::size_t> fault_indices,
                             std::vector<StateDiff3> diffs) {
  if (fault_indices.size() != diffs.size()) {
    throw std::invalid_argument("begin_window: indices/diffs mismatch");
  }
  good_.set_state(good_state);
  window_.clear();
  window_.reserve(fault_indices.size());
  for (std::size_t i = 0; i < fault_indices.size(); ++i) {
    window_.push_back(WindowFault{fault_indices[i], std::move(diffs[i]), true});
  }
  window_live_ = window_.size();
}

std::vector<std::uint32_t> FaultSim3::step_window(
    const std::vector<Val3>& inputs) {
  good_.step(inputs);
  const std::vector<Val3>& good_values = good_.values();
  const std::vector<Val3>& good_next = good_.state();

  std::vector<std::uint32_t> observed;
  for (std::uint32_t pos = 0; pos < window_.size(); ++pos) {
    WindowFault& wf = window_[pos];
    if (!wf.alive) continue;
    // latch_even_if_detected keeps the faulty machine coherent: the
    // caller decides whether an observation drops the fault.
    if (propagator_.step(faults_[wf.index], wf.diff, good_values, good_next,
                         /*latch_even_if_detected=*/true)) {
      observed.push_back(pos);
    }
  }
  return observed;
}

void FaultSim3::drop_window_fault(std::uint32_t pos) {
  if (window_[pos].alive) {
    window_[pos].alive = false;
    --window_live_;
  }
}

void FaultSim3::end_window() {
  window_.clear();
  window_live_ = 0;
}

}  // namespace motsim
