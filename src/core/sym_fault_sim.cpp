#include "core/sym_fault_sim.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/cone.h"

namespace motsim {

using bdd::Bdd;

const char* to_cstring(Strategy s) noexcept {
  switch (s) {
    case Strategy::Sot:
      return "SOT";
    case Strategy::Rmot:
      return "rMOT";
    case Strategy::Mot:
      return "MOT";
  }
  return "?";
}

FaultStatus detected_status(Strategy s) noexcept {
  switch (s) {
    case Strategy::Sot:
      return FaultStatus::DetectedSot;
    case Strategy::Rmot:
      return FaultStatus::DetectedRmot;
    default:
      return FaultStatus::DetectedMot;
  }
}

// ---------------------------------------------------------------------------
// SymFrameContext
// ---------------------------------------------------------------------------

SymFrameContext::SymFrameContext(const std::vector<Bdd>& good_values,
                                 const std::vector<Bdd>& good_next_state,
                                 std::size_t output_count)
    : good_values_(&good_values),
      good_next_state_(&good_next_state),
      out_y_(output_count),
      eq_term_(output_count) {}

const Bdd& SymFrameContext::good_output_y(
    std::size_t j, const Bdd& good_out, bdd::BddManager& mgr,
    const std::vector<bdd::VarIndex>& x2y) {
  if (out_y_[j].is_null()) out_y_[j] = mgr.rename(good_out, x2y);
  return out_y_[j];
}

const Bdd& SymFrameContext::good_eq_term(
    std::size_t j, const Bdd& good_out, bdd::BddManager& mgr,
    const std::vector<bdd::VarIndex>& x2y) {
  if (eq_term_[j].is_null()) {
    eq_term_[j] = good_out.xnor(good_output_y(j, good_out, mgr, x2y));
  }
  return eq_term_[j];
}

const Bdd& SymFrameContext::frame_eq_product(
    const Netlist& netlist, bdd::BddManager& mgr,
    const std::vector<bdd::VarIndex>& x2y) {
  if (eq_product_.is_null()) {
    const std::vector<Bdd>& good = *good_values_;
    const auto& outputs = netlist.outputs();
    // Never zero: every assignment with y == x satisfies each term.
    Bdd p = mgr.one();
    for (std::size_t j = 0; j < outputs.size(); ++j) {
      const Bdd& gv = good[outputs[j]];
      if (gv.is_const()) continue;  // [b == b] == 1
      p &= good_eq_term(j, gv, mgr, x2y);
    }
    eq_product_ = p;
  }
  return eq_product_;
}

// ---------------------------------------------------------------------------
// SymFaultPropagator
// ---------------------------------------------------------------------------

SymFaultPropagator::SymFaultPropagator(const Netlist& netlist,
                                       bdd::BddManager& mgr,
                                       const StateVars& vars)
    : SymFaultPropagator(std::make_shared<const LevelizedCircuit>(netlist),
                         mgr, vars) {}

SymFaultPropagator::SymFaultPropagator(
    std::shared_ptr<const LevelizedCircuit> circuit, bdd::BddManager& mgr,
    const StateVars& vars)
    : circuit_(std::move(circuit)),
      netlist_(&circuit_->netlist()),
      mgr_(&mgr),
      vars_(vars),
      x2y_(vars.x_to_y_mapping()),
      scratch_val_(netlist_->node_count()),
      scratch_stamp_(netlist_->node_count(), 0),
      queue_(*netlist_) {
  const Netlist& netlist = *netlist_;
  mgr.ensure_vars(vars.var_count());
  std::size_t max_arity = 0;
  for (const LevGate& g : circuit_->gates()) {
    max_arity = std::max<std::size_t>(max_arity, g.arity);
  }
  operands_.resize(max_arity);
  // Group the flip-flop positions by D-input net (CSR, ascending
  // positions within a group).
  const std::vector<NodeIndex>& dff_d = circuit_->dff_d();
  latch_begin_.assign(netlist.node_count() + 1, 0);
  for (std::uint32_t pos = 0; pos < dff_d.size(); ++pos) {
    ++latch_begin_[dff_d[pos] + 1];
  }
  for (std::size_t n = 0; n < netlist.node_count(); ++n) {
    latch_begin_[n + 1] += latch_begin_[n];
  }
  latch_pos_.resize(dff_d.size());
  std::vector<std::uint32_t> fill(latch_begin_.begin(), latch_begin_.end());
  for (std::uint32_t pos = 0; pos < dff_d.size(); ++pos) {
    latch_pos_[fill[dff_d[pos]]++] = pos;
  }
}

const Bdd& SymFaultPropagator::fval(NodeIndex node,
                                    const std::vector<Bdd>& good) const {
  return scratch_stamp_[node] == stamp_ ? scratch_val_[node] : good[node];
}

bool SymFaultPropagator::quiescent(
    const Fault& fault,
    const std::vector<std::pair<std::uint32_t, Bdd>>& state_diff,
    const std::vector<Bdd>& good) const {
  if (!trim_ || !state_diff.empty()) return false;
  // With no stored state divergence, the faulty machine can only
  // diverge this frame through the fault site itself; when the
  // activation net's fault-free value is the constant stuck value (for
  // every power-up state — the BDD is the constant node), forcing the
  // stuck value changes nothing anywhere. Because primary inputs are
  // concrete per frame, input-cone nets have constant good values and
  // this fires far beyond statically tied nets.
  const NodeIndex act = activation_node(*netlist_, fault);
  if (act == kNoNode) return false;
  const Bdd& av = good[act];
  return av.is_const() && av.is_one() == fault.stuck_value;
}

void SymFaultPropagator::propagate(
    const Fault& fault, const Bdd& sv,
    const std::vector<std::pair<std::uint32_t, Bdd>>& state_diff,
    const std::vector<Bdd>& good) {
  const LevelizedCircuit& lc = *circuit_;
  const std::vector<LevGate>& gates = lc.gates();
  const std::vector<std::uint32_t>& gate_of = lc.gate_of();

  ++stamp_;
  changed_.clear();

  auto set_fval = [&](NodeIndex n, const Bdd& v) {
    if (scratch_stamp_[n] != stamp_) {
      scratch_stamp_[n] = stamp_;
      changed_.push_back(n);
    }
    scratch_val_[n] = v;
  };

  // Consumer gates in the netlist's fanout order, which fixes the
  // evaluation order within a level (flip-flop D-pins are not listed).
  auto enqueue_fanouts = [&](NodeIndex n) {
    const auto [fo, fe] = lc.fanout_gates(n);
    for (const std::uint32_t* it = fo; it != fe; ++it) {
      queue_.push(gates[*it].node);
    }
  };

  // Seed 1: diverging present-state bits (the flip-flop nodes carry
  // the *present* state as frame inputs in the good-value vector).
  for (const auto& [pos, v] : state_diff) {
    const NodeIndex dff = lc.dffs()[pos];
    set_fval(dff, v);
    enqueue_fanouts(dff);
  }

  // Seed 2: the fault site. A branch fault on a flip-flop's D pin
  // (a node with no compiled gate) acts only when latching.
  const NodeIndex site_node = fault.site.node;
  if (fault.site.is_stem()) {
    const bool diverges = fval(site_node, good) != sv;
    set_fval(site_node, sv);
    if (diverges) enqueue_fanouts(site_node);
  } else if (gate_of[site_node] != LevelizedCircuit::kNoGate) {
    const NodeIndex src = lc.fanin(gates[gate_of[site_node]], fault.site.pin);
    if (fval(src, good) != sv) queue_.push(site_node);
  }

  // Propagate divergence in level order.
  for (NodeIndex n = queue_.pop(); n != kNoNode; n = queue_.pop()) {
    if (fault.site.is_stem() && n == site_node) continue;  // output pinned
    const LevGate& g = gates[gate_of[n]];
    const bool branch_here = !fault.site.is_stem() && n == site_node;
    for (std::size_t i = 0; i < g.arity; ++i) {
      operands_[i] = branch_here && i == fault.site.pin
                         ? sv.id()
                         : fval(lc.fanin(g, i), good).id();
    }
    const Bdd newv = eval_gate_sym(
        *mgr_, g.op, std::span<const bdd::NodeId>(operands_.data(), g.arity));
    ++gate_evaluations_;
    if (newv != fval(n, good)) {
      set_fval(n, newv);
      enqueue_fanouts(n);
    }
  }
}

bool SymFaultPropagator::detect_sot(const std::vector<Bdd>& good) const {
  // Both responses constant and opposite (paper IV.A case 1).
  const Netlist& nl = *netlist_;
  for (NodeIndex n : changed_) {
    if (!nl.is_output(n)) continue;
    const Bdd& gv = good[n];
    const Bdd& fv = scratch_val_[n];
    if (gv.is_const() && fv.is_const() && gv != fv) return true;
  }
  return false;
}

int SymFaultPropagator::scan_const_divergence(
    const std::vector<Bdd>& good) const {
  // Past a fault's observation horizon, every output it can reach is
  // a function of primary inputs alone in BOTH machines — a constant
  // BDD under the frame's concrete inputs (the fault only removes
  // s-graph edges, so faulty synchronization depths never exceed the
  // fault-free ones). Propagation never writes outside the fault's
  // cone, so scanning the changed outputs covers every possible
  // divergence.
  int found = 0;
  const Netlist& nl = *netlist_;
  for (NodeIndex n : changed_) {
    if (!nl.is_output(n)) continue;
    const Bdd& gv = good[n];
    const Bdd& fv = scratch_val_[n];
    if (fv == gv) continue;
    if (!gv.is_const() || !fv.is_const()) return -1;
    found = 1;
  }
  return found;
}

bool SymFaultPropagator::update_rmot(Bdd& detect,
                                     const std::vector<Bdd>& good) {
  // Accumulate over diverged outputs whose fault-free value is
  // constant (paper IV.A case 2); undiverged outputs contribute the
  // unit term.
  const Netlist& nl = *netlist_;
  for (NodeIndex n : changed_) {
    if (!nl.is_output(n) || !good[n].is_const()) continue;
    const Bdd& fv = scratch_val_[n];
    if (fv == good[n]) continue;
    const Bdd term = good[n].is_one() ? fv : !fv;
    detect &= term;
    if (detect.is_zero()) return true;
  }
  return false;
}

bool SymFaultPropagator::update_mot(Bdd& detect, SymFrameContext& ctx) {
  // All outputs contribute [o(x,t) == o^f(y,t)] (paper IV.A case 3);
  // the faulty x-based response is mapped to the independent initial
  // state y by the order-preserving rename.
  const Netlist& nl = *netlist_;
  const std::vector<Bdd>& good = ctx.good_values();
  const auto& outputs = nl.outputs();
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    const NodeIndex n = outputs[j];
    const bool diverged =
        scratch_stamp_[n] == stamp_ && scratch_val_[n] != good[n];
    Bdd term;
    if (diverged) {
      const Bdd of_y = mgr_->rename(scratch_val_[n], x2y_);
      term = good[n].xnor(of_y);
    } else if (good[n].is_const()) {
      continue;  // [b == b] == 1
    } else {
      term = ctx.good_eq_term(j, good[n], *mgr_, x2y_);
    }
    detect &= term;
    if (detect.is_zero()) return true;
  }
  return false;
}

void SymFaultPropagator::latch_diffs(
    const Fault& fault, const Bdd& sv, SymFrameContext& ctx,
    std::vector<std::pair<std::uint32_t, Bdd>>& out) {
  // A flip-flop latches a value other than the fault-free next state
  // only if its D-input net changed this frame, or if the fault is a
  // branch fault on its D pin (the pin reads the stuck value whatever
  // the net carries).
  const Netlist& nl = *netlist_;
  const std::vector<Bdd>& good_next = ctx.good_next_state();
  const std::uint32_t pin_pos = fault.site.is_stem()
                                    ? kNoLatch
                                    : nl.dff_position(fault.site.node);
  latch_buf_.clear();
  if (pin_pos != kNoLatch) latch_buf_.push_back(pin_pos);
  for (const NodeIndex n : changed_) {
    for (std::uint32_t i = latch_begin_[n]; i < latch_begin_[n + 1]; ++i) {
      if (latch_pos_[i] != pin_pos) latch_buf_.push_back(latch_pos_[i]);
    }
  }
  // Position order is part of the state_diff contract (checkpoints and
  // the three-valued hand-off see it).
  std::sort(latch_buf_.begin(), latch_buf_.end());
  out.clear();
  for (const std::uint32_t pos : latch_buf_) {
    const Bdd& fv = pos == pin_pos ? sv : scratch_val_[circuit_->dff_d()[pos]];
    if (fv != good_next[pos]) out.emplace_back(pos, fv);
  }
}

void SymFaultPropagator::release_scratch() {
  // Releases the scratch handles so dead intermediate functions can be
  // collected; the stamp already invalidates them logically.
  for (NodeIndex n : changed_) scratch_val_[n] = Bdd();
}

bool SymFaultPropagator::step(const Fault& fault, Strategy strategy,
                              SymFaultState& fs, SymFrameContext& ctx,
                              bool downgraded) {
  if (quiescent(fault, fs.state_diff, ctx.good_values())) {
    // Identical machines this frame: propagation, SOT/rMOT detection
    // (both only examine diverged outputs) and latching are no-ops.
    // MOT still owes [o_j(x) == o_j(y)] for every non-constant output;
    // that is exactly the shared frame product, and `zero & t == zero`
    // plus associativity make the result bit-identical to the
    // untrimmed per-output accumulation.
    ++trim_counters_.frames_skipped;
    if (strategy != Strategy::Mot) return false;
    ++trim_counters_.shared_eq_uses;
    fs.detect &= ctx.frame_eq_product(*netlist_, *mgr_, x2y_);
    return fs.detect.is_zero();
  }

  const Bdd sv = mgr_->constant(fault.stuck_value);
  propagate(fault, sv, fs.state_diff, ctx.good_values());

  // Downgraded rMOT/MOT: every reachable output is constant in both
  // machines, so a divergence is a constant-opposite pair — its
  // equality term is the zero function under every strategy. What
  // remains of the full MOT update is the shared product over the
  // still-symbolic (unreachable) outputs. A -1 scan means the horizon
  // precondition failed; fall back to the exact update.
  const int dv = downgraded && strategy != Strategy::Sot
                     ? scan_const_divergence(ctx.good_values())
                     : -1;
  bool detected = false;
  if (dv >= 0) {
    if (dv == 1) {
      fs.detect = mgr_->constant(false);
      detected = true;
    } else if (strategy == Strategy::Mot) {
      fs.detect &= ctx.frame_eq_product(*netlist_, *mgr_, x2y_);
      detected = fs.detect.is_zero();
    }
  } else {
    switch (strategy) {
      case Strategy::Sot:
        detected = detect_sot(ctx.good_values());
        break;
      case Strategy::Rmot:
        detected = update_rmot(fs.detect, ctx.good_values());
        break;
      case Strategy::Mot:
        detected = update_mot(fs.detect, ctx);
        break;
    }
  }
  if (detected) {
    queue_.clear();
    release_scratch();
    return true;
  }

  latch_diffs(fault, sv, ctx, fs.state_diff);
  release_scratch();
  return false;
}

// ---------------------------------------------------------------------------
// SymFaultSim (pure symbolic sequence driver)
// ---------------------------------------------------------------------------

SymFaultSim::SymFaultSim(const Netlist& netlist, std::vector<Fault> faults,
                         Strategy strategy, const bdd::BddConfig& bdd_config,
                         VarLayout layout)
    : netlist_(&netlist),
      faults_(std::move(faults)),
      strategy_(strategy),
      initial_status_(faults_.size(), FaultStatus::Undetected),
      bdd_config_(bdd_config),
      layout_(layout) {
  if (!netlist.finalized()) {
    throw std::logic_error("SymFaultSim requires a finalized netlist");
  }
}

void SymFaultSim::set_initial_status(std::vector<FaultStatus> status) {
  if (status.size() != faults_.size()) {
    throw std::invalid_argument("set_initial_status: wrong size");
  }
  initial_status_ = std::move(status);
}

SymFaultSimResult SymFaultSim::run(
    const std::vector<std::vector<Val3>>& sequence) {
  const Netlist& nl = *netlist_;

  bdd::BddManager mgr(bdd_config_);
  const StateVars vars(nl.dff_count(), layout_);
  const auto circuit = std::make_shared<const LevelizedCircuit>(nl);
  SymTrueValueSim good(circuit, mgr, vars);
  SymFaultPropagator prop(circuit, mgr, vars);

  SymFaultSimResult result;
  result.status = initial_status_;
  result.detect_frame.assign(faults_.size(), 0);
  if (collect_witnesses_) result.witnesses.resize(faults_.size());

  struct Live {
    std::size_t index;
    SymFaultState fs;
  };
  std::vector<Live> live;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] == FaultStatus::Undetected) {
      live.push_back(Live{i, SymFaultState{mgr.one(), {}}});
    }
  }

  const FaultStatus det = detected_status(strategy_);
  for (std::size_t t = 0; t < sequence.size() && !live.empty(); ++t) {
    good.step(sequence[t]);
    SymFrameContext ctx(good.values(), good.state(), nl.output_count());

    std::size_t keep = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      Live& lf = live[i];
      if (prop.step(faults_[lf.index], strategy_, lf.fs, ctx)) {
        result.status[lf.index] = det;
        result.detect_frame[lf.index] = static_cast<std::uint32_t>(t + 1);
        ++result.detected_count;
      } else {
        if (keep != i) live[keep] = std::move(live[i]);
        ++keep;
      }
    }
    live.resize(keep);
    mgr.gc();
    result.peak_live_nodes =
        std::max(result.peak_live_nodes, mgr.live_node_count());
  }

  // Witnesses for the survivors: D~ is nonzero, so a satisfying
  // assignment names a (p, q) pair the test cannot distinguish.
  if (collect_witnesses_ && strategy_ != Strategy::Sot) {
    for (const Live& lf : live) {
      const auto assignment = mgr.pick_one(lf.fs.detect);
      if (!assignment.has_value()) continue;  // defensive; D~ != 0 here
      IndistinguishablePair pair;
      pair.fault_free_state.resize(nl.dff_count());
      pair.faulty_state.resize(nl.dff_count());
      for (std::size_t i = 0; i < nl.dff_count(); ++i) {
        const auto xv = (*assignment)[vars.x(i)];
        const auto yv = strategy_ == Strategy::Mot ? (*assignment)[vars.y(i)]
                                                   : xv;
        // Don't-care bits (-1) may take either value; pick 0.
        pair.faulty_state[i] = strategy_ == Strategy::Mot ? yv == 1 : xv == 1;
        pair.fault_free_state[i] = xv == 1;
        if (strategy_ == Strategy::Rmot) {
          // rMOT's D~ ranges over the faulty initial state only; the
          // fault-free side is reported equal to q by convention.
          pair.fault_free_state[i] = pair.faulty_state[i];
        }
      }
      result.witnesses[lf.index] = std::move(pair);
    }
  }

  return result;
}

}  // namespace motsim
