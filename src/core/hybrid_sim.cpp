#include "core/hybrid_sim.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/sym_true_value.h"
#include "obs/telemetry.h"
#include "sim3/fault_simulator.h"
#include "util/stopwatch.h"

namespace motsim {

using bdd::Bdd;

HybridFaultSim::HybridFaultSim(const Netlist& netlist,
                               std::vector<Fault> faults,
                               const SimOptions& options)
    : netlist_(&netlist),
      faults_(std::move(faults)),
      options_(options.validated()),
      initial_status_(faults_.size(), FaultStatus::Undetected) {
  if (!netlist.finalized()) {
    throw std::logic_error("HybridFaultSim requires a finalized netlist");
  }
}

void HybridFaultSim::set_initial_status(std::vector<FaultStatus> status) {
  if (status.size() != faults_.size()) {
    throw std::invalid_argument("set_initial_status: wrong size");
  }
  initial_status_ = std::move(status);
  resume_.reset();
}

void HybridFaultSim::set_trim_plan(TrimPlan plan) {
  if (plan.dead_from.size() != faults_.size()) {
    throw std::invalid_argument("set_trim_plan: plan does not match the "
                                "fault list");
  }
  trim_plan_ = std::move(plan);
}

void HybridFaultSim::set_sgraph_plan(SgraphPlan plan) {
  if (plan.horizon.size() != faults_.size()) {
    throw std::invalid_argument("set_sgraph_plan: plan does not match the "
                                "fault list");
  }
  sgraph_plan_ = std::move(plan);
}

void HybridFaultSim::set_settled_drops(
    std::vector<std::uint32_t> exact_from,
    std::vector<std::uint32_t> xred_settled_from) {
  for (const auto* v : {&exact_from, &xred_settled_from}) {
    if (!v->empty() && v->size() != faults_.size()) {
      throw std::invalid_argument("set_settled_drops: vector does not "
                                  "match the fault list");
    }
  }
  exact_from_ = std::move(exact_from);
  xred_settled_from_ = std::move(xred_settled_from);
}

void HybridFaultSim::set_resume(ChunkCheckpoint checkpoint) {
  if (checkpoint.status.size() != faults_.size() ||
      checkpoint.detect_frame.size() != faults_.size() ||
      checkpoint.diff.size() != faults_.size()) {
    throw std::invalid_argument("set_resume: checkpoint does not match the "
                                "fault list");
  }
  if (checkpoint.good_state.size() != netlist_->dff_count()) {
    throw std::invalid_argument("set_resume: checkpoint state width does "
                                "not match the netlist");
  }
  initial_status_ = checkpoint.status;
  resume_ = std::move(checkpoint);
}

void HybridFaultSim::set_circuit(
    std::shared_ptr<const LevelizedCircuit> circuit) {
  if (circuit != nullptr && &circuit->netlist() != netlist_) {
    throw std::invalid_argument(
        "set_circuit: the circuit was compiled from another netlist");
  }
  circuit_ = std::move(circuit);
}

namespace {

Val3 bdd_to_val3(const Bdd& b) {
  if (b.is_zero()) return Val3::Zero;
  if (b.is_one()) return Val3::One;
  return Val3::X;
}

}  // namespace

HybridResult HybridFaultSim::run(
    const std::vector<std::vector<Val3>>& sequence) {
  const Netlist& nl = *netlist_;
  obs::Telemetry* const telemetry = options_.telemetry;

  bdd::BddManager mgr(options_.to_bdd_config());
  const StateVars vars(nl.dff_count(), options_.layout);
  // One compiled view of the netlist for all three engines.
  const std::shared_ptr<const LevelizedCircuit> circuit =
      circuit_ ? circuit_ : std::make_shared<const LevelizedCircuit>(nl);
  SymTrueValueSim sym(circuit, mgr, vars);
  if (!tied_.empty()) sym.set_tied_constants(tied_);
  SymFaultPropagator symprop(circuit, mgr, vars);
  symprop.set_trim(options_.trim);
  // Static activation horizons for SOT/rMOT parking: once past
  // dead_from with no stored divergence the fault can never be excited
  // again, so its remaining symbolic frames are pure no-ops. MOT never
  // parks (D̃ keeps accumulating). Parked faults keep their BDD handles
  // alive so gc pressure — and hence every fallback decision — matches
  // the untrimmed run.
  TrimPlan plan;
  if (options_.trim && trim_plan_) {
    plan = *trim_plan_;
  } else if (options_.trim) {
    const obs::SpanTracer::Span span = obs::open_span(telemetry, "plan.trim");
    plan = build_trim_plan(nl, faults_);
  }
  // S-graph observation horizons for the rMOT/MOT downgrade. Horizons
  // are epoch-relative: every re-seed of the symbolic state variables
  // (window exit, checkpoint sync, resume) restarts the clock.
  SgraphPlan splan;
  if (options_.sgraph && sgraph_plan_) {
    splan = *sgraph_plan_;
  } else if (options_.sgraph) {
    const obs::SpanTracer::Span span =
        obs::open_span(telemetry, "plan.sgraph");
    splan = build_sgraph_plan(nl, faults_);
  }
  // Three-valued engine behind the fallback windows; the backend is a
  // pure performance knob (bit-identical results). Runs serially —
  // the parallel symbolic driver shards at the fault level already.
  const std::unique_ptr<FaultSimulator3> sim3 = make_fault_simulator3(
      options_.sim3_backend, circuit, faults_,
      Sim3EngineConfig{/*threads=*/1, telemetry});

  HybridResult result;
  result.status = initial_status_;
  result.detect_frame = resume_ ? resume_->detect_frame
                                : std::vector<std::uint32_t>(faults_.size(), 0);

  struct Live {
    std::size_t index;
    SymFaultState sym;  ///< valid in symbolic mode
    StateDiff3 diff3;   ///< valid in three-valued mode
    bool parked = false;
    bool downgraded = false;
  };
  std::vector<Live> live;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] == FaultStatus::Undetected) {
      live.push_back(Live{i, SymFaultState{mgr.one(), {}}, {}, false, false});
      if (resume_) live.back().diff3 = resume_->diff[i];
    }
  }

  /// Binary: the settled hand-off — the three-valued engine runs the
  /// rest of the sequence exactly and symbolic mode never resumes.
  enum class Mode { Symbolic, ThreeValued, Binary };
  Mode mode = Mode::Symbolic;
  std::size_t window_left = 0;
  std::size_t t = 0;  ///< index of the next frame to simulate
  /// Frames completed when the current symbolic state variables were
  /// seeded; the s-graph horizons count from here.
  std::size_t epoch = 0;
  if (resume_) {
    if (resume_->frame > sequence.size()) {
      throw std::invalid_argument("set_resume: checkpoint frame beyond the "
                                  "sequence");
    }
    t = resume_->frame;
  }
  const std::size_t start_frame = t;
  const FaultStatus det = detected_status(options_.strategy);
  // First frame from which every input vector is binary and well
  // formed. The hand-off is exact only without a later X input, and a
  // later malformed vector must still reach SymTrueValueSim::step,
  // which rejects it.
  std::size_t binary_from = sequence.size();
  while (binary_from > 0) {
    const std::vector<Val3>& v = sequence[binary_from - 1];
    if (v.size() != nl.input_count() ||
        !std::all_of(v.begin(), v.end(), is_binary)) {
      break;
    }
    --binary_from;
  }

  // Telemetry locals (all dormant when telemetry == nullptr): mode
  // timers accumulate symbolic, fallback-window and binary-mode wall
  // seconds across the run's interleaved stretches; mode_span is the
  // currently open "symbolic" / "fallback_window" / "binary" trace
  // span.
  AccumulatingTimer sym_timer;
  AccumulatingTimer fb_timer;
  AccumulatingTimer bin_timer;
  std::uint64_t reseeded_bits = 0;
  std::optional<obs::SpanTracer::Span> mode_span;
  auto timer_of = [&](Mode m) -> AccumulatingTimer& {
    return m == Mode::Symbolic ? sym_timer
           : m == Mode::Binary ? bin_timer
                               : fb_timer;
  };
  auto span_name = [](Mode m) {
    return m == Mode::Symbolic ? "symbolic"
           : m == Mode::Binary ? "binary"
                               : "fallback_window";
  };

  // Converts one fault's symbolic state divergence into a three-valued
  // divergence against the given three-valued good state. Symbolic
  // functions that are not constant become X; entries that no longer
  // differ are dropped (both unknown == "assume equal", which only
  // grows the represented state set, keeping all detection claims
  // sound).
  auto diff_to_3v = [](const SymFaultState& fs,
                       const std::vector<Val3>& good_state3) {
    StateDiff3 d3;
    for (const auto& [pos, b] : fs.state_diff) {
      const Val3 fv = bdd_to_val3(b);
      if (fv != good_state3[pos]) d3.emplace_back(pos, fv);
    }
    return d3;
  };
  // Every live fault's divergence against `good_state3`, aligned with
  // `live`.
  auto diffs_to_3v = [&](const std::vector<Val3>& good_state3) {
    std::vector<StateDiff3> diffs3;
    diffs3.reserve(live.size());
    for (const Live& lf : live) {
      diffs3.push_back(diff_to_3v(lf.sym, good_state3));
    }
    return diffs3;
  };

  // Opens an engine session over the surviving faults. During a
  // session `live` is frozen (no compaction): session position i is
  // live[i], the engine tracks which positions were dropped, and a
  // fallback window harvests the survivors when it closes.
  auto begin_session = [&](const std::vector<Val3>& good_state3,
                           std::vector<StateDiff3> diffs3) {
    std::vector<std::size_t> indices;
    indices.reserve(live.size());
    for (Live& lf : live) {
      indices.push_back(lf.index);
      lf.diff3.clear();
      lf.sym.state_diff.clear();
      lf.sym.detect = Bdd();
    }
    sim3->begin_window(good_state3, std::move(indices), std::move(diffs3));
  };

  auto enter_three_valued = [&](const std::vector<Val3>& good_state3,
                                std::vector<StateDiff3> diffs3) {
    begin_session(good_state3, std::move(diffs3));
    const std::size_t nodes_at_entry = mgr.live_node_count();
    sym.release();
    mgr.gc();
    mode = Mode::ThreeValued;
    window_left = options_.fallback_frames;
    result.used_fallback = true;
    ++result.fallback_windows;
    obs::log_event(telemetry, obs::LogLevel::Warn, "hybrid.fallback.enter",
                   {obs::LogField::u64("frame", t + 1),
                    obs::LogField::u64("live_nodes", nodes_at_entry),
                    obs::LogField::u64("live_faults", live.size()),
                    obs::LogField::u64("window_frames",
                                       options_.fallback_frames)});
    // Both entry paths leave `t` pointing at the first frame the
    // window will simulate, so t + 1 is its 1-based number.
    if (progress_) progress_->on_fallback_window(t + 1, options_.fallback_frames);
  };

  // True when the symbolic machine holds only constants: every
  // fault-free present-state function and every stored faulty
  // divergence. With binary inputs, every later value of both machines
  // is then a constant too.
  auto settled = [&] {
    for (const Bdd& b : sym.state()) {
      if (!b.is_const()) return false;
    }
    for (const Live& lf : live) {
      for (const auto& entry : lf.sym.state_diff) {
        if (!entry.second.is_const()) return false;
      }
    }
    return true;
  };

  // The settled hand-off: the three-valued engine finishes the
  // sequence. Its rule — an output with opposite binary values — is
  // what every strategy's detection function reduces to once all
  // values are constant, so verdicts and detection frames are those
  // symbolic mode would produce. No BDD work follows, so no node is
  // created and no space limit can trip; the handles are released
  // without a collection. Faults the three-valued stage already
  // simulated exactly past frame t cannot be detected in the rest of
  // the sequence, so they stay out of the session; so do X-redundant
  // faults whose state matches the fault-free one after ID_X-red's
  // own fault-free run has settled (set_settled_drops).
  const bool drop_settled =
      (!exact_from_.empty() || !xred_settled_from_.empty()) &&
      (checkpoint_ == nullptr || options_.checkpoint_interval == 0);
  const auto proven_by = [&t](const std::vector<std::uint32_t>& from,
                              std::size_t fi) {
    return !from.empty() && from[fi] != 0 && from[fi] <= t;
  };
  auto enter_binary = [&] {
    const std::vector<Val3> state3 = sym.state_as_val3();
    std::vector<StateDiff3> diffs3 = diffs_to_3v(state3);
    if (drop_settled) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t fi = live[i].index;
        const bool exact = proven_by(exact_from_, fi);
        if (exact || (diffs3[i].empty() && proven_by(xred_settled_from_, fi))) {
          ++(exact ? result.x01_exact_drops : result.xred_settled_drops);
          if (live[i].parked) ++result.faults_terminated_early;
          continue;
        }
        if (keep != i) {
          live[keep] = std::move(live[i]);
          diffs3[keep] = std::move(diffs3[i]);
        }
        ++keep;
      }
      live.resize(keep);
      diffs3.resize(keep);
    }
    begin_session(state3, std::move(diffs3));
    sym.release();
    mode = Mode::Binary;
    obs::log_event(telemetry, obs::LogLevel::Debug, "hybrid.binary.enter",
                   {obs::LogField::u64("frame", t + 1),
                    obs::LogField::u64("live_faults", live.size())});
  };

  // Seeds the symbolic machine from a three-valued snapshot (paper
  // Section IV.A): unknown state bits become state variables, every
  // detection function restarts at constant 1, and per-fault
  // divergences are rebuilt against the seeded good state. `diffs3` is
  // aligned with `live`. Serves three entry paths identically:
  // re-entry after a fallback window, a checkpoint synchronization,
  // and resumption from a stored checkpoint.
  auto seed_symbolic = [&](const std::vector<Val3>& state3,
                           const std::vector<StateDiff3>& diffs3) {
    if (telemetry != nullptr) {
      for (Val3 v : state3) {
        if (v == Val3::X) ++reseeded_bits;
      }
    }
    std::vector<Bdd> state_bdds;
    state_bdds.reserve(state3.size());
    for (std::size_t i = 0; i < state3.size(); ++i) {
      state_bdds.push_back(state3[i] == Val3::X
                               ? mgr.var(vars.x(i))
                               : mgr.constant(state3[i] == Val3::One));
    }
    sym.set_state(std::move(state_bdds));
    epoch = t;  // horizons restart with the fresh state variables
    for (std::size_t i = 0; i < live.size(); ++i) {
      Live& lf = live[i];
      lf.parked = false;  // re-park check runs every symbolic frame
      lf.downgraded = false;  // horizon re-passes relative to the epoch
      lf.sym.detect = mgr.one();
      lf.sym.state_diff.clear();
      for (const auto& [pos, v] : diffs3[i]) {
        const Bdd fb = v == Val3::X ? mgr.var(vars.x(pos))
                                    : mgr.constant(v == Val3::One);
        const Bdd gb = state3[pos] == Val3::X
                           ? mgr.var(vars.x(pos))
                           : mgr.constant(state3[pos] == Val3::One);
        if (fb != gb) lf.sym.state_diff.emplace_back(pos, fb);
      }
      lf.diff3.clear();
    }
    mode = Mode::Symbolic;
  };

  auto resume_symbolic = [&] {
    const std::vector<Val3> state3 = sim3->window_state();
    std::vector<Live> survivors;
    std::vector<StateDiff3> diffs3;
    survivors.reserve(sim3->window_live());
    diffs3.reserve(sim3->window_live());
    for (std::uint32_t pos = 0; pos < live.size(); ++pos) {
      if (!sim3->window_fault_alive(pos)) continue;
      diffs3.push_back(sim3->window_diff(pos));
      survivors.push_back(std::move(live[pos]));
    }
    live = std::move(survivors);
    sim3->end_window();
    seed_symbolic(state3, diffs3);
    obs::log_event(telemetry, obs::LogLevel::Info, "hybrid.fallback.exit",
                   {obs::LogField::u64("frame", t + 1),
                    obs::LogField::u64("live_faults", live.size()),
                    obs::LogField::u64("live_nodes", mgr.live_node_count())});
  };

  // Builds the current boundary snapshot. In an engine session the
  // state is already in snapshot form; in symbolic mode the machine is
  // converted (the caller then decides whether to also re-seed). A
  // binary-mode record equals the symbolic-mode record of the same
  // frame: the conversion of a settled machine is exact, and it is not
  // a window.
  auto make_checkpoint = [&](bool complete) {
    ChunkCheckpoint ck;
    ck.frame = t;
    ck.complete = complete;
    ck.fault_index.resize(faults_.size());
    std::iota(ck.fault_index.begin(), ck.fault_index.end(), std::size_t{0});
    ck.status = result.status;
    ck.detect_frame = result.detect_frame;
    ck.diff.resize(faults_.size());
    if (mode != Mode::Symbolic) {
      ck.in_window = mode == Mode::ThreeValued;
      ck.window_left = ck.in_window ? window_left : 0;
      ck.good_state = sim3->window_state();
      for (std::uint32_t pos = 0; pos < live.size(); ++pos) {
        if (sim3->window_fault_alive(pos)) {
          ck.diff[live[pos].index] = sim3->window_diff(pos);
        }
      }
    } else {
      ck.good_state = sym.state_as_val3();
      for (const Live& lf : live) {
        ck.diff[lf.index] = diff_to_3v(lf.sym, ck.good_state);
      }
    }
    return ck;
  };

  // Surviving faults: during an engine session `live` is frozen and
  // the engine tracks drops, so the engine's count is authoritative
  // there.
  auto live_count = [&] {
    return mode == Mode::Symbolic ? live.size() : sim3->window_live();
  };

  const std::size_t interval = options_.checkpoint_interval;
  auto at_boundary = [&] {
    return interval != 0 && t % interval == 0 && t < sequence.size() &&
           live_count() != 0;
  };

  // ---- resume entry ----------------------------------------------------
  if (resume_ && t < sequence.size() && !live.empty()) {
    if (resume_->in_window && resume_->window_left > 0) {
      std::vector<std::size_t> indices;
      std::vector<StateDiff3> diffs3;
      indices.reserve(live.size());
      diffs3.reserve(live.size());
      for (Live& lf : live) {
        indices.push_back(lf.index);
        diffs3.push_back(std::move(lf.diff3));
        lf.diff3.clear();
      }
      sim3->begin_window(resume_->good_state, std::move(indices),
                         std::move(diffs3));
      mode = Mode::ThreeValued;
      window_left = resume_->window_left;
      result.used_fallback = true;
    } else {
      // A snapshot at a sync boundary (or at the very end of a
      // window): re-seed exactly like the uninterrupted run did.
      std::vector<StateDiff3> diffs3;
      diffs3.reserve(live.size());
      for (const Live& lf : live) diffs3.push_back(resume_->diff[lf.index]);
      seed_symbolic(resume_->good_state, diffs3);
    }
  }

  if (telemetry != nullptr && t < sequence.size() && live_count() != 0) {
    mode_span = telemetry->tracer.span(span_name(mode));
  }
  // Resolved once: the per-frame gauge update must not pay the
  // registry's map lookup inside the hot loop. Each engine adds the
  // change in its own live count, so concurrent shards sum instead of
  // overwriting each other.
  obs::Gauge* const live_nodes_gauge =
      telemetry != nullptr ? &telemetry->metrics.gauge("bdd.live_nodes")
                            : nullptr;
  std::size_t reported_live_nodes = 0;

  while (t < sequence.size() && live_count() != 0) {
    const Mode frame_mode = mode;
    if (telemetry != nullptr) timer_of(frame_mode).start();
    if (mode == Mode::Symbolic) {
      // Snapshot the pre-frame machine in three-valued form so an
      // aborted frame (hard-limit overflow) can be redone in the
      // three-valued mode.
      const std::vector<Val3> pre_state3 = sym.state_as_val3();
      std::vector<StateDiff3> pre_diffs3 = diffs_to_3v(pre_state3);

      bool frame_completed = false;
      std::uint64_t parked_skips = 0;  ///< committed only if t completes
      try {
        sym.step(sequence[t]);
        SymFrameContext ctx(sym.values(), sym.state(), nl.output_count());

        // `live` is compacted only after the whole frame succeeds so
        // the exception path below sees the vector intact and aligned
        // with pre_diffs3.
        for (Live& lf : live) {
          if (options_.trim && options_.strategy != Strategy::Mot &&
              !lf.parked && plan.dead_from[lf.index] != 0 &&
              t + 1 >= plan.dead_from[lf.index] &&
              lf.sym.state_diff.empty()) {
            lf.parked = true;
          }
          if (lf.parked) {
            ++parked_skips;
            continue;
          }
          if (options_.sgraph && options_.strategy != Strategy::Sot &&
              !lf.downgraded && splan.horizon[lf.index] != kInfDepth &&
              t >= epoch + splan.horizon[lf.index]) {
            lf.downgraded = true;
            ++result.mot_downgrades;
          }
          if (symprop.step(faults_[lf.index], options_.strategy, lf.sym,
                           ctx, lf.downgraded)) {
            result.status[lf.index] = det;
            result.detect_frame[lf.index] = static_cast<std::uint32_t>(t + 1);
            ++result.detected_count;
            if (progress_) {
              progress_->on_fault_detected(lf.index,
                                           result.detect_frame[lf.index]);
            }
          }
        }
        std::size_t keep = 0;
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (result.status[live[i].index] == det) continue;
          if (keep != i) live[keep] = std::move(live[i]);
          ++keep;
        }
        live.resize(keep);

        ++result.symbolic_frames;
        result.frames_skipped += parked_skips;
        ++t;
        frame_completed = true;
        mgr.gc();
        result.peak_live_nodes =
            std::max(result.peak_live_nodes, mgr.live_node_count());
        if (live_nodes_gauge != nullptr) {
          live_nodes_gauge->add(static_cast<double>(mgr.live_node_count()) -
                                static_cast<double>(reported_live_nodes));
          reported_live_nodes = mgr.live_node_count();
        }
        obs::log_event(telemetry, obs::LogLevel::Trace, "bdd.gc",
                       {obs::LogField::u64("frame", t),
                        obs::LogField::u64("live_nodes",
                                           mgr.live_node_count())});
        if (progress_) {
          progress_->on_frame(t, mgr.live_node_count(), live.size());
        }
        if (mgr.live_node_count() > options_.node_limit && t < sequence.size()) {
          // Soft limit: leave symbolic mode at the frame boundary.
          const std::vector<Val3> post_state3 = sym.state_as_val3();
          enter_three_valued(post_state3, diffs_to_3v(post_state3));
        } else if (t >= binary_from && t < sequence.size() && !live.empty() &&
                   settled()) {
          enter_binary();
        }
      } catch (const bdd::BddOverflow&) {
        // Hard limit mid-frame: discard the frame's partial symbolic
        // work and redo frame t in three-valued mode. Faults already
        // marked detected this frame keep their (valid) verdicts;
        // snapshot diffs restore every surviving fault.
        obs::log_event(telemetry, obs::LogLevel::Warn, "bdd.overflow",
                       {obs::LogField::u64("frame", t + 1),
                        obs::LogField::u64("node_limit",
                                           options_.node_limit)},
                       "hard node limit mid-frame; redoing frame "
                       "three-valued");
        std::size_t keep = 0;
        std::vector<StateDiff3> survivors;
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (result.status[live[i].index] == det) continue;  // dropped
          survivors.push_back(std::move(pre_diffs3[i]));
          if (keep != i) live[keep] = std::move(live[i]);
          ++keep;
        }
        live.resize(keep);
        enter_three_valued(pre_state3, std::move(survivors));
        // t intentionally not advanced: the frame reruns three-valued.
      }

      if (frame_completed && at_boundary()) {
        if (mode == Mode::Symbolic) {
          // Checkpoint synchronization: convert, snapshot, re-seed.
          const ChunkCheckpoint ck = make_checkpoint(false);
          if (checkpoint_) checkpoint_->on_checkpoint(ck);
          std::vector<StateDiff3> diffs3;
          diffs3.reserve(live.size());
          for (const Live& lf : live) diffs3.push_back(ck.diff[lf.index]);
          sym.release();
          seed_symbolic(ck.good_state, diffs3);
          mgr.gc();
          ++result.checkpoint_syncs;
          if (telemetry != nullptr) {
            telemetry->tracer.instant("checkpoint_sync");
          }
          obs::log_event(telemetry, obs::LogLevel::Debug,
                         "hybrid.checkpoint.sync",
                         {obs::LogField::u64("frame", t),
                          obs::LogField::u64("live_faults", live.size()),
                          obs::LogField::u64("live_nodes",
                                             mgr.live_node_count())});
        } else if (checkpoint_) {
          // The soft limit just opened a window, or the machine
          // settled: snapshot the session's entry state without
          // disturbing it (a settled boundary re-seeds nothing).
          checkpoint_->on_checkpoint(make_checkpoint(false));
        }
      }
    } else {
      for (const std::uint32_t pos : sim3->step_window(sequence[t])) {
        // A three-valued detection is a genuine detection under
        // every strategy (constant opposite binary responses).
        const std::size_t fi = live[pos].index;
        result.status[fi] = det;
        result.detect_frame[fi] = static_cast<std::uint32_t>(t + 1);
        ++result.detected_count;
        sim3->drop_window_fault(pos);
        if (progress_) {
          progress_->on_fault_detected(fi, result.detect_frame[fi]);
        }
      }

      ++t;
      if (mode == Mode::Binary) {
        ++result.binary_frames;
      } else {
        ++result.three_valued_frames;
        --window_left;
      }
      if (progress_) progress_->on_frame(t, 0, sim3->window_live());
      if (checkpoint_ && at_boundary()) {
        checkpoint_->on_checkpoint(make_checkpoint(false));
      }
      if (mode == Mode::ThreeValued && window_left == 0 &&
          t < sequence.size() && sim3->window_live() != 0) {
        resume_symbolic();
      }
    }
    if (telemetry != nullptr) {
      timer_of(frame_mode).stop();
      if (mode != frame_mode) {
        mode_span.reset();  // closes the stretch that just ended
        mode_span = telemetry->tracer.span(span_name(mode));
      }
    }
  }

  // Final snapshot: marks the chunk complete and carries the state
  // incremental re-simulation extends from. Suppressed when a resumed
  // run had nothing left to do (the store already holds this record).
  if (checkpoint_ && interval != 0 && (t > start_frame || !resume_)) {
    checkpoint_->on_checkpoint(make_checkpoint(true));
  }

  // Trimming telemetry: dynamic quiescent skips accumulated inside the
  // propagator, parked skips committed per completed frame above, and
  // the faults still parked when the run ends (counted once here so
  // window round-trips cannot double-count them).
  result.frames_skipped += symprop.trim_counters().frames_skipped;
  result.faultfree_evals_shared = symprop.trim_counters().shared_eq_uses;
  for (const Live& lf : live) {
    if (lf.parked) ++result.faults_terminated_early;
  }

  if (telemetry != nullptr) {
    mode_span.reset();
    obs::MetricsRegistry& m = telemetry->metrics;
    m.counter("hybrid.symbolic_frames").add(result.symbolic_frames);
    m.counter("hybrid.three_valued_frames").add(result.three_valued_frames);
    m.counter("hybrid.binary_frames").add(result.binary_frames);
    m.counter("hybrid.fallback_windows").add(result.fallback_windows);
    m.counter("hybrid.checkpoint_syncs").add(result.checkpoint_syncs);
    m.counter("hybrid.detected_faults").add(result.detected_count);
    m.counter("engine.reseeded_state_bits").add(reseeded_bits);
    m.counter("analysis.frames_skipped").add(result.frames_skipped);
    m.counter("analysis.faults_terminated_early")
        .add(result.faults_terminated_early);
    m.counter("analysis.mot_downgrades").add(result.mot_downgrades);
    m.counter("hybrid.x01_exact_drops").add(result.x01_exact_drops);
    m.counter("hybrid.xred_settled_drops").add(result.xred_settled_drops);
    m.counter("sym.faultfree_evals_shared")
        .add(result.faultfree_evals_shared);
    // The settled hand-off finishes symbolic-mode work, so its time
    // stays inside symbolic_seconds; binary_seconds reports its share.
    m.gauge("hybrid.symbolic_seconds")
        .add(sym_timer.total_seconds() + bin_timer.total_seconds());
    m.gauge("hybrid.binary_seconds").add(bin_timer.total_seconds());
    m.gauge("hybrid.fallback_seconds").add(fb_timer.total_seconds());

    const bdd::BddStats& bs = mgr.stats();
    m.counter("bdd.apply_cache_lookups").add(bs.cache_lookups);
    m.counter("bdd.apply_cache_hits").add(bs.cache_hits);
    m.counter("bdd.unique_hits").add(bs.unique_hits);
    m.counter("bdd.nodes_created").add(bs.nodes_created);
    m.counter("bdd.gc_runs").add(bs.gc_runs);
    m.counter("bdd.gc_reclaimed_nodes").add(bs.gc_reclaimed_nodes);
    m.gauge("bdd.gc_seconds").add(bs.gc_seconds);
    m.gauge("bdd.reorder_seconds").add(bs.reorder_seconds);
    m.gauge("bdd.peak_live_nodes")
        .update_max(static_cast<double>(bs.peak_live_nodes));
    m.gauge("bdd.unique_table_buckets")
        .update_max(static_cast<double>(mgr.unique_bucket_count()));
    if (mgr.unique_bucket_count() != 0) {
      m.gauge("bdd.unique_table_load")
          .update_max(static_cast<double>(mgr.live_node_count()) /
                      static_cast<double>(mgr.unique_bucket_count()));
    }
  }

  return result;
}

}  // namespace motsim
