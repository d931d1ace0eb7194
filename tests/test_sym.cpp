// Symbolic simulation: the true-value simulator against concrete
// enumeration, and the three observation strategies against the
// brute-force detectability definitions (the paper's Definitions 2, 3
// and the restricted MOT evaluation) — exact equality, not just
// soundness, since the OBDD formulation is exact (Lemma 1).

#include <gtest/gtest.h>

#include "bench_data/s27.h"
#include "core/sym_fault_sim.h"
#include "core/sym_true_value.h"
#include "core/test_eval.h"
#include "faults/collapse.h"
#include "faults/fault_list.h"
#include "reference.h"
#include "sim3/sim2.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

using bdd::Bdd;
using testing::ref_mot_detectable;
using testing::ref_rmot_detectable;
using testing::ref_sot_detectable;
using testing::small_random_circuit;

// ---------------------------------------------------------------------------
// StateVars plan
// ---------------------------------------------------------------------------

TEST(StateVars, InterleavedPlan) {
  const StateVars vars(3);
  EXPECT_EQ(vars.x(0), 0u);
  EXPECT_EQ(vars.y(0), 1u);
  EXPECT_EQ(vars.x(2), 4u);
  EXPECT_EQ(vars.y(2), 5u);
  EXPECT_EQ(vars.var_count(), 6u);
  EXPECT_EQ(vars.x_vars(), (std::vector<bdd::VarIndex>{0, 2, 4}));
  EXPECT_EQ(vars.y_vars(), (std::vector<bdd::VarIndex>{1, 3, 5}));
  const auto map = vars.x_to_y_mapping();
  EXPECT_EQ(map[0], 1u);
  EXPECT_EQ(map[1], 1u);
  EXPECT_EQ(map[4], 5u);
}

TEST(StateVars, XToYRenameIsOrderPreserving) {
  bdd::BddManager mgr;
  const StateVars vars(4);
  mgr.ensure_vars(vars.var_count());
  Bdd f = mgr.one();
  for (std::size_t i = 0; i < 4; ++i) {
    f &= (i % 2 == 0) ? mgr.var(vars.x(i)) : !mgr.var(vars.x(i));
  }
  const Bdd g = mgr.rename(f, vars.x_to_y_mapping());
  Bdd expected = mgr.one();
  for (std::size_t i = 0; i < 4; ++i) {
    expected &= (i % 2 == 0) ? mgr.var(vars.y(i)) : !mgr.var(vars.y(i));
  }
  EXPECT_EQ(g, expected);
}

// ---------------------------------------------------------------------------
// SymTrueValueSim
// ---------------------------------------------------------------------------

class SymTrueValueProp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymTrueValueProp, EveryLeadMatchesConcreteSimulation) {
  // o(x,t) evaluated at x := p must equal the concrete run from p, for
  // every node, frame and initial state.
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 13 + 1);
  const TestSequence seq = random_sequence(nl, 6, rng);
  const auto seq2 = to_bool_sequence(seq);
  const std::size_t m = nl.dff_count();

  bdd::BddManager mgr;
  const StateVars vars(m);
  SymTrueValueSim sym(nl, mgr, vars);

  for (std::size_t s = 0; s < (std::size_t{1} << m); ++s) {
    std::vector<bool> init(m);
    std::vector<bool> assignment(vars.var_count(), false);
    for (std::size_t i = 0; i < m; ++i) {
      init[i] = ((s >> i) & 1) != 0;
      assignment[vars.x(i)] = init[i];
    }
    Sim2 concrete(nl);
    concrete.set_state(init);
    SymTrueValueSim symbolic(nl, mgr, vars);
    for (std::size_t t = 0; t < seq.size(); ++t) {
      symbolic.step(seq[t]);
      concrete.step(seq2[t]);
      for (NodeIndex n = 0; n < nl.node_count(); ++n) {
        EXPECT_EQ(symbolic.values()[n].eval(assignment),
                  concrete.values()[n])
            << "node " << nl.gate(n).name << " frame " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymTrueValueProp,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SymTrueValue, RejectsXInputs) {
  const Netlist nl = make_s27();
  bdd::BddManager mgr;
  SymTrueValueSim sym(nl, mgr, StateVars(nl.dff_count()));
  EXPECT_THROW((void)sym.step(sequence_from_strings({"1X10"})[0]),
               std::invalid_argument);
}

TEST(SymTrueValue, StateAsVal3ReflectsConstancy) {
  // A circuit that synchronizes: next state = AND(a, q) with a=0
  // forces the state to constant 0.
  Netlist nl("sync");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex g = nl.add_gate(GateType::And, {a, q}, "g");
  nl.set_fanins(q, {g});
  nl.mark_output(g);
  nl.finalize();

  bdd::BddManager mgr;
  SymTrueValueSim sym(nl, mgr, StateVars(1));
  EXPECT_EQ(sym.state_as_val3()[0], Val3::X);  // fully symbolic start
  sym.step(sequence_from_strings({"0"})[0]);
  EXPECT_EQ(sym.state_as_val3()[0], Val3::Zero);  // synchronized
}

TEST(SymTrueValue, ReleaseDropsAllHandles) {
  const Netlist nl = make_s27();
  bdd::BddManager mgr;
  SymTrueValueSim sym(nl, mgr, StateVars(nl.dff_count()));
  Rng rng(3);
  sym.step(random_sequence(nl, 1, rng)[0]);
  sym.release();
  mgr.gc();
  EXPECT_EQ(mgr.live_node_count(), 0u);
}

// ---------------------------------------------------------------------------
// Strategies against the brute-force definitions
// ---------------------------------------------------------------------------

struct StrategyCase {
  std::uint64_t seed;
};

class SymStrategyExactness : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Runs one strategy on all collapsed faults and compares each
  /// verdict with the reference oracle.
  void check_strategy(const Netlist& nl, const TestSequence& seq,
                      Strategy strategy) {
    const CollapsedFaultList c(nl);
    SymFaultSim sim(nl, c.faults(), strategy);
    const auto result = sim.run(seq);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const Fault& f = c.faults()[i];
      bool expected = false;
      switch (strategy) {
        case Strategy::Sot:
          expected = ref_sot_detectable(nl, f, seq);
          break;
        case Strategy::Rmot:
          expected = ref_rmot_detectable(nl, f, seq);
          break;
        case Strategy::Mot:
          expected = ref_mot_detectable(nl, f, seq);
          break;
      }
      EXPECT_EQ(is_detected(result.status[i]), expected)
          << to_cstring(strategy) << " disagrees on " << fault_name(nl, f)
          << " in " << nl.name();
    }
  }
};

TEST_P(SymStrategyExactness, SotMatchesDefinition2) {
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 7 + 3);
  check_strategy(nl, random_sequence(nl, 5, rng), Strategy::Sot);
}

TEST_P(SymStrategyExactness, RmotMatchesRestrictedDefinition) {
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 7 + 4);
  check_strategy(nl, random_sequence(nl, 5, rng), Strategy::Rmot);
}

TEST_P(SymStrategyExactness, MotMatchesDefinition3) {
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 7 + 5);
  check_strategy(nl, random_sequence(nl, 5, rng), Strategy::Mot);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymStrategyExactness,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------------
// The strategy hierarchy (paper: SOT ⊆ rMOT ⊆ MOT)
// ---------------------------------------------------------------------------

class SymStrategyHierarchy : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SymStrategyHierarchy, DetectionSetsAreNested) {
  const Netlist nl = small_random_circuit(GetParam() + 40);
  Rng rng(GetParam() * 97 + 11);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  SymFaultSim sot(nl, c.faults(), Strategy::Sot);
  SymFaultSim rmot(nl, c.faults(), Strategy::Rmot);
  SymFaultSim mot(nl, c.faults(), Strategy::Mot);
  const auto rs = sot.run(seq);
  const auto rr = rmot.run(seq);
  const auto rm = mot.run(seq);

  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(rs.status[i])) {
      EXPECT_TRUE(is_detected(rr.status[i]))
          << "SOT detected but rMOT missed " << fault_name(nl, c.faults()[i]);
    }
    if (is_detected(rr.status[i])) {
      EXPECT_TRUE(is_detected(rm.status[i]))
          << "rMOT detected but MOT missed " << fault_name(nl, c.faults()[i]);
    }
  }
}

TEST_P(SymStrategyHierarchy, LongerSequencesOnlyDetectMore) {
  const Netlist nl = small_random_circuit(GetParam() + 80);
  Rng rng(GetParam() * 3 + 1);
  const TestSequence seq = random_sequence(nl, 10, rng);
  const TestSequence prefix(seq.begin(), seq.begin() + 5);
  const CollapsedFaultList c(nl);

  SymFaultSim short_run(nl, c.faults(), Strategy::Mot);
  SymFaultSim long_run(nl, c.faults(), Strategy::Mot);
  const auto rshort = short_run.run(prefix);
  const auto rlong = long_run.run(seq);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(rshort.status[i])) {
      EXPECT_TRUE(is_detected(rlong.status[i]));
      EXPECT_LE(rlong.detect_frame[i], rshort.detect_frame[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymStrategyHierarchy,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// Directed symbolic cases
// ---------------------------------------------------------------------------

TEST(SymFaultSim, InitialStatusSkips) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  SymFaultSim sim(nl, c.faults(), Strategy::Mot);
  sim.set_initial_status(
      std::vector<FaultStatus>(c.size(), FaultStatus::DetectedSim3));
  Rng rng(5);
  const auto r = sim.run(random_sequence(nl, 5, rng));
  EXPECT_EQ(r.detected_count, 0u);
}

class WitnessProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WitnessProps, MotWitnessesAreGenuineIndistinguishablePairs) {
  // For every fault MOT leaves undetected, the reported (p, q) pair
  // must produce IDENTICAL output sequences — checked concretely.
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 53 + 9);
  const TestSequence seq = random_sequence(nl, 6, rng);
  const auto seq2 = to_bool_sequence(seq);
  const CollapsedFaultList c(nl);

  SymFaultSim sim(nl, c.faults(), Strategy::Mot);
  sim.set_collect_witnesses(true);
  const auto r = sim.run(seq);
  ASSERT_EQ(r.witnesses.size(), c.size());

  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(r.status[i])) {
      EXPECT_TRUE(r.witnesses[i].fault_free_state.empty());
      continue;
    }
    const IndistinguishablePair& w = r.witnesses[i];
    ASSERT_EQ(w.fault_free_state.size(), nl.dff_count())
        << fault_name(nl, c.faults()[i]);
    Sim2 good(nl);
    Sim2 bad(nl, c.faults()[i]);
    EXPECT_EQ(good.run(w.fault_free_state, seq2),
              bad.run(w.faulty_state, seq2))
        << fault_name(nl, c.faults()[i])
        << ": witness pair is distinguishable";
  }
}

TEST_P(WitnessProps, RmotWitnessesPassTheStandardEvaluation) {
  // An rMOT witness q: the faulty machine started in q matches every
  // well-defined fault-free output value, i.e. it passes the standard
  // (rMOT) test evaluation.
  const Netlist nl = small_random_circuit(GetParam() + 30);
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 59 + 11);
  const TestSequence seq = random_sequence(nl, 6, rng);
  const auto seq2 = to_bool_sequence(seq);
  const CollapsedFaultList c(nl);

  SymFaultSim sim(nl, c.faults(), Strategy::Rmot);
  sim.set_collect_witnesses(true);
  const auto r = sim.run(seq);

  bdd::BddManager mgr;
  const SymbolicResponse response(nl, mgr, seq);
  const RmotEvaluator eval(response);

  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(r.status[i])) continue;
    const IndistinguishablePair& w = r.witnesses[i];
    ASSERT_EQ(w.faulty_state.size(), nl.dff_count());
    Sim2 bad(nl, c.faults()[i]);
    EXPECT_EQ(eval.evaluate(bad.run(w.faulty_state, seq2)), Verdict::Pass)
        << fault_name(nl, c.faults()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessProps,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SymFaultSim, WitnessesOffByDefault) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  SymFaultSim sim(nl, c.faults(), Strategy::Mot);
  Rng rng(3);
  const auto r = sim.run(random_sequence(nl, 5, rng));
  EXPECT_TRUE(r.witnesses.empty());
}

TEST(SymFaultSim, DetectFrameIsRecorded) {
  // Fault visible only through the flip-flop: detection at frame 2.
  Netlist nl("lat");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(a, "q");
  const NodeIndex o = nl.add_gate(GateType::Not, {q}, "o");
  nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults{Fault{FaultSite{a, kStemPin}, false}};
  SymFaultSim sim(nl, faults, Strategy::Sot);
  const auto r = sim.run(sequence_from_strings({"1", "0"}));
  EXPECT_EQ(r.detected_count, 1u);
  EXPECT_EQ(r.detect_frame[0], 2u);
  EXPECT_EQ(r.status[0], FaultStatus::DetectedSot);
}

// ---------------------------------------------------------------------------
// Next-state divergence: the event-driven latch against a full frame
// ---------------------------------------------------------------------------

using StateDiff = std::vector<std::pair<std::uint32_t, Bdd>>;

/// Reference latch: evaluates the whole faulty frame in topological
/// order (no events) from `faulty_state`, advances it to the faulty
/// next state, and scans every flip-flop against `good_next`.
StateDiff full_frame_state_diff(const Netlist& nl, bdd::BddManager& mgr,
                                const Fault& fault,
                                const std::vector<Val3>& inputs,
                                std::vector<Bdd>& faulty_state,
                                const std::vector<Bdd>& good_next) {
  const Bdd sv = mgr.constant(fault.stuck_value);
  const bool stem = fault.site.is_stem();
  std::vector<Bdd> val(nl.node_count());
  for (std::size_t i = 0; i < nl.input_count(); ++i) {
    val[nl.inputs()[i]] = mgr.constant(inputs[i] == Val3::One);
  }
  for (std::size_t pos = 0; pos < nl.dff_count(); ++pos) {
    val[nl.dffs()[pos]] = faulty_state[pos];
  }
  for (const NodeIndex n : nl.topo_order()) {
    const Gate& g = nl.gate(n);
    if (!is_frame_input(g.type) || g.type == GateType::Const0 ||
        g.type == GateType::Const1) {
      val[n] = eval_gate_sym(mgr, g.type, g.fanins.size(),
                             [&](std::size_t i) -> const Bdd& {
                               if (!stem && n == fault.site.node &&
                                   i == fault.site.pin) {
                                 return sv;
                               }
                               return val[g.fanins[i]];
                             });
    }
    if (stem && n == fault.site.node) val[n] = sv;
  }
  StateDiff diff;
  for (std::uint32_t pos = 0; pos < nl.dff_count(); ++pos) {
    const NodeIndex dff = nl.dffs()[pos];
    faulty_state[pos] =
        !stem && fault.site.node == dff ? sv : val[nl.gate(dff).fanins[0]];
    if (faulty_state[pos] != good_next[pos]) {
      diff.emplace_back(pos, faulty_state[pos]);
    }
  }
  return diff;
}

/// Runs every fault alone under SOT and checks, after each step() that
/// leaves the fault live, that its state_diff equals the full-frame
/// reference entry by entry, in ascending position order.
void expect_latch_matches_full_frame(const Netlist& nl,
                                     const std::vector<Fault>& faults,
                                     const TestSequence& seq) {
  for (const Fault& fault : faults) {
    bdd::BddManager mgr;
    const StateVars vars(nl.dff_count());
    SymTrueValueSim good(nl, mgr, vars);
    SymFaultPropagator prop(nl, mgr, vars);
    SymFaultState fs{mgr.one(), {}};
    std::vector<Bdd> faulty_state;
    for (std::size_t pos = 0; pos < nl.dff_count(); ++pos) {
      faulty_state.push_back(mgr.var(vars.x(pos)));
    }
    for (std::size_t t = 0; t < seq.size(); ++t) {
      good.step(seq[t]);
      SymFrameContext ctx(good.values(), good.state(), nl.output_count());
      const StateDiff want = full_frame_state_diff(nl, mgr, fault, seq[t],
                                                   faulty_state, good.state());
      if (prop.step(fault, Strategy::Sot, fs, ctx)) break;
      const auto where = [&] {
        return nl.name() + " node " + std::to_string(fault.site.node) +
               " pin " + std::to_string(fault.site.pin) + " s-a-" +
               std::to_string(fault.stuck_value) + " frame " +
               std::to_string(t + 1);
      };
      ASSERT_EQ(fs.state_diff.size(), want.size()) << where();
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(fs.state_diff[i].first, want[i].first) << where();
        EXPECT_TRUE(fs.state_diff[i].second == want[i].second) << where();
      }
    }
  }
}

TEST(SymLatch, HandBuiltFlipFlopFanoutsMatchFullFrame) {
  // Flip-flop positions are declared against propagation order: q0
  // latches the deepest net, q1..q3 form a shift chain from an input,
  // and q4/q5 share one D net.
  Netlist nl("latch");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex q0 = nl.add_dff(kNoNode, "q0");
  const NodeIndex q1 = nl.add_dff(a, "q1");
  const NodeIndex q2 = nl.add_dff(q1, "q2");
  const NodeIndex q3 = nl.add_dff(q2, "q3");
  const NodeIndex shared = nl.add_gate(GateType::Xor, {b, q3}, "shared");
  const NodeIndex q4 = nl.add_dff(shared, "q4");
  const NodeIndex q5 = nl.add_dff(shared, "q5");
  const NodeIndex mix = nl.add_gate(GateType::And, {q4, q0}, "mix");
  const NodeIndex deep = nl.add_gate(GateType::Or, {mix, q5}, "deep");
  nl.set_fanins(q0, {deep});
  nl.mark_output(q3);
  nl.mark_output(deep);
  nl.finalize();

  std::vector<Fault> faults;
  for (const bool v : {false, true}) {
    faults.push_back(Fault{FaultSite{q4, 0}, v});        // D-pin branch
    faults.push_back(Fault{FaultSite{q0, 0}, v});        // D-pin branch
    faults.push_back(Fault{FaultSite{q2, kStemPin}, v});  // flip-flop output
    faults.push_back(Fault{FaultSite{shared, kStemPin}, v});  // feeds q4, q5
    faults.push_back(Fault{FaultSite{a, kStemPin}, v});  // shift-chain head
    faults.push_back(Fault{FaultSite{deep, kStemPin}, v});
  }
  expect_latch_matches_full_frame(
      nl, faults,
      sequence_from_strings({"01", "10", "11", "00", "01", "11", "10", "00"}));
}

TEST(SymLatch, SynthStylesMatchFullFrame) {
  for (int style = 0; style <= static_cast<int>(CircuitStyle::AcyclicPipeline);
       ++style) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SynthSpec spec;
      spec.name = std::string(to_cstring(static_cast<CircuitStyle>(style))) +
                  std::to_string(seed);
      spec.inputs = 3;
      spec.outputs = 2;
      spec.dffs = 5;
      spec.target_gates = 30;
      spec.style = static_cast<CircuitStyle>(style);
      spec.seed = seed;
      const Netlist nl = generate_circuit(spec);
      const std::vector<Fault> all = all_faults(nl);
      Rng rng(seed * 31 + static_cast<std::uint64_t>(style));
      std::vector<Fault> faults;
      for (const Fault& f : all) {
        if (!f.site.is_stem() && nl.type(f.site.node) == GateType::Dff) {
          faults.push_back(f);
        }
      }
      for (int i = 0; i < 12; ++i) faults.push_back(all[rng.below(all.size())]);
      expect_latch_matches_full_frame(nl, faults, random_sequence(nl, 8, rng));
    }
  }
}

}  // namespace
}  // namespace motsim
