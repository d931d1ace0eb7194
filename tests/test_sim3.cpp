// Three-valued simulation: abstraction soundness against the concrete
// two-valued simulator, and fault-simulation soundness against the
// SOT detectability definition (Definition 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "bench_data/s27.h"
#include "bench_data/synth_gen.h"
#include "faults/collapse.h"
#include "reference.h"
#include "sim3/bitpar_sim3.h"
#include "sim3/fault_sim3.h"
#include "sim3/fault_simulator.h"
#include "sim3/good_sim3.h"
#include "sim3/sim2.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

using testing::all_responses;
using testing::ref_sot_detectable;
using testing::small_random_circuit;

// ---------------------------------------------------------------------------
// GoodSim3 directed behaviour
// ---------------------------------------------------------------------------

TEST(GoodSim3, StartsAllX) {
  const Netlist nl = make_s27();
  GoodSim3 sim(nl);
  for (Val3 v : sim.state()) EXPECT_EQ(v, Val3::X);
}

TEST(GoodSim3, InputWidthIsChecked) {
  const Netlist nl = make_s27();
  GoodSim3 sim(nl);
  EXPECT_THROW((void)sim.step({Val3::One}), std::invalid_argument);
  EXPECT_THROW(sim.set_state({Val3::X}), std::invalid_argument);
}

TEST(GoodSim3, BinaryStateBehavesConcretely) {
  // With a fully specified state the three-valued simulator must match
  // the two-valued one exactly.
  const Netlist nl = make_s27();
  Rng rng(3);
  const TestSequence seq = random_sequence(nl, 20, rng);
  const auto seq2 = to_bool_sequence(seq);

  GoodSim3 sim3(nl);
  sim3.set_state({Val3::Zero, Val3::One, Val3::Zero});
  Sim2 sim2(nl);
  sim2.set_state({false, true, false});

  for (std::size_t t = 0; t < seq.size(); ++t) {
    const auto out3 = sim3.step(seq[t]);
    const auto out2 = sim2.step(seq2[t]);
    ASSERT_EQ(out3.size(), out2.size());
    for (std::size_t i = 0; i < out3.size(); ++i) {
      EXPECT_EQ(out3[i], to_val3(out2[i])) << "t=" << t << " o=" << i;
    }
  }
}

class Sim3Refinement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Sim3Refinement, XStateAbstractsEveryConcreteRun) {
  // The all-X three-valued run must abstract the concrete run from
  // EVERY initial state: wherever sim3 says 0/1, sim2 agrees.
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 17 + 1);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const auto seq2 = to_bool_sequence(seq);
  const std::size_t m = nl.dff_count();

  // Reference runs for all initial states.
  for (std::size_t s = 0; s < (std::size_t{1} << m); ++s) {
    std::vector<bool> init(m);
    for (std::size_t i = 0; i < m; ++i) init[i] = ((s >> i) & 1) != 0;

    GoodSim3 sim3(nl);
    Sim2 sim2(nl);
    sim2.set_state(init);
    for (std::size_t t = 0; t < seq.size(); ++t) {
      sim3.step(seq[t]);
      sim2.step(seq2[t]);
      for (NodeIndex n = 0; n < nl.node_count(); ++n) {
        EXPECT_TRUE(refines(to_val3(sim2.values()[n]), sim3.values()[n]))
            << "node " << nl.gate(n).name << " frame " << t << " state "
            << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sim3Refinement,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------------
// GoodSim3 against an uncompiled reference
// ---------------------------------------------------------------------------

/// Reference fault-free machine: eval_gate3 over Netlist::gate()
/// fanins in topological order, independent of LevelizedCircuit and
/// of the AND-form lookup table GoodSim3 evaluates with.
class ReferenceSim3 {
 public:
  explicit ReferenceSim3(const Netlist& nl)
      : nl_(nl),
        values_(nl.node_count(), Val3::X),
        state_(nl.dff_count(), Val3::X) {}

  void step(const std::vector<Val3>& inputs) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      values_[nl_.inputs()[i]] = inputs[i];
    }
    for (std::size_t i = 0; i < state_.size(); ++i) {
      values_[nl_.dffs()[i]] = state_[i];
    }
    for (const NodeIndex n : nl_.topo_order()) {
      const Gate& g = nl_.gate(n);
      if (g.type == GateType::Input || g.type == GateType::Dff) continue;
      values_[n] = eval_gate3(g.type, g.fanins.size(), [&](std::size_t i) {
        return values_[g.fanins[i]];
      });
    }
    for (std::size_t i = 0; i < state_.size(); ++i) {
      state_[i] = values_[nl_.gate(nl_.dffs()[i]).fanins[0]];
    }
  }

  [[nodiscard]] const std::vector<Val3>& values() const { return values_; }
  [[nodiscard]] const std::vector<Val3>& state() const { return state_; }

 private:
  const Netlist& nl_;
  std::vector<Val3> values_;
  std::vector<Val3> state_;
};

Val3 random_val3(Rng& rng) { return static_cast<Val3>(rng.below(3)); }

/// Steps GoodSim3 and the reference side by side from the all-X state
/// and compares every node value, the outputs and the next state.
void expect_matches_reference(const Netlist& nl, const TestSequence& seq) {
  GoodSim3 sim(nl);
  ReferenceSim3 ref(nl);
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const std::vector<Val3> outs = sim.step(seq[t]);
    ref.step(seq[t]);
    for (NodeIndex n = 0; n < nl.node_count(); ++n) {
      ASSERT_EQ(sim.values()[n], ref.values()[n])
          << nl.name() << " frame " << t << " node " << nl.gate(n).name;
    }
    for (std::size_t o = 0; o < outs.size(); ++o) {
      ASSERT_EQ(outs[o], ref.values()[nl.outputs()[o]])
          << nl.name() << " frame " << t << " output " << o;
    }
    ASSERT_EQ(sim.state(), ref.state()) << nl.name() << " frame " << t;
  }
}

class GoodSim3Reference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoodSim3Reference, EveryStyleMatchesFrameByFrame) {
  for (int style = 0; style <= static_cast<int>(CircuitStyle::AcyclicPipeline);
       ++style) {
    SynthSpec spec;
    spec.style = static_cast<CircuitStyle>(style);
    spec.name = std::string("ref_") + to_cstring(spec.style);
    spec.inputs = 3 + GetParam() % 4;
    spec.outputs = 1 + GetParam() % 3;
    spec.dffs = 3 + GetParam() % 5;
    spec.target_gates = 40 + 30 * (GetParam() % 4);
    spec.seed = GetParam() * 0x9E3779B9ull + static_cast<std::uint64_t>(style);
    const Netlist nl = generate_circuit(spec);

    // Binary vectors (the state may still be X for a while), then
    // vectors with X inputs.
    Rng rng(GetParam() * 31 + static_cast<std::uint64_t>(style));
    TestSequence seq = random_sequence(nl, 24, rng);
    for (int t = 0; t < 24; ++t) {
      std::vector<Val3> v(nl.input_count());
      for (Val3& x : v) x = random_val3(rng);
      seq.push_back(std::move(v));
    }
    expect_matches_reference(nl, seq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoodSim3Reference,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GoodSim3, EveryGateShapeMatchesReferenceOnAllOperands) {
  // Every gate type at every compiled shape: repeated-fanin AND-family
  // gates (in1 == in0, the one-input form), BUF/NOT, two-input gates
  // of all types, three- and four-input gates, and gates over
  // constants. Flip-flop q latches input d, so q is a fourth operand
  // that starts at X.
  Netlist nl("shapes");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex c = nl.add_input("c");
  const NodeIndex d = nl.add_input("d");
  const NodeIndex q = nl.add_dff(d, "q");
  const NodeIndex zero = nl.add_gate(GateType::Const0, {}, "zero");
  const NodeIndex one = nl.add_gate(GateType::Const1, {}, "one");
  const GateType kTypes[] = {GateType::And, GateType::Nand, GateType::Or,
                             GateType::Nor, GateType::Xor,  GateType::Xnor};
  std::vector<NodeIndex> gates;
  int id = 0;
  const auto add = [&](GateType type, std::vector<NodeIndex> fanins) {
    gates.push_back(
        nl.add_gate(type, std::move(fanins), "g" + std::to_string(id++)));
  };
  add(GateType::Buf, {a});
  add(GateType::Not, {q});
  add(GateType::Buf, {one});
  add(GateType::Not, {zero});
  for (const GateType t : kTypes) {
    add(t, {a, a});
    add(t, {q, q});
    add(t, {a, b});
    add(t, {b, q});
    add(t, {a, one});
    add(t, {zero, c});
    add(t, {a, b, c});
    add(t, {c, q, a, b});
  }
  for (const NodeIndex g : gates) nl.mark_output(g);
  nl.mark_output(zero);
  nl.mark_output(one);
  nl.finalize();

  // All 27 values of (a, b, c) with q at X (the initial state), then
  // at 0, then at 1: frame t sees q = d(t - 1) = code (t / 27 + 2) % 3.
  TestSequence seq;
  for (int t = 0; t < 81; ++t) {
    const int code = t % 27;
    seq.push_back({static_cast<Val3>(code % 3),
                   static_cast<Val3>((code / 3) % 3),
                   static_cast<Val3>(code / 9),
                   static_cast<Val3>(((t + 1) / 27 + 2) % 3)});
  }
  expect_matches_reference(nl, seq);
}

// ---------------------------------------------------------------------------
// FaultSim3: directed cases
// ---------------------------------------------------------------------------

TEST(FaultSim3, DetectsObviousOutputFault) {
  // o = NOT(a): a-sa0 forces o to 1; applying a=1 yields good 0 vs
  // faulty 1 at a primary output.
  Netlist nl("inv");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(a, "q");  // keep it sequential
  (void)q;
  const NodeIndex o = nl.add_gate(GateType::Not, {a}, "o");
  nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults{Fault{FaultSite{a, kStemPin}, false}};
  FaultSim3 sim(nl, faults);
  const auto result = sim.run(sequence_from_strings({"1"}));
  EXPECT_EQ(result.detected_count, 1u);
  EXPECT_EQ(result.status[0], FaultStatus::DetectedSim3);
  EXPECT_EQ(result.detect_frame[0], 1u);
}

TEST(FaultSim3, FaultMaskedByXStateIsNotDetected) {
  // o = AND(a, q) with q unknown: a-sa0 gives good X vs faulty 0 — not
  // a three-valued detection.
  Netlist nl("mask");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex o = nl.add_gate(GateType::And, {a, q}, "o");
  nl.set_fanins(q, {q});  // state holds itself: stays X forever
  nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults{Fault{FaultSite{a, kStemPin}, false}};
  FaultSim3 sim(nl, faults);
  const auto result = sim.run(sequence_from_strings({"1", "1", "1"}));
  EXPECT_EQ(result.detected_count, 0u);
}

TEST(FaultSim3, DetectionThroughStateNeedsTwoFrames) {
  // q latches a; o = NOT(q). A fault on a shows up one frame later.
  Netlist nl("lat");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(a, "q");
  const NodeIndex o = nl.add_gate(GateType::Not, {q}, "o");
  nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults{Fault{FaultSite{a, kStemPin}, false}};
  FaultSim3 sim(nl, faults);
  const auto result = sim.run(sequence_from_strings({"1", "0"}));
  EXPECT_EQ(result.detected_count, 1u);
  EXPECT_EQ(result.detect_frame[0], 2u);
}

TEST(FaultSim3, InitialStatusSkipsFaults) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  FaultSim3 sim(nl, c.faults());
  std::vector<FaultStatus> init(c.size(), FaultStatus::XRedundant);
  sim.set_initial_status(init);
  Rng rng(5);
  const auto result = sim.run(random_sequence(nl, 10, rng));
  EXPECT_EQ(result.simulated_faults, 0u);
  EXPECT_EQ(result.detected_count, 0u);
  for (FaultStatus s : result.status) EXPECT_EQ(s, FaultStatus::XRedundant);
}

TEST(FaultSim3, BranchFaultIsDistinguishedFromStem) {
  // a fans out to two NOT gates; a branch fault affects one output,
  // the stem fault both.
  Netlist nl("branch");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex d = nl.add_dff(a, "d");  // sequential for form
  (void)d;
  const NodeIndex o1 = nl.add_gate(GateType::Not, {a}, "o1");
  const NodeIndex o2 = nl.add_gate(GateType::Not, {a}, "o2");
  nl.mark_output(o1);
  nl.mark_output(o2);
  nl.finalize();

  const std::vector<Fault> faults{
      Fault{FaultSite{o1, 0}, false},       // branch into o1
      Fault{FaultSite{a, kStemPin}, false}  // stem
  };
  FaultSim3 sim(nl, faults);
  const auto result = sim.run(sequence_from_strings({"1"}));
  EXPECT_EQ(result.detected_count, 2u);
}

// ---------------------------------------------------------------------------
// FaultSim3: property — soundness & exactness vs Definition 2
// ---------------------------------------------------------------------------

class FaultSim3Props : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSim3Props, DetectionImpliesSotDetectability) {
  // Three-valued detection is sound: every detected fault is SOT
  // detectable per Definition 2 (checked by exhaustive enumeration).
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 31 + 7);
  const TestSequence seq = random_sequence(nl, 6, rng);

  const CollapsedFaultList c(nl);
  FaultSim3 sim(nl, c.faults());
  const auto result = sim.run(seq);

  for (std::size_t i = 0; i < c.size(); ++i) {
    if (result.status[i] == FaultStatus::DetectedSim3) {
      EXPECT_TRUE(ref_sot_detectable(nl, c.faults()[i], seq))
          << fault_name(nl, c.faults()[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSim3Props,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18,
                                           19, 20, 21, 22));

// ---------------------------------------------------------------------------
// Partially specified (X-carrying) test vectors — the HOPE-style
// sequences the paper's Table III sources could contain. Three-valued
// simulation handles them natively; a detection under X inputs must
// hold for EVERY completion of the X bits.
// ---------------------------------------------------------------------------

class XInputProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XInputProps, DetectionSoundForEveryCompletion) {
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 4 || nl.input_count() > 4) GTEST_SKIP();
  Rng rng(GetParam() * 77 + 5);

  // Random sequence with ~25% X bits.
  TestSequence seq = random_sequence(nl, 5, rng);
  std::vector<std::pair<std::size_t, std::size_t>> x_positions;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    for (std::size_t j = 0; j < seq[t].size(); ++j) {
      if (rng.chance(0.25)) {
        seq[t][j] = Val3::X;
        x_positions.emplace_back(t, j);
      }
    }
  }
  if (x_positions.size() > 8) GTEST_SKIP();  // keep enumeration cheap

  const CollapsedFaultList c(nl);
  FaultSim3 sim(nl, c.faults());
  const auto result = sim.run(seq);

  // Enumerate every completion of the X bits; each detected fault must
  // be SOT-detectable under each completion.
  for (std::size_t bits = 0; bits < (std::size_t{1} << x_positions.size());
       ++bits) {
    TestSequence completed = seq;
    for (std::size_t k = 0; k < x_positions.size(); ++k) {
      completed[x_positions[k].first][x_positions[k].second] =
          to_val3(((bits >> k) & 1) != 0);
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (result.status[i] == FaultStatus::DetectedSim3) {
        EXPECT_TRUE(testing::ref_sot_detectable(nl, c.faults()[i],
                                                completed))
            << fault_name(nl, c.faults()[i]) << " completion " << bits;
      }
    }
  }
}

TEST_P(XInputProps, SerialAndParallelAgreeOnXVectors) {
  const Netlist nl = small_random_circuit(GetParam() + 50);
  Rng rng(GetParam() * 91 + 7);
  TestSequence seq = random_sequence(nl, 10, rng);
  for (auto& frame : seq) {
    for (Val3& v : frame) {
      if (rng.chance(0.3)) v = Val3::X;
    }
  }
  const CollapsedFaultList c(nl);
  FaultSim3 serial(nl, c.faults());
  BitParFaultSim3 parallel(nl, c.faults());
  const auto rs = serial.run(seq);
  const auto rp = parallel.run(seq);
  EXPECT_EQ(rs.status, rp.status);
  EXPECT_EQ(rs.detect_frame, rp.detect_frame);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XInputProps,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Cross-backend bit-identity property: for every backend, every batch
// width (fault lists smaller than, equal to and larger than one
// 64-slot word) and every thread count, run() must return the same
// detected set, statuses and detection frames.
// ---------------------------------------------------------------------------

class CrossBackend : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossBackend, RunIsBitIdenticalForEveryBackendAndWidth) {
  const Netlist nl = small_random_circuit(GetParam() + 200);
  Rng rng(GetParam() * 131 + 29);
  const TestSequence seq = random_sequence(nl, 12, rng);
  const CollapsedFaultList c(nl);

  // Batch widths: a partial word, exactly one word (repeat faults if
  // the circuit yields fewer), and several words.
  std::vector<std::vector<Fault>> lists;
  lists.push_back(std::vector<Fault>(
      c.faults().begin(),
      c.faults().begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(17, c.size()))));
  std::vector<Fault> exactly64;
  while (exactly64.size() < 64) {
    for (const Fault& f : c.faults()) {
      if (exactly64.size() == 64) break;
      exactly64.push_back(f);
    }
  }
  lists.push_back(std::move(exactly64));
  std::vector<Fault> many;
  while (many.size() < 150) {
    for (const Fault& f : c.faults()) {
      if (many.size() == 150) break;
      many.push_back(f);
    }
  }
  lists.push_back(std::move(many));

  for (const auto& faults : lists) {
    FaultSim3 reference(nl, faults);
    const auto expected = reference.run(seq);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      BitParFaultSim3 sim(nl, faults, threads);
      const auto got = sim.run(seq);
      EXPECT_EQ(expected.status, got.status)
          << "faults=" << faults.size() << " threads=" << threads;
      EXPECT_EQ(expected.detect_frame, got.detect_frame)
          << "faults=" << faults.size() << " threads=" << threads;
      EXPECT_EQ(expected.detected_count, got.detected_count);
      EXPECT_EQ(expected.simulated_faults, got.simulated_faults);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackend,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------------
// X-handling edge cases, per backend
// ---------------------------------------------------------------------------

class BothBackends : public ::testing::TestWithParam<Sim3Backend> {};

TEST_P(BothBackends, XAtOutputNeverDetects) {
  // o = XOR(a, q) with q stuck at X: the fault-free output is X in
  // every frame, so no fault can be three-valued detected — the good
  // value is never binary.
  Netlist nl("xpo");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex o = nl.add_gate(GateType::Xor, {a, q}, "o");
  nl.set_fanins(q, {q});  // holds itself: stays X forever
  nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults{Fault{FaultSite{a, kStemPin}, false},
                                  Fault{FaultSite{a, kStemPin}, true}};
  const auto sim = make_fault_simulator3(GetParam(), nl, faults);
  const auto r = sim->run(sequence_from_strings({"1", "0", "1"}));
  EXPECT_EQ(r.detected_count, 0u) << to_cstring(GetParam());
}

TEST_P(BothBackends, XMaskedFaultEffectIsNotADetection) {
  // o = AND(a, q) with q unknown: a-sa0 yields good X vs faulty 0 at
  // the output — a difference, but not an SOT detection.
  Netlist nl("xmask");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex o = nl.add_gate(GateType::And, {a, q}, "o");
  nl.set_fanins(q, {q});
  nl.mark_output(o);
  nl.finalize();

  const std::vector<Fault> faults{Fault{FaultSite{a, kStemPin}, false}};
  const auto sim = make_fault_simulator3(GetParam(), nl, faults);
  const auto r = sim->run(sequence_from_strings({"1", "1", "1"}));
  EXPECT_EQ(r.detected_count, 0u) << to_cstring(GetParam());
}

TEST_P(BothBackends, BinaryDisagreementAtOutputDetects) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  Rng rng(41);
  const auto sim = make_fault_simulator3(GetParam(), nl, c.faults());
  const auto r = sim->run(random_sequence(nl, 40, rng));
  EXPECT_GT(r.detected_count, 0u) << to_cstring(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, BothBackends,
                         ::testing::Values(Sim3Backend::Event,
                                           Sim3Backend::BitPar));

// ---------------------------------------------------------------------------
// Sim2 reference simulator
// ---------------------------------------------------------------------------

TEST(Sim2, FaultFreeAndStemFaultDiffer) {
  Netlist nl("s2");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(a, "q");
  const NodeIndex o = nl.add_gate(GateType::Not, {q}, "o");
  nl.mark_output(o);
  nl.finalize();

  Sim2 good(nl);
  Sim2 bad(nl, Fault{FaultSite{q, kStemPin}, true});
  const auto gr = good.run({false}, {{true}, {true}});
  const auto br = bad.run({false}, {{true}, {true}});
  // Good: q=0 then 1 -> o = 1 then 0. Faulty q stuck 1 -> o = 0, 0.
  EXPECT_EQ(gr[0][0], true);
  EXPECT_EQ(gr[1][0], false);
  EXPECT_EQ(br[0][0], false);
  EXPECT_EQ(br[1][0], false);
}

TEST(Sim2, DffBranchFaultPinsNextState) {
  Netlist nl("s2d");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(a, "q");
  const NodeIndex o = nl.add_gate(GateType::Buf, {q}, "o");
  nl.mark_output(o);
  nl.finalize();

  Sim2 bad(nl, Fault{FaultSite{q, 0}, true});  // D-pin stuck-at-1
  const auto r = bad.run({false}, {{false}, {false}});
  EXPECT_EQ(r[0][0], false);  // initial state still visible
  EXPECT_EQ(r[1][0], true);   // every latched value is 1
}

TEST(Sim2, ToBoolSequenceRejectsX) {
  EXPECT_THROW((void)to_bool_sequence(sequence_from_strings({"1X"})),
               std::invalid_argument);
}

}  // namespace
}  // namespace motsim
