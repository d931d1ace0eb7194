// Benchmark substrate: exact s27, the synthetic generator's structural
// guarantees, and the roster's metadata.

#include <gtest/gtest.h>

#include <set>

#include "analysis/lint.h"
#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "bench_data/synth_gen.h"
#include "faults/collapse.h"
#include "sim3/fault_sim3.h"
#include "sim3/good_sim3.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

TEST(S27, ExactInterface) {
  const Netlist nl = make_s27();
  EXPECT_EQ(nl.name(), "s27");
  EXPECT_EQ(nl.input_count(), 4u);
  EXPECT_EQ(nl.output_count(), 1u);
  EXPECT_EQ(nl.dff_count(), 3u);
  EXPECT_EQ(nl.gate_count(), 10u);
  EXPECT_TRUE(run_lint(nl).clean());
}

TEST(S27, KnownStructure) {
  const Netlist nl = make_s27();
  // G17 = NOT(G11) is the single primary output.
  const NodeIndex g17 = nl.find("G17");
  ASSERT_NE(g17, kNoNode);
  EXPECT_TRUE(nl.is_output(g17));
  EXPECT_EQ(nl.gate(g17).type, GateType::Not);
  EXPECT_EQ(nl.gate(g17).fanins[0], nl.find("G11"));
  // The three flip-flops.
  for (const char* name : {"G5", "G6", "G7"}) {
    const NodeIndex n = nl.find(name);
    ASSERT_NE(n, kNoNode);
    EXPECT_EQ(nl.gate(n).type, GateType::Dff);
  }
}

TEST(SynthGen, DeterministicForSameSpec) {
  SynthSpec spec{"det", 5, 3, 6, 60, CircuitStyle::RandomLogic, 99};
  const Netlist a = generate_circuit(spec);
  const Netlist b = generate_circuit(spec);
  EXPECT_EQ(a.node_count(), b.node_count());
  for (NodeIndex n = 0; n < a.node_count(); ++n) {
    EXPECT_EQ(a.gate(n).type, b.gate(n).type);
    EXPECT_EQ(a.gate(n).fanins, b.gate(n).fanins);
  }
}

TEST(SynthGen, DifferentSeedsDiffer) {
  SynthSpec s1{"x", 5, 3, 6, 60, CircuitStyle::RandomLogic, 1};
  SynthSpec s2 = s1;
  s2.seed = 2;
  const Netlist a = generate_circuit(s1);
  const Netlist b = generate_circuit(s2);
  bool same = a.node_count() == b.node_count();
  if (same) {
    for (NodeIndex n = 0; n < a.node_count() && same; ++n) {
      same = a.gate(n).type == b.gate(n).type &&
             a.gate(n).fanins == b.gate(n).fanins;
    }
  }
  EXPECT_FALSE(same);
}

TEST(SynthGen, RejectsDegenerateSpecs) {
  SynthSpec spec;
  spec.inputs = 0;
  EXPECT_THROW((void)generate_circuit(spec), std::invalid_argument);
  spec = SynthSpec{};
  spec.dffs = 0;
  EXPECT_THROW((void)generate_circuit(spec), std::invalid_argument);
}

class SynthGenStyles
    : public ::testing::TestWithParam<std::tuple<CircuitStyle, int>> {};

TEST_P(SynthGenStyles, InterfaceMatchesSpec) {
  const auto [style, seed] = GetParam();
  SynthSpec spec{"st",
                 static_cast<std::size_t>(4 + seed % 4),
                 static_cast<std::size_t>(2 + seed % 3),
                 static_cast<std::size_t>(3 + seed % 5),
                 static_cast<std::size_t>(70 + 10 * (seed % 4)),
                 style,
                 static_cast<std::uint64_t>(seed)};
  const Netlist nl = generate_circuit(spec);
  EXPECT_EQ(nl.input_count(), spec.inputs);
  EXPECT_EQ(nl.output_count(), spec.outputs);
  EXPECT_EQ(nl.dff_count(), spec.dffs);
  EXPECT_TRUE(nl.finalized());
}

TEST_P(SynthGenStyles, NoDeadOrUnobservableLogic) {
  const auto [style, seed] = GetParam();
  SynthSpec spec{"cl", 5, 3, 4, 80, style,
                 static_cast<std::uint64_t>(seed) * 7 + 1};
  const Netlist nl = generate_circuit(spec);
  const DiagnosticReport report = run_lint(nl);
  EXPECT_FALSE(report.has("lint.dangling-net")) << to_cstring(style) << ": "
                                                << report.to_text();
  EXPECT_FALSE(report.has("lint.floating-input")) << report.to_text();
  EXPECT_FALSE(report.has("lint.unobservable")) << report.to_text();
  EXPECT_FALSE(report.has("lint.duplicate-fanin")) << report.to_text();
}

TEST_P(SynthGenStyles, GateCountNearTarget) {
  const auto [style, seed] = GetParam();
  SynthSpec spec{"gc", 6, 3, 5, 120, style,
                 static_cast<std::uint64_t>(seed) * 13 + 5};
  const Netlist nl = generate_circuit(spec);
  EXPECT_GT(nl.gate_count(), spec.target_gates / 2);
  EXPECT_LT(nl.gate_count(), spec.target_gates * 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllStyles, SynthGenStyles,
    ::testing::Combine(::testing::Values(CircuitStyle::Counter,
                                         CircuitStyle::Controller,
                                         CircuitStyle::RandomLogic,
                                         CircuitStyle::TwinPaths,
                                         CircuitStyle::Pipeline,
                                         CircuitStyle::AcyclicPipeline),
                       ::testing::Values(1, 2, 3)));

TEST(SynthGen, PipelineStyleFlushesStageByStage) {
  // The shift-register style drains its unknown state one stage per
  // frame: under constant binary inputs, flip-flop i must be binary
  // from frame i+1 on (taps only XOR in binary inputs).
  SynthSpec spec{"pipe", 3, 2, 8, 60, CircuitStyle::Pipeline, 5};
  const Netlist nl = generate_circuit(spec);
  GoodSim3 sim(nl);
  const std::vector<Val3> vec(3, Val3::One);
  for (std::size_t t = 0; t < nl.dff_count(); ++t) {
    sim.step(vec);
    for (std::size_t i = 0; i + 1 <= t + 1 && i < nl.dff_count(); ++i) {
      EXPECT_TRUE(is_binary(sim.state()[i]))
          << "stage " << i << " still X after frame " << t + 1;
    }
  }
  // Fully flushed.
  for (Val3 v : sim.state()) EXPECT_TRUE(is_binary(v));
}

TEST(SynthGen, PipelineCoverageRampsWithLength) {
  const Netlist nl = make_benchmark("s1423");
  const CollapsedFaultList c(nl);
  Rng rng(3);
  const TestSequence seq = random_sequence(nl, 120, rng);

  FaultSim3 short_sim(nl, c.faults());
  const auto r30 =
      short_sim.run(TestSequence(seq.begin(), seq.begin() + 30));
  FaultSim3 long_sim(nl, c.faults());
  const auto r120 = long_sim.run(seq);
  EXPECT_GT(r120.detected_count, r30.detected_count)
      << "deep stages need long sequences";
}

TEST(Registry, RosterHasThePaperCircuits) {
  const auto& roster = benchmark_roster();
  EXPECT_EQ(roster.size(), 30u);  // s27 + 29 paper circuits
  std::set<std::string> names;
  for (const auto& info : roster) names.insert(info.spec.name);
  for (const char* expected :
       {"s27", "s208.1", "s298", "s510", "s838.1", "s5378", "s38584.1"}) {
    EXPECT_TRUE(names.count(expected) == 1) << expected;
  }
}

TEST(Registry, FindAndMakeWork) {
  EXPECT_NE(find_benchmark("s298"), nullptr);
  EXPECT_EQ(find_benchmark("s999"), nullptr);
  EXPECT_THROW((void)make_benchmark("s999"), std::invalid_argument);
  const Netlist nl = make_benchmark("s298");
  EXPECT_EQ(nl.name(), "s298");
  EXPECT_EQ(nl.input_count(), 3u);
  EXPECT_EQ(nl.output_count(), 6u);
  EXPECT_EQ(nl.dff_count(), 14u);
}

TEST(Registry, PaperNumbersAreTranscribed) {
  const BenchmarkInfo* s510 = find_benchmark("s510");
  ASSERT_NE(s510, nullptr);
  EXPECT_EQ(s510->t1.faults, 564);
  EXPECT_EQ(s510->t1.xred, 564);
  EXPECT_EQ(s510->t1.fd, 0);
  EXPECT_TRUE(s510->in_table2);
  EXPECT_EQ(s510->t2.sot, 395);
  EXPECT_EQ(s510->t2.rmot, 477);
  EXPECT_EQ(s510->t2.mot, 531);
  EXPECT_TRUE(s510->in_table4);
  EXPECT_EQ(s510->t4.po, 7);

  const BenchmarkInfo* s838 = find_benchmark("s838.1");
  ASSERT_NE(s838, nullptr);
  EXPECT_TRUE(s838->t2.mot_star);  // the paper's hybrid fell back
  EXPECT_EQ(s838->t2.rmot, 12);
  EXPECT_EQ(s838->t2.mot, 11);  // the famous rMOT > MOT anomaly
  EXPECT_FALSE(s838->in_table3);
}

TEST(Registry, EveryRosterEntryGenerates) {
  // Instantiate every circuit up to medium size and lint it; the
  // giants are generated too but only size-checked (cheap).
  for (const auto& info : benchmark_roster()) {
    if (info.spec.target_gates > 3000) continue;
    const Netlist nl = make_benchmark(info);
    EXPECT_EQ(nl.input_count(), info.spec.inputs) << info.spec.name;
    EXPECT_EQ(nl.dff_count(), info.spec.dffs) << info.spec.name;
    const DiagnosticReport report = run_lint(nl);
    EXPECT_FALSE(report.has("lint.dangling-net")) << info.spec.name;
    EXPECT_FALSE(report.has("lint.floating-input")) << info.spec.name;
    EXPECT_FALSE(report.has("lint.unobservable")) << info.spec.name;
    // A usable fault list exists.
    const CollapsedFaultList c(nl);
    EXPECT_GT(c.size(), 10u) << info.spec.name;
  }
}

TEST(Registry, GiantsGenerateAtScale) {
  const Netlist nl = make_benchmark("s38584.1");
  EXPECT_GT(nl.gate_count(), 10000u);
  EXPECT_EQ(nl.dff_count(), 1426u);
  const DiagnosticReport report = run_lint(nl);
  EXPECT_FALSE(report.has("lint.dangling-net"));
  EXPECT_FALSE(report.has("lint.floating-input"));
}

}  // namespace
}  // namespace motsim
