// Netlist transforms (reset insertion, dot export) and fault sampling.

#include <gtest/gtest.h>

#include <set>

#include "analysis/lint.h"
#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "circuit/transform.h"
#include "core/symbolic_fsm.h"
#include "faults/collapse.h"
#include "faults/sampling.h"
#include "sim3/fault_sim3.h"
#include "sim3/good_sim3.h"
#include "sim3/sim2.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

TEST(ResetTransform, StructureIsValid) {
  const Netlist nl = make_s27();
  const Netlist rst = with_synchronous_reset(nl);
  EXPECT_EQ(rst.input_count(), nl.input_count() + 1);
  EXPECT_EQ(rst.output_count(), nl.output_count());
  EXPECT_EQ(rst.dff_count(), nl.dff_count());
  // One NOT plus one AND per flip-flop.
  EXPECT_EQ(rst.gate_count(), nl.gate_count() + 1 + nl.dff_count());
  EXPECT_TRUE(run_lint(rst).clean());
  EXPECT_NE(rst.find("reset"), kNoNode);
}

TEST(ResetTransform, AssertingResetClearsTheState) {
  const Netlist nl = make_s27();
  const Netlist rst = with_synchronous_reset(nl);
  GoodSim3 sim(rst);  // all-X start
  std::vector<Val3> vec(rst.input_count(), Val3::One);  // reset is last
  sim.step(vec);
  for (Val3 v : sim.state()) EXPECT_EQ(v, Val3::Zero);
}

TEST(ResetTransform, DeassertedResetPreservesBehaviour) {
  // With reset = 0 the machine behaves exactly like the original, for
  // every initial state.
  const Netlist nl = make_s27();
  const Netlist rst = with_synchronous_reset(nl);
  Rng rng(3);
  const TestSequence seq = random_sequence(nl, 12, rng);
  const auto seq2 = to_bool_sequence(seq);

  for (std::size_t s = 0; s < 8; ++s) {
    std::vector<bool> init{(s & 1) != 0, (s & 2) != 0, (s & 4) != 0};
    Sim2 a(nl);
    a.set_state(init);
    Sim2 b(rst);
    b.set_state(init);
    for (const auto& vec : seq2) {
      std::vector<bool> vec_rst = vec;
      vec_rst.push_back(false);  // reset low
      EXPECT_EQ(a.step(vec), b.step(vec_rst));
    }
  }
}

TEST(ResetTransform, MakesTheCounterSynchronizable) {
  // The headline effect: the counter has no synchronizing sequence;
  // with the reset it synchronizes in one vector.
  const Netlist nl = make_benchmark("s208.1");
  const Netlist rst = with_synchronous_reset(nl);

  bdd::BddManager mgr;
  const SymbolicFsm fsm(rst, mgr, StateVars(rst.dff_count()));
  const SyncSearchResult r = find_synchronizing_sequence(fsm, 4, 256);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.sequence.size(), 1u);
}

TEST(ResetTransform, RecoversThreeValuedCoverageOnCounter) {
  const Netlist nl = make_benchmark("s208.1");
  const Netlist rst = with_synchronous_reset(nl);
  const CollapsedFaultList orig_faults(nl);
  const CollapsedFaultList rst_faults(rst);
  Rng rng(7);
  const TestSequence seq = random_sequence(nl, 60, rng);

  FaultSim3 plain(nl, orig_faults.faults());
  const auto r_plain = plain.run(seq);

  TestSequence rst_seq;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    std::vector<Val3> vec = seq[t];
    vec.push_back(t == 0 ? Val3::One : Val3::Zero);
    rst_seq.push_back(std::move(vec));
  }
  FaultSim3 with_rst(rst, rst_faults.faults());
  const auto r_rst = with_rst.run(rst_seq);

  EXPECT_LT(r_plain.detected_count, 5u);
  EXPECT_GT(r_rst.detected_count, rst_faults.size() / 3);
}

TEST(ResetTransform, RejectsNameCollisionsAndUnfinalized) {
  const Netlist nl = make_s27();
  EXPECT_THROW((void)with_synchronous_reset(nl, "G0"),
               std::invalid_argument);
  Netlist raw("raw");
  (void)raw.add_input("a");
  EXPECT_THROW((void)with_synchronous_reset(raw), std::logic_error);
}

TEST(NetlistDot, ContainsAllNodes) {
  const Netlist nl = make_s27();
  const std::string dot = netlist_to_dot(nl);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (NodeIndex n = 0; n < nl.node_count(); ++n) {
    EXPECT_NE(dot.find(nl.gate(n).name), std::string::npos);
  }
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // PO marking
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);   // DFF edge
}

// ---------------------------------------------------------------------------
// Fault sampling
// ---------------------------------------------------------------------------

TEST(FaultSampling, SampleSizeAndUniqueness) {
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList c(nl);
  const auto sample = sample_faults(c.faults(), 50, 1);
  EXPECT_EQ(sample.size(), 50u);
  std::set<std::pair<std::uint64_t, bool>> seen;
  for (const Fault& f : sample) {
    seen.insert({(static_cast<std::uint64_t>(f.site.node) << 32) |
                     f.site.pin,
                 f.stuck_value});
  }
  EXPECT_EQ(seen.size(), 50u);  // no duplicates
}

TEST(FaultSampling, OversizedSampleReturnsAll) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  const auto sample = sample_faults(c.faults(), 10000, 1);
  EXPECT_EQ(sample.size(), c.size());
}

TEST(FaultSampling, DeterministicPerSeed) {
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList c(nl);
  EXPECT_EQ(sample_faults(c.faults(), 40, 7),
            sample_faults(c.faults(), 40, 7));
  EXPECT_NE(sample_faults(c.faults(), 40, 7),
            sample_faults(c.faults(), 40, 8));
}

TEST(FaultSampling, EstimateIsCloseToTruth) {
  // Coverage estimated from a sample must sit within the reported
  // confidence interval of the full-run coverage (statistically; the
  // fixed seed makes this deterministic).
  const Netlist nl = make_benchmark("s344");
  const CollapsedFaultList c(nl);
  Rng rng(5);
  const TestSequence seq = random_sequence(nl, 40, rng);

  FaultSim3 full(nl, c.faults());
  const auto r_full = full.run(seq);
  const double truth = static_cast<double>(r_full.detected_count) /
                       static_cast<double>(c.size());

  const auto sample = sample_faults(c.faults(), 120, 3);
  FaultSim3 sim(nl, sample);
  const auto r_sample = sim.run(seq);
  const double estimate = static_cast<double>(r_sample.detected_count) /
                          static_cast<double>(sample.size());
  const double err = sampling_error(estimate, sample.size(), c.size());
  EXPECT_NEAR(estimate, truth, err + 0.02);
}

TEST(FaultSampling, ErrorFormulaSanity) {
  EXPECT_DOUBLE_EQ(sampling_error(0.5, 100, 100), 0.0);
  EXPECT_GT(sampling_error(0.5, 100, 100000), 0.09);
  EXPECT_LT(sampling_error(0.5, 1000, 100000), 0.035);
  EXPECT_LT(sampling_error(0.99, 1000, 100000),
            sampling_error(0.5, 1000, 100000));
  EXPECT_EQ(sampling_error(0.5, 0, 10), 1.0);
}

}  // namespace
}  // namespace motsim
