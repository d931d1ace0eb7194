// Explicit-state engine: exactness against the brute-force references,
// identity with the OBDD hybrid wherever it opens no window, flip-flop
// fault sites, and the pipeline's engine selection.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "core/explicit_sim.h"
#include "core/hybrid_sim.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "reference.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

HybridResult run_explicit(const Netlist& nl, const std::vector<Fault>& faults,
                          const TestSequence& seq, Strategy strategy) {
  SimOptions opts;
  opts.strategy = strategy;
  ExplicitStateSim sim(std::make_shared<const LevelizedCircuit>(nl), faults,
                       opts);
  return sim.run(seq);
}

HybridResult run_hybrid(const Netlist& nl, const std::vector<Fault>& faults,
                        const TestSequence& seq, Strategy strategy) {
  SimOptions opts;
  opts.strategy = strategy;
  HybridFaultSim sim(nl, faults, opts);
  return sim.run(seq);
}

bool reference_detectable(const Netlist& nl, const Fault& f,
                          const TestSequence& seq, Strategy strategy) {
  switch (strategy) {
    case Strategy::Sot:
      return testing::ref_sot_detectable(nl, f, seq);
    case Strategy::Rmot:
      return testing::ref_rmot_detectable(nl, f, seq);
    case Strategy::Mot:
      break;
  }
  return testing::ref_mot_detectable(nl, f, seq);
}

constexpr Strategy kStrategies[] = {Strategy::Sot, Strategy::Rmot,
                                    Strategy::Mot};

TEST(ExplicitState, MatchesReferenceDefinitions) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const Netlist nl = testing::small_random_circuit(seed);
    const std::vector<Fault> faults = CollapsedFaultList(nl).faults();
    Rng rng(seed);
    const TestSequence seq = random_sequence(nl, 10, rng);
    for (const Strategy s : kStrategies) {
      const HybridResult r = run_explicit(nl, faults, seq, s);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        EXPECT_EQ(is_detected(r.status[i]),
                  reference_detectable(nl, faults[i], seq, s))
            << nl.name() << " " << to_cstring(s) << " "
            << fault_name(nl, faults[i]);
      }
    }
  }
}

TEST(ExplicitState, EqualsHybridOnSmallRoster) {
  for (const char* name : {"s27", "s208.1", "s386", "s510", "s820", "s832",
                           "s1488", "s1494"}) {
    const Netlist nl = make_benchmark(name);
    ASSERT_LE(nl.dff_count(), ExplicitStateSim::kMaxDffs);
    const std::vector<Fault> faults = CollapsedFaultList(nl).faults();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      const TestSequence seq = random_sequence(nl, 100, rng);
      for (const Strategy s : kStrategies) {
        const HybridResult h = run_hybrid(nl, faults, seq, s);
        ASSERT_FALSE(h.used_fallback) << name << " seed " << seed;
        const HybridResult e = run_explicit(nl, faults, seq, s);
        EXPECT_EQ(e.status, h.status)
            << name << " " << to_cstring(s) << " seed " << seed;
        EXPECT_EQ(e.detect_frame, h.detect_frame)
            << name << " " << to_cstring(s) << " seed " << seed;
        EXPECT_EQ(e.detected_count, h.detected_count);
      }
    }
  }
}

TEST(ExplicitState, FlipFlopStemAndDPinFaults) {
  const Netlist nl = make_s27();
  std::vector<Fault> faults;
  for (const NodeIndex dff : nl.dffs()) {
    for (const bool v : {false, true}) {
      faults.push_back(Fault{FaultSite{dff, kStemPin}, v});  // stuck Q
      faults.push_back(Fault{FaultSite{dff, 0}, v});         // stuck D pin
    }
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const TestSequence seq = random_sequence(nl, 12, rng);
    for (const Strategy s : kStrategies) {
      const HybridResult e = run_explicit(nl, faults, seq, s);
      const HybridResult h = run_hybrid(nl, faults, seq, s);
      EXPECT_EQ(e.status, h.status) << to_cstring(s) << " seed " << seed;
      EXPECT_EQ(e.detect_frame, h.detect_frame);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        EXPECT_EQ(is_detected(e.status[i]),
                  reference_detectable(nl, faults[i], seq, s))
            << to_cstring(s) << " " << fault_name(nl, faults[i]);
      }
    }
  }
}

TEST(ExplicitState, RejectsLargeCircuitsAndXInputs) {
  const Netlist big = make_benchmark("s713");
  ASSERT_GT(big.dff_count(), ExplicitStateSim::kMaxDffs);
  EXPECT_THROW(ExplicitStateSim(std::make_shared<const LevelizedCircuit>(big),
                                {}),
               std::invalid_argument);
  const Netlist nl = make_s27();
  ExplicitStateSim sim(std::make_shared<const LevelizedCircuit>(nl),
                       CollapsedFaultList(nl).faults());
  TestSequence seq(2, std::vector<Val3>(nl.input_count(), Val3::Zero));
  seq[1][0] = Val3::X;
  EXPECT_THROW((void)sim.run(seq), std::invalid_argument);
}

TEST(ExplicitState, PipelineIgnoresTheThreadCount) {
  for (const char* name : {"s27", "s208.1"}) {
    const Netlist nl = make_benchmark(name);
    const std::vector<Fault> faults = CollapsedFaultList(nl).faults();
    Rng rng(31);
    const TestSequence seq = random_sequence(nl, 40, rng);
    SimOptions serial;
    serial.strategy = Strategy::Mot;
    const PipelineResult r1 = run_pipeline(nl, faults, seq, serial);
    ASSERT_TRUE(r1.explicit_state) << name;
    for (const std::size_t threads : {0u, 4u}) {
      SimOptions sharded = serial;
      sharded.threads = threads;
      const PipelineResult rn = run_pipeline(nl, faults, seq, sharded);
      EXPECT_TRUE(rn.explicit_state) << name << " @" << threads;
      EXPECT_EQ(rn.status, r1.status) << name << " @" << threads;
      EXPECT_EQ(rn.detect_frame, r1.detect_frame) << name << " @" << threads;
      EXPECT_EQ(rn.detected_symbolic, r1.detected_symbolic);
    }
  }
}

struct Recorder final : CheckpointSink {
  std::vector<ChunkCheckpoint> records;
  void on_checkpoint(const ChunkCheckpoint& ck) override {
    records.push_back(ck);
  }
};

TEST(ExplicitState, CheckpointedRunsStayOnTheHybrid) {
  const Netlist nl = make_s27();
  const std::vector<Fault> faults = CollapsedFaultList(nl).faults();
  Rng rng(7);
  const TestSequence seq = random_sequence(nl, 64, rng);
  SimOptions opts;
  opts.strategy = Strategy::Mot;
  const PipelineResult plain = run_pipeline(nl, faults, seq, opts);
  EXPECT_TRUE(plain.explicit_state);

  opts.checkpoint_interval = 8;
  Recorder full;
  const PipelineResult checkpointed =
      run_pipeline(nl, faults, seq, opts, nullptr, &full);
  EXPECT_FALSE(checkpointed.explicit_state);
  ASSERT_GE(full.records.size(), 2u);
  ASSERT_TRUE(full.records.back().complete);
  EXPECT_EQ(checkpointed.status, plain.status);
  EXPECT_EQ(checkpointed.detect_frame, plain.detect_frame);

  // Kill after the first snapshot, resume from it: the resumed run's
  // final snapshot equals the uninterrupted run's.
  HybridFaultSim resumed(nl, faults, opts);
  Recorder tail;
  resumed.set_checkpoint_sink(&tail);
  resumed.set_resume(full.records.front());
  const HybridResult r = resumed.run(seq);
  ASSERT_FALSE(tail.records.empty());
  EXPECT_EQ(tail.records.back().status, full.records.back().status);
  EXPECT_EQ(tail.records.back().detect_frame,
            full.records.back().detect_frame);
  EXPECT_EQ(r.status, full.records.back().status);
}

}  // namespace
}  // namespace motsim
