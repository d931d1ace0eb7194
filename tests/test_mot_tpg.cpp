// MOT-guided test generation (tpg/mot_tpg.h).

#include <gtest/gtest.h>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "core/hybrid_sim.h"
#include "faults/collapse.h"
#include "sim3/fault_sim3.h"
#include "tpg/compaction.h"
#include "tpg/mot_tpg.h"

namespace motsim {
namespace {

MotTpgConfig small_config(Strategy s, std::uint64_t seed) {
  MotTpgConfig cfg;
  cfg.strategy = s;
  cfg.segment_length = 6;
  cfg.candidates_per_round = 3;
  cfg.stale_rounds = 2;
  cfg.max_length = 48;
  cfg.seed = seed;
  return cfg;
}

TEST(MotTpg, DeterministicForSameSeed) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  const auto cfg = small_config(Strategy::Mot, 5);
  const MotTpgResult a = generate_mot_sequence(nl, c.faults(), cfg);
  const MotTpgResult b = generate_mot_sequence(nl, c.faults(), cfg);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.detected, b.detected);
}

TEST(MotTpg, ReportedScoreMatchesReplay) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  const MotTpgResult r =
      generate_mot_sequence(nl, c.faults(), small_config(Strategy::Mot, 7));
  ASSERT_FALSE(r.sequence.empty());

  SimOptions hc;
  hc.strategy = Strategy::Mot;
  HybridFaultSim sim(nl, c.faults(), hc);
  const HybridResult replay = sim.run(r.sequence);
  EXPECT_EQ(replay.detected_count, r.detected);
}

TEST(MotTpg, CoversThreeValuedInvisibleFaults) {
  // On the counter, X01 detects (almost) nothing; the MOT-guided
  // generator must still accept segments and build real coverage —
  // while a generator guided by three-valued detections stalls.
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList c(nl);

  const MotTpgResult mot =
      generate_mot_sequence(nl, c.faults(), small_config(Strategy::Mot, 11));
  EXPECT_GT(mot.detected, 10u);

  CompactionConfig comp;
  comp.seed = 11;
  comp.segment_length = 6;
  comp.stale_rounds = 2;
  const CompactionResult x01 =
      generate_deterministic_sequence(nl, c.faults(), comp);
  EXPECT_LT(x01.detected_faults, 3u)
      << "three-valued guidance should stall on the counter";
  EXPECT_GT(mot.detected, x01.detected_faults);
}

TEST(MotTpg, StatusVectorIsConsistent) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  const MotTpgResult r =
      generate_mot_sequence(nl, c.faults(), small_config(Strategy::Rmot, 3));
  ASSERT_EQ(r.status.size(), c.size());
  std::size_t detected = 0;
  for (FaultStatus s : r.status) detected += is_detected(s);
  EXPECT_EQ(detected, r.detected);
}

TEST(MotTpg, RespectsMaxLength) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  MotTpgConfig cfg = small_config(Strategy::Mot, 13);
  cfg.max_length = 12;
  const MotTpgResult r = generate_mot_sequence(nl, c.faults(), cfg);
  EXPECT_LE(r.sequence.size(), 12u + cfg.segment_length);
}

TEST(MotTpg, EmptyFaultListYieldsEmptySequence) {
  const Netlist nl = make_s27();
  const MotTpgResult r =
      generate_mot_sequence(nl, {}, small_config(Strategy::Mot, 1));
  EXPECT_TRUE(r.sequence.empty());
  EXPECT_EQ(r.detected, 0u);
}

}  // namespace
}  // namespace motsim
