// The end-user pipeline API (core/pipeline.h) and the coverage report.

#include <gtest/gtest.h>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "faults/report.h"
#include "sim3/fault_sim3.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

TEST(Pipeline, StagesComposeOnS27) {
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  Rng rng(1);
  const TestSequence seq = random_sequence(nl, 64, rng);

  const PipelineResult r = run_pipeline(nl, faults.faults(), seq);
  EXPECT_EQ(r.status.size(), faults.size());
  EXPECT_GT(r.detected_3v, 0u);
  const CoverageSummary s = r.summary();
  EXPECT_EQ(s.total, faults.size());
  EXPECT_EQ(s.detected_3v, r.detected_3v);
  EXPECT_EQ(s.detected_total(), r.detected_3v + r.detected_symbolic);
  EXPECT_GT(s.coverage(), 0.5);
  EXPECT_LE(s.coverage(), 1.0);
}

TEST(Pipeline, ParallelAndSerialAgree) {
  const Netlist nl = make_benchmark("s344");
  const CollapsedFaultList faults(nl);
  Rng rng(2);
  const TestSequence seq = random_sequence(nl, 50, rng);

  SimOptions serial_cfg;
  serial_cfg.run_symbolic = false;
  serial_cfg.sim3_backend = Sim3Backend::Event;
  SimOptions parallel_cfg = serial_cfg;
  parallel_cfg.sim3_backend = Sim3Backend::BitPar;

  const PipelineResult rs = run_pipeline(nl, faults.faults(), seq, serial_cfg);
  const PipelineResult rp =
      run_pipeline(nl, faults.faults(), seq, parallel_cfg);
  EXPECT_EQ(rs.status, rp.status);
  EXPECT_EQ(rs.detected_3v, rp.detected_3v);
}

TEST(Pipeline, NoXredStillDetectsTheSameFaults) {
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  Rng rng(3);
  const TestSequence seq = random_sequence(nl, 50, rng);

  SimOptions with;
  with.run_symbolic = false;
  SimOptions without = with;
  without.run_xred = false;

  const PipelineResult ra = run_pipeline(nl, faults.faults(), seq, with);
  const PipelineResult rb = run_pipeline(nl, faults.faults(), seq, without);
  EXPECT_EQ(ra.detected_3v, rb.detected_3v);
  EXPECT_EQ(rb.x_redundant, 0u);
}

TEST(Pipeline, SymbolicStageAddsOnCounter) {
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList faults(nl);
  Rng rng(4);
  const TestSequence seq = random_sequence(nl, 80, rng);

  SimOptions cfg;
  cfg.strategy = Strategy::Mot;
  const PipelineResult r = run_pipeline(nl, faults.faults(), seq, cfg);
  EXPECT_GT(r.detected_symbolic, 0u);
  // Symbolic detections show up with the MOT status in the merged
  // vector.
  const CoverageSummary s = r.summary();
  EXPECT_EQ(s.detected_mot, r.detected_symbolic);
}

TEST(Pipeline, StrategyMonotonicity) {
  const Netlist nl = make_benchmark("s510");
  const CollapsedFaultList faults(nl);
  Rng rng(5);
  const TestSequence seq = random_sequence(nl, 60, rng);

  std::size_t detected[3];
  int k = 0;
  for (Strategy st : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    SimOptions cfg;
    cfg.strategy = st;
    detected[k++] =
        run_pipeline(nl, faults.faults(), seq, cfg).summary().detected_total();
  }
  EXPECT_LE(detected[0], detected[1]);
  EXPECT_LE(detected[1], detected[2]);
}

TEST(Pipeline, XInputsSkipTheSymbolicStageGracefully) {
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  TestSequence seq = sequence_from_strings({"1X10", "0101", "X111"});
  const PipelineResult r = run_pipeline(nl, faults.faults(), seq);
  EXPECT_TRUE(r.symbolic_skipped_x_inputs);
  EXPECT_EQ(r.detected_symbolic, 0u);
  EXPECT_GT(r.detected_3v + r.summary().undetected + r.x_redundant, 0u);
}

// ---------------------------------------------------------------------------
// PipelineResult::detect_frame
// ---------------------------------------------------------------------------

TEST(Pipeline, DetectFrameCoversEveryDetectedFault) {
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  Rng rng(6);
  const TestSequence seq = random_sequence(nl, 50, rng);

  SimOptions cfg;
  cfg.strategy = Strategy::Mot;
  const PipelineResult r = run_pipeline(nl, faults.faults(), seq, cfg);
  ASSERT_EQ(r.detect_frame.size(), faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (is_detected(r.status[i])) {
      EXPECT_GT(r.detect_frame[i], 0u) << "fault " << i;
      EXPECT_LE(r.detect_frame[i], seq.size()) << "fault " << i;
    } else {
      EXPECT_EQ(r.detect_frame[i], 0u) << "fault " << i;
    }
  }
}

TEST(Pipeline, DetectFrameMatchesDirectThreeValuedRun) {
  // With the symbolic stage off, the pipeline's frames are exactly the
  // X01 stage's frames.
  const Netlist nl = make_benchmark("s344");
  const CollapsedFaultList faults(nl);
  Rng rng(7);
  const TestSequence seq = random_sequence(nl, 40, rng);

  SimOptions cfg;
  cfg.run_xred = false;
  cfg.run_symbolic = false;
  const PipelineResult r = run_pipeline(nl, faults.faults(), seq, cfg);

  FaultSim3 direct(nl, faults.faults());
  const FaultSim3Result d = direct.run(seq);
  EXPECT_EQ(r.detect_frame, d.detect_frame);
}

TEST(Pipeline, DetectFrameIsThreadCountInvariant) {
  // More than 8 flip-flops, so threads = 4 runs ParallelSymSim rather
  // than the serial explicit-state engine; no window opens, so the
  // sharded run must equal the serial one.
  const Netlist nl = make_benchmark("s382");
  const CollapsedFaultList faults(nl);
  Rng rng(8);
  const TestSequence seq = random_sequence(nl, 60, rng);

  SimOptions serial;
  serial.strategy = Strategy::Mot;
  SimOptions sharded = serial;
  sharded.threads = 4;
  const PipelineResult r1 = run_pipeline(nl, faults.faults(), seq, serial);
  const PipelineResult r4 = run_pipeline(nl, faults.faults(), seq, sharded);
  ASSERT_FALSE(r4.explicit_state);
  ASSERT_FALSE(r1.used_fallback);
  EXPECT_EQ(r1.status, r4.status);
  EXPECT_EQ(r1.detect_frame, r4.detect_frame);
}

// ---------------------------------------------------------------------------
// CoverageSummary
// ---------------------------------------------------------------------------

TEST(CoverageSummary, CountsEveryClass) {
  const std::vector<FaultStatus> status{
      FaultStatus::Undetected,   FaultStatus::XRedundant,
      FaultStatus::DetectedSim3, FaultStatus::DetectedSim3,
      FaultStatus::DetectedSot,  FaultStatus::DetectedRmot,
      FaultStatus::DetectedMot};
  const CoverageSummary s = CoverageSummary::from_status(status);
  EXPECT_EQ(s.total, 7u);
  EXPECT_EQ(s.undetected, 1u);
  EXPECT_EQ(s.x_redundant, 1u);
  EXPECT_EQ(s.detected_3v, 2u);
  EXPECT_EQ(s.detected_sot, 1u);
  EXPECT_EQ(s.detected_rmot, 1u);
  EXPECT_EQ(s.detected_mot, 1u);
  EXPECT_EQ(s.detected_total(), 5u);
  EXPECT_NEAR(s.coverage(), 5.0 / 7.0, 1e-12);
}

TEST(CoverageSummary, EmptyIsZero) {
  const CoverageSummary s = CoverageSummary::from_status({});
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.coverage(), 0.0);
}

TEST(CoverageSummary, ToStringMentionsCoverage) {
  CoverageSummary s;
  s.total = 4;
  s.detected_3v = 2;
  s.undetected = 2;
  const std::string text = s.to_string();
  EXPECT_NE(text.find("50.00%"), std::string::npos);
  EXPECT_NE(text.find("X01"), std::string::npos);
}

TEST(CoverageSummary, JsonIsWellFormedAndConsistent) {
  CoverageSummary s;
  s.total = 10;
  s.detected_3v = 4;
  s.detected_mot = 2;
  s.x_redundant = 1;
  s.undetected = 3;
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"total\":10"), std::string::npos);
  EXPECT_NE(json.find("\"detected_3v\":4"), std::string::npos);
  EXPECT_NE(json.find("\"detected_mot\":2"), std::string::npos);
  EXPECT_NE(json.find("\"coverage\":0.6"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(FaultsWithStatus, FiltersAndFormats) {
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  std::vector<FaultStatus> status(faults.size(), FaultStatus::Undetected);
  status[0] = FaultStatus::DetectedSim3;
  const auto undetected = faults_with_status(
      nl, faults.faults(), status, FaultStatus::Undetected);
  EXPECT_EQ(undetected.size(), faults.size() - 1);
  const auto detected = faults_with_status(nl, faults.faults(), status,
                                           FaultStatus::DetectedSim3);
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(detected[0], fault_name(nl, faults.faults()[0]));
}

}  // namespace
}  // namespace motsim
