// End-to-end pipeline: ID_X-red -> three-valued simulation -> symbolic
// strategies, on the benchmark roster's small and medium circuits,
// checking cross-stage consistency and the paper's qualitative claims.

#include <gtest/gtest.h>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "core/hybrid_sim.h"
#include "core/sym_fault_sim.h"
#include "core/xred.h"
#include "faults/collapse.h"
#include "sim3/fault_sim3.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

struct PipelineResult {
  std::size_t faults = 0;
  std::size_t xred = 0;
  std::size_t fd = 0;  ///< three-valued detections
  std::size_t sot = 0, rmot = 0, mot = 0;  ///< symbolic additions
};

PipelineResult run_pipeline(const Netlist& nl, const TestSequence& seq) {
  PipelineResult out;
  const CollapsedFaultList c(nl);
  out.faults = c.size();

  const XRedResult xr = run_id_x_red(nl, seq);
  out.xred = xr.count_x_redundant(c.faults());

  FaultSim3 sim3(nl, c.faults());
  sim3.set_initial_status(xr.classify(c.faults()));
  const auto r3 = sim3.run(seq);
  out.fd = r3.detected_count;

  std::vector<FaultStatus> leftover = r3.status;
  for (auto& s : leftover) {
    if (s == FaultStatus::XRedundant) s = FaultStatus::Undetected;
  }
  for (Strategy strategy :
       {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    SimOptions cfg;
    cfg.strategy = strategy;
    cfg.node_limit = 30000;
    HybridFaultSim sym(nl, c.faults(), cfg);
    sym.set_initial_status(leftover);
    const auto r = sym.run(seq);
    if (strategy == Strategy::Sot) out.sot = r.detected_count;
    if (strategy == Strategy::Rmot) out.rmot = r.detected_count;
    if (strategy == Strategy::Mot) out.mot = r.detected_count;
  }
  return out;
}

TEST(Integration, S27FullPipeline) {
  const Netlist nl = make_s27();
  Rng rng(2024);
  const auto r = run_pipeline(nl, random_sequence(nl, 64, rng));
  EXPECT_GT(r.fd, r.faults / 2) << "s27 should be mostly testable";
  EXPECT_LE(r.sot, r.rmot);
  EXPECT_LE(r.rmot, r.mot);
  EXPECT_LE(r.fd + r.mot + r.xred, r.faults + r.xred);
}

TEST(Integration, StrategyHierarchyAcrossRoster) {
  Rng rng(7);
  for (const char* name : {"s27", "s208.1", "s298", "s344", "s386"}) {
    const Netlist nl = make_benchmark(name);
    const auto r = run_pipeline(nl, random_sequence(nl, 60, rng));
    EXPECT_LE(r.sot, r.rmot) << name;
    EXPECT_LE(r.rmot, r.mot) << name;
    EXPECT_LE(r.fd + r.mot, r.faults) << name;
  }
}

TEST(Integration, CounterPhenomenon) {
  // The paper's s208.1 row: three-valued simulation detects (almost)
  // nothing; full MOT recovers a large set rMOT cannot.
  const Netlist nl = make_benchmark("s208.1");
  Rng rng(11);
  const auto r = run_pipeline(nl, random_sequence(nl, 100, rng));
  EXPECT_LT(r.fd, r.faults / 10);
  EXPECT_GT(r.mot, r.rmot);
  EXPECT_GT(r.mot, 10u);
}

TEST(Integration, TwinPathsPhenomenon) {
  // The paper's s510 row: X01 detects nothing (all faults are
  // X-redundant) yet symbolic SOT already detects plenty, and the MOT
  // family detects more.
  const Netlist nl = make_benchmark("s510");
  Rng rng(13);
  const auto r = run_pipeline(nl, random_sequence(nl, 100, rng));
  EXPECT_EQ(r.fd, 0u);
  // Nearly everything is X-redundant (the paper's s510 row: all 564);
  // the sufficient condition may leave a small remainder unflagged.
  EXPECT_GT(r.xred, (9 * r.faults) / 10);
  EXPECT_GT(r.sot, 0u);
  EXPECT_GE(r.rmot, r.sot);
}

TEST(Integration, ControllerPhenomenon) {
  // Synchronizable circuits: three-valued simulation does the heavy
  // lifting, the symbolic strategies add only a trickle (s298 row).
  const Netlist nl = make_benchmark("s298");
  Rng rng(17);
  const auto r = run_pipeline(nl, random_sequence(nl, 100, rng));
  EXPECT_GT(r.fd, r.faults / 3);
  EXPECT_LT(r.mot, r.faults / 5);
}

TEST(Integration, XredAgreesWithSim3OnRoster) {
  // No fault flagged X-redundant is detected three-valued, on real
  // roster circuits (larger than the property-test circuits).
  Rng rng(23);
  for (const char* name : {"s298", "s344", "s400"}) {
    const Netlist nl = make_benchmark(name);
    const TestSequence seq = random_sequence(nl, 50, rng);
    const CollapsedFaultList c(nl);
    const XRedResult xr = run_id_x_red(nl, seq);
    FaultSim3 sim(nl, c.faults());
    const auto r = sim.run(seq);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (xr.is_x_redundant(c.faults()[i])) {
        EXPECT_NE(r.status[i], FaultStatus::DetectedSim3)
            << name << " " << fault_name(nl, c.faults()[i]);
      }
    }
  }
}

TEST(Integration, DetectFramesAreWithinSequence) {
  const Netlist nl = make_benchmark("s344");
  Rng rng(29);
  const TestSequence seq = random_sequence(nl, 40, rng);
  const CollapsedFaultList c(nl);
  SimOptions cfg;
  cfg.strategy = Strategy::Mot;
  HybridFaultSim sim(nl, c.faults(), cfg);
  const auto r = sim.run(seq);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (is_detected(r.status[i])) {
      EXPECT_GE(r.detect_frame[i], 1u);
      EXPECT_LE(r.detect_frame[i], seq.size());
    } else {
      EXPECT_EQ(r.detect_frame[i], 0u);
    }
  }
}

}  // namespace
}  // namespace motsim
