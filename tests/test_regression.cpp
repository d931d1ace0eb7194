// Pinned end-to-end numbers ("golden" regressions): the full pipeline
// on fixed circuits, sequences and seeds must keep producing exactly
// these classifications. Everything in the stack is deterministic —
// the RNG, the generator, the simulators — so any change here is a
// behavioural change that needs a conscious decision (and an update of
// EXPERIMENTS.md if it shifts the reported shapes).

#include <gtest/gtest.h>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

struct Golden {
  const char* circuit;
  Strategy strategy;
  std::size_t faults;
  std::size_t x_redundant;
  std::size_t detected_3v;
  std::size_t detected_symbolic;
};

PipelineResult run_fixed(const char* name, Strategy strategy) {
  const Netlist nl =
      std::string(name) == "s27" ? make_s27() : make_benchmark(name);
  const CollapsedFaultList faults(nl);
  Rng rng(20260707);  // fixed workload seed
  const TestSequence seq = random_sequence(nl, 80, rng);
  SimOptions cfg;
  cfg.strategy = strategy;
  cfg.node_limit = 30000;
  return run_pipeline(nl, faults.faults(), seq, cfg);
}

TEST(Regression, PinnedPipelineNumbers) {
  // Record-once values; regenerate deliberately via
  //   MOTSIM_PRINT_GOLDEN=1 build/tests/test_regression
  const Golden goldens[] = {
      {"s27", Strategy::Mot, 26, 5, 16, 2},
      {"s208.1", Strategy::Mot, 200, 187, 1, 86},
      {"s298", Strategy::Rmot, 228, 6, 167, 1},
      {"s510", Strategy::Sot, 466, 466, 0, 150},
  };

  const bool print = std::getenv("MOTSIM_PRINT_GOLDEN") != nullptr;
  for (const Golden& g : goldens) {
    const PipelineResult r = run_fixed(g.circuit, g.strategy);
    const CoverageSummary s = r.summary();
    if (print) {
      std::printf("{\"%s\", Strategy::%s, %zu, %zu, %zu, %zu},\n",
                  g.circuit,
                  g.strategy == Strategy::Sot
                      ? "Sot"
                      : (g.strategy == Strategy::Rmot ? "Rmot" : "Mot"),
                  s.total, r.x_redundant, r.detected_3v,
                  r.detected_symbolic);
      continue;
    }
    EXPECT_EQ(s.total, g.faults) << g.circuit;
    EXPECT_EQ(r.x_redundant, g.x_redundant) << g.circuit;
    EXPECT_EQ(r.detected_3v, g.detected_3v) << g.circuit;
    EXPECT_EQ(r.detected_symbolic, g.detected_symbolic) << g.circuit;
  }
}

}  // namespace
}  // namespace motsim
