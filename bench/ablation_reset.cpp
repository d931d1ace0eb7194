// Ablation: design-for-test reset versus the MOT strategy.
//
// The paper's introduction frames MOT as the alternative to hardware
// fixes: "an improvement of the accuracy either requires ... circuit
// modifications ... to permit setting the circuit into a known initial
// state". This harness quantifies both sides on the X01-blind
// circuits: (a) the original machine under X01 and under MOT, and
// (b) the machine with an inserted synchronous reset
// (circuit/transform.h) under plain X01, driving reset high on the
// first vector.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "circuit/transform.h"
#include "core/hybrid_sim.h"
#include "faults/collapse.h"
#include "sim3/fault_sim3.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/table_printer.h"

using namespace motsim;

int main() {
  bench::print_preamble("Ablation", "inserted reset vs the MOT strategy");

  TablePrinter table({"Circ.", "|F|", "X01", "MOT", "|F|+rst",
                      "X01+rst", "extra gates"});

  for (const char* name : {"s208.1", "s420.1", "s510"}) {
    const BenchmarkInfo* info = find_benchmark(name);
    if (info == nullptr) continue;
    const Netlist nl = make_benchmark(*info);
    const Netlist rst = with_synchronous_reset(nl);

    const CollapsedFaultList faults(nl);
    const CollapsedFaultList rst_faults(rst);
    Rng rng(bench::workload_seed());
    const TestSequence seq =
        random_sequence(nl, bench::vector_count() / 2, rng);

    // Original machine: X01 and MOT.
    FaultSim3 x01(nl, faults.faults());
    const auto r_x01 = x01.run(seq);
    SimOptions cfg;
    cfg.strategy = Strategy::Mot;
    HybridFaultSim mot(nl, faults.faults(), cfg);
    const auto r_mot = mot.run(seq);

    // Reset machine: assert reset on vector 1, deassert afterwards.
    TestSequence rst_seq;
    for (std::size_t t = 0; t < seq.size(); ++t) {
      std::vector<Val3> vec = seq[t];
      vec.push_back(t == 0 ? Val3::One : Val3::Zero);
      rst_seq.push_back(std::move(vec));
    }
    FaultSim3 x01_rst(rst, rst_faults.faults());
    const auto r_rst = x01_rst.run(rst_seq);

    table.add_row({name, std::to_string(faults.size()),
                   std::to_string(r_x01.detected_count),
                   std::to_string(r_mot.detected_count),
                   std::to_string(rst_faults.size()),
                   std::to_string(r_rst.detected_count),
                   std::to_string(rst.gate_count() - nl.gate_count())});
  }

  table.print(std::cout);
  std::printf("\nexpected shape: X01 near zero on the originals; both the "
              "reset (hardware cost)\nand MOT (CPU cost) recover large "
              "coverage — the paper's central trade-off.\n");
  return 0;
}
