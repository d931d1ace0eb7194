// Ablation: interleaved versus blocked x/y variable order for the
// full MOT strategy.
//
// DESIGN.md §5 calls out the interleaved order (x_0,y_0,x_1,y_1,...)
// as a key design decision: the MOT detection function is a product of
// near-equality relations [o(x,t) == o^f(y,t)], whose OBDDs stay
// linear in the number of memory elements when the two variable copies
// are interleaved — and can grow exponentially when they are separated
// into blocks. The harness runs MOT with both layouts and compares
// peak node counts, fallback behaviour and wall time.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/hybrid_sim.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace motsim;

int main() {
  bench::print_preamble("Ablation",
                        "interleaved vs blocked x/y order for MOT");

  TablePrinter table({"Circ.", "layout", "detected", "peak-nodes",
                      "fallbacks", "time[s]"});

  for (const char* name : {"s208.1", "s420.1", "s298", "s344", "s510"}) {
    const BenchmarkInfo* info = find_benchmark(name);
    if (info == nullptr) continue;

    const Netlist nl = make_benchmark(*info);
    const CollapsedFaultList faults(nl);
    Rng rng(bench::workload_seed());
    const TestSequence seq =
        random_sequence(nl, bench::vector_count() / 2, rng);

    for (VarLayout layout : {VarLayout::Interleaved, VarLayout::Blocked}) {
      SimOptions cfg;
      cfg.strategy = Strategy::Mot;
      cfg.layout = layout;
      cfg.node_limit = 30000;
      HybridFaultSim sim(nl, faults.faults(), cfg);
      Stopwatch timer;
      const auto r = sim.run(seq);
      table.add_row(
          {name,
           layout == VarLayout::Interleaved ? "interleaved" : "blocked",
           std::to_string(r.detected_count),
           std::to_string(r.peak_live_nodes),
           std::to_string(r.fallback_windows),
           format_fixed(timer.elapsed_seconds(), 3)});
    }
  }

  table.print(std::cout);
  std::printf(
      "\nexpected shape: where the detection functions carry x~y "
      "equality structure\n(s298/s344-style controllers) the blocked "
      "layout costs noticeably more nodes;\non fallback-dominated runs "
      "the picture blurs. Detected counts must match:\nthe layout is a "
      "space/time knob, never a semantics knob.\n");
  return 0;
}
