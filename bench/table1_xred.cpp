// Table I of the paper: influence of ID_X-red on the run time of
// three-valued fault simulation, for random test sequences of length
// 200.
//
// Columns (ours / paper): |F| collapsed faults, X-red. faults flagged
// by ID_X-red, |F_d| faults detected three-valued, X01 run time
// without elimination, X01_p run time with elimination, and the
// ID_X-red run time itself. The paper's headline: on average 38% of
// the faults are X-redundant and eliminating them speeds X01 up
// considerably while ID_X-red itself is negligible.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/xred.h"
#include "faults/collapse.h"
#include "sim3/fault_simulator.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace motsim;

int main() {
  bench::print_preamble("Table I",
                        "ID_X-red impact on three-valued fault simulation");

  TablePrinter table({"Circ.", "|F|", "F(pap)", "X-red", "Xr(pap)", "|F_d|",
                      "Fd(pap)", "X01[s]", "X01p[s]", "IDX[s]", "speedup",
                      "pap.spd"});

  double sum_x01 = 0, sum_x01p = 0, sum_idx = 0;
  for (const BenchmarkInfo& info : benchmark_roster()) {
    if (!bench::include_circuit(info, /*quick_gate_cutoff=*/3000)) continue;

    const Netlist nl = make_benchmark(info);
    const CollapsedFaultList collapsed(nl);
    Rng rng(bench::workload_seed() + info.spec.seed);
    const TestSequence seq =
        random_sequence(nl, bench::vector_count(), rng);

    Stopwatch t_idx;
    const XRedResult xr = run_id_x_red(nl, seq);
    const double idx_s = t_idx.elapsed_seconds();
    const std::size_t xred = xr.count_x_redundant(collapsed.faults());

    // The process-wide backend (MOTSIM_SIM3_BACKEND selects the other
    // one; results are identical, the cost model differs).
    const Sim3Backend backend = default_sim3_backend();
    auto simulate = [&](bool pruned_run) {
      std::vector<FaultStatus> init(
          collapsed.size(), FaultStatus::Undetected);
      if (pruned_run) init = xr.classify(collapsed.faults());
      const auto sim = make_fault_simulator3(backend, nl, collapsed.faults());
      sim->set_initial_status(init);
      return sim->run(seq);
    };
    Stopwatch t_x01;
    const auto full = simulate(false);
    const double x01_s = t_x01.elapsed_seconds();

    Stopwatch t_x01p;
    const auto fast = simulate(true);
    const double x01p_s = t_x01p.elapsed_seconds();

    sum_x01 += x01_s;
    sum_x01p += x01p_s;
    sum_idx += idx_s;

    const double speedup = x01p_s > 0 ? x01_s / x01p_s : 0.0;
    const double paper_speedup =
        (info.t1.x01 > 0 && info.t1.x01p > 0) ? info.t1.x01 / info.t1.x01p
                                              : -1.0;
    table.add_row({info.spec.name, std::to_string(collapsed.size()),
                   bench::ref_int(info.t1.faults), std::to_string(xred),
                   bench::ref_int(info.t1.xred),
                   std::to_string(fast.detected_count),
                   bench::ref_int(info.t1.fd), format_fixed(x01_s, 3),
                   format_fixed(x01p_s, 3), format_fixed(idx_s, 3),
                   format_fixed(speedup, 2) + "x",
                   paper_speedup < 0 ? "-"
                                     : format_fixed(paper_speedup, 2) + "x"});

    // Cross-check Table I's implicit invariant: pruning never changes
    // the detected set.
    if (full.detected_count != fast.detected_count) {
      std::fprintf(stderr, "INVARIANT VIOLATION on %s: X01=%zu X01p=%zu\n",
                   info.spec.name.c_str(), full.detected_count,
                   fast.detected_count);
      return 1;
    }
  }

  table.print(std::cout);
  std::printf("\ntotals: X01 %.3f s, X01_p %.3f s, ID_X-red %.3f s "
              "(overall speedup %.2fx including ID_X-red itself)\n",
              sum_x01, sum_x01p, sum_idx,
              sum_x01 / (sum_x01p + sum_idx));
  return 0;
}
