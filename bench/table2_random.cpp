// Table II of the paper: comparison of the SOT, rMOT and MOT
// strategies for random test sequences of length 200 (space limit
// 30,000 OBDD nodes).
//
// Following the paper's protocol, the symbolic strategies only see the
// faults that the three-valued fault simulation could NOT classify as
// detected (|F_u| = |F| - |F_d|; this includes the X-redundant
// faults). A '*' marks results where the hybrid simulator had to fall
// back to three-valued windows.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "core/hybrid_sim.h"
#include "core/xred.h"
#include "faults/collapse.h"
#include "sim3/fault_sim3.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace motsim;

int main() {
  bench::print_preamble("Table II", "SOT vs rMOT vs MOT, random sequences");

  TablePrinter table({"Circ.", "|F|", "|F_u|", "Fu(pap)",
                      "SOT", "S(pap)", "rMOT", "r(pap)", "MOT", "M(pap)",
                      "tS[s]", "tr[s]", "tM[s]"});

  std::size_t sum_sot = 0, sum_rmot = 0, sum_mot = 0;
  double time_sot = 0, time_rmot = 0, time_mot = 0;

  for (const BenchmarkInfo& info : benchmark_roster()) {
    if (!info.in_table2) continue;
    if (!bench::include_circuit(info, /*quick_gate_cutoff=*/700)) continue;

    const Netlist nl = make_benchmark(info);
    const CollapsedFaultList collapsed(nl);
    Rng rng(bench::workload_seed() + info.spec.seed);
    const TestSequence seq =
        random_sequence(nl, bench::vector_count(), rng);

    // Stage 1+2: ID_X-red and three-valued simulation define F_u.
    const XRedResult xr = run_id_x_red(nl, seq);
    FaultSim3 sim3(nl, collapsed.faults());
    sim3.set_initial_status(xr.classify(collapsed.faults()));
    const auto r3 = sim3.run(seq);

    std::vector<FaultStatus> leftover = r3.status;
    std::size_t fu = 0;
    for (auto& s : leftover) {
      if (s == FaultStatus::XRedundant) s = FaultStatus::Undetected;
      if (s == FaultStatus::Undetected) ++fu;
    }

    // Stage 3: the three strategies on F_u with the paper's limit.
    std::size_t det[3] = {0, 0, 0};
    bool star[3] = {false, false, false};
    double secs[3] = {0, 0, 0};
    const Strategy strategies[3] = {Strategy::Sot, Strategy::Rmot,
                                    Strategy::Mot};
    for (int k = 0; k < 3; ++k) {
      SimOptions cfg;
      cfg.strategy = strategies[k];
      cfg.node_limit = 30000;
      HybridFaultSim sym(nl, collapsed.faults(), cfg);
      sym.set_initial_status(leftover);
      Stopwatch timer;
      const auto r = sym.run(seq);
      secs[k] = timer.elapsed_seconds();
      det[k] = r.detected_count;
      star[k] = r.used_fallback;
    }

    sum_sot += det[0];
    sum_rmot += det[1];
    sum_mot += det[2];
    time_sot += secs[0];
    time_rmot += secs[1];
    time_mot += secs[2];

    table.add_row(
        {info.spec.name, std::to_string(collapsed.size()),
         std::to_string(fu), bench::ref_int(info.t2.fu),
         bench::starred(det[0], star[0]),
         (info.t2.sot_star ? "*" : "") + bench::ref_int(info.t2.sot),
         bench::starred(det[1], star[1]),
         (info.t2.rmot_star ? "*" : "") + bench::ref_int(info.t2.rmot),
         bench::starred(det[2], star[2]),
         (info.t2.mot_star ? "*" : "") + bench::ref_int(info.t2.mot),
         format_fixed(secs[0], 2), format_fixed(secs[1], 2),
         format_fixed(secs[2], 2)});
  }

  table.add_separator();
  table.add_row({"SUM", "", "", "", std::to_string(sum_sot), "",
                 std::to_string(sum_rmot), "", std::to_string(sum_mot), "",
                 format_fixed(time_sot, 2), format_fixed(time_rmot, 2),
                 format_fixed(time_mot, 2)});
  table.print(std::cout);
  std::printf("\npaper sums: SOT 944, rMOT 1082, MOT 1263 detected "
              "(3441 / 3618 / 3957 s on a SPARC-10)\n");
  std::printf("expected shape: SOT <= rMOT <= MOT detections; "
              "MOT slowest.\n");
  return 0;
}
