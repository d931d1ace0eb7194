#ifndef MOTSIM_MOTSIM_H
#define MOTSIM_MOTSIM_H

/// Umbrella header: pulls in the whole public API. Fine for
/// applications and experiments; library-internal code includes the
/// specific module headers instead.
///
/// Substrates ------------------------------------------------------------
#include "analysis/diagnostics.h"
#include "analysis/implication.h"
#include "analysis/lint.h"
#include "analysis/static_xred.h"
#include "analysis/testability.h"
#include "bdd/bdd.h"
#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "bench_data/synth_gen.h"
#include "circuit/bench_io.h"
#include "circuit/ffr.h"
#include "circuit/levelize.h"
#include "circuit/netlist.h"
#include "circuit/stats.h"
#include "circuit/transform.h"
#include "faults/collapse.h"
#include "faults/fault.h"
#include "faults/fault_list.h"
#include "faults/report.h"
#include "faults/sampling.h"
#include "logic/packed_val3.h"
#include "logic/val3.h"
#include "logic/val4.h"
#include "sim3/bitpar_sim3.h"
#include "sim3/fault_sim3.h"
#include "sim3/fault_simulator.h"
#include "sim3/good_sim3.h"
#include "sim3/levelized.h"
#include "sim3/ndetect.h"
#include "sim3/sim2.h"
#include "util/cli_args.h"
#include "util/expected.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
/// The paper's contribution and its extensions ---------------------------
#include "core/diagnosis.h"
#include "core/equivalence.h"
#include "core/hybrid_sim.h"
#include "core/misr.h"
#include "core/options.h"
#include "core/parallel_sym_sim.h"
#include "core/pipeline.h"
#include "core/progress.h"
#include "core/sym_fault_sim.h"
#include "core/sym_true_value.h"
#include "core/symbolic_fsm.h"
#include "core/test_eval.h"
#include "core/xred.h"
/// Sequence generation ---------------------------------------------------
#include "tpg/compaction.h"
#include "tpg/mot_tpg.h"
#include "tpg/sequence_io.h"
#include "tpg/sequences.h"

#endif  // MOTSIM_MOTSIM_H
