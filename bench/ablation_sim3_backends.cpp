// Cross-backend ablation gate: the event-driven and the bit-parallel
// three-valued fault simulators must be bit-identical, and the
// bit-parallel default must not be slower than the event reference.
//
// Runs both FaultSimulator3 backends (and the bit-parallel engine at 1
// and 4 worker threads) over random sequences on s27 / s344 / s5378
// and compares, fault by fault, the detection verdict, the detection
// frame and exact_from (the frame after which X01 was exact). Each
// circuit also runs a copy of its sequence with X inputs in two
// vectors mid-run, so bit-parallel groups leave the two-valued path
// (docs/SIM3.md) and re-enter it once the machines resettle; the
// "2v" columns report the two-valued share of group-frames of both
// sequences. Any disagreement exits nonzero — this harness is the CI
// correctness gate behind the backend contract of docs/SIM3.md, wired
// like ablation_implications.
//
// It is also a ratio gate: each backend is timed best-of-5 within this
// one run (interleaved, so host drift hits both sides alike), and the
// harness exits nonzero when bitpar-1 is more than 5 % slower than
// event on a gated circuit. s27 is not gated: its run time is below
// the timer's resolution.
//
// Environment (see bench_common.h): MOTSIM_FULL, MOTSIM_VECTORS,
// MOTSIM_SEED.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "faults/collapse.h"
#include "faults/fault.h"
#include "obs/telemetry.h"
#include "sim3/bitpar_sim3.h"
#include "sim3/fault_simulator.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;
using namespace motsim::bench;

namespace {

constexpr int kTimedRuns = 5;
/// Largest tolerated bitpar-1 / event time ratio on a gated circuit.
constexpr double kMaxSlowdown = 1.05;

struct Run {
  FaultSim3Result result;
  double seconds = 0;  ///< best of the timed runs
};

/// One timed run; keeps the result of the first and the best time.
void run_backend(const Netlist& nl, const std::vector<Fault>& faults,
                 const TestSequence& seq, Sim3Backend backend,
                 std::size_t threads, Run& r) {
  Stopwatch timer;
  Sim3EngineConfig config;
  config.threads = threads;
  const std::unique_ptr<FaultSimulator3> sim =
      make_fault_simulator3(backend, nl, faults, config);
  FaultSim3Result result = sim->run(seq);
  const double seconds = timer.elapsed_seconds();
  if (r.result.status.empty()) r.result = std::move(result);
  if (r.seconds == 0 || seconds < r.seconds) r.seconds = seconds;
}

/// Untimed bit-parallel run; `binary`/`total` receive its
/// sim3.binary_group_frames and sim3.batches.
FaultSim3Result run_counted(const Netlist& nl, const std::vector<Fault>& faults,
                            const TestSequence& seq, std::size_t threads,
                            std::uint64_t& binary, std::uint64_t& total) {
  obs::Telemetry tele;
  Sim3EngineConfig config;
  config.threads = threads;
  config.telemetry = &tele;
  FaultSim3Result result =
      make_fault_simulator3(Sim3Backend::BitPar, nl, faults, config)->run(seq);
  binary = tele.metrics.counter("sim3.binary_group_frames").value();
  total = tele.metrics.counter("sim3.batches").value();
  return result;
}

/// Fault-by-fault comparison of verdicts and frames; prints the first
/// few mismatches.
bool identical(const Netlist& nl, const std::vector<Fault>& faults,
               const FaultSim3Result& a, const FaultSim3Result& b,
               const char* what) {
  bool ok = a.status.size() == b.status.size() &&
            a.detected_count == b.detected_count &&
            a.exact_from.size() == b.exact_from.size();
  int reported = 0;
  for (std::size_t i = 0; i < a.status.size() && i < b.status.size(); ++i) {
    if (is_detected(a.status[i]) != is_detected(b.status[i]) ||
        a.detect_frame[i] != b.detect_frame[i] ||
        a.exact_from[i] != b.exact_from[i]) {
      if (reported++ < 10) {
        std::fprintf(stderr,
                     "MISMATCH (%s): %s %s: event=%s@%u exact_from %u "
                     "other=%s@%u exact_from %u\n",
                     what, nl.name().c_str(),
                     fault_name(nl, faults[i]).c_str(), to_cstring(a.status[i]),
                     a.detect_frame[i], a.exact_from[i],
                     to_cstring(b.status[i]), b.detect_frame[i],
                     b.exact_from[i]);
      }
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main() {
  print_preamble("sim3 backend ablation",
                 "event-driven vs bit-parallel X01: bit-identity gate");

  const std::size_t vectors =
      static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 96));

  std::vector<std::string> workloads{"s27", "s344", "s5378"};
  if (full_mode()) workloads.push_back("s1423");

  bool all_identical = true;
  bool all_fast = true;
  std::printf("%-10s %8s %9s %10s %12s %12s %8s %8s %8s\n", "circuit",
              "faults", "detected", "event[ms]", "bitpar-1[ms]",
              "bitpar-4[ms]", "speedup", "2v", "2v(X)");
  for (const std::string& name : workloads) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(workload_seed());
    const TestSequence seq = random_sequence(nl, vectors, rng);

    Run event;
    Run bitpar1;
    Run bitpar4;
    for (int rep = 0; rep < kTimedRuns; ++rep) {
      run_backend(nl, faults.faults(), seq, Sim3Backend::Event, 1, event);
      run_backend(nl, faults.faults(), seq, Sim3Backend::BitPar, 1, bitpar1);
      run_backend(nl, faults.faults(), seq, Sim3Backend::BitPar, 4, bitpar4);
    }

    if (!identical(nl, faults.faults(), event.result, bitpar1.result,
                   "bitpar threads=1")) {
      all_identical = false;
    }
    if (!identical(nl, faults.faults(), event.result, bitpar4.result,
                   "bitpar threads=4")) {
      all_identical = false;
    }

    // The X-injected copy: identity only, untimed.
    TestSequence seqx = seq;
    if (!seqx.empty()) {
      seqx[vectors / 3][0] = Val3::X;
      seqx[vectors / 2][nl.input_count() - 1] = Val3::X;
    }
    std::uint64_t binary = 0, total = 0, binary_x = 0, total_x = 0;
    (void)run_counted(nl, faults.faults(), seq, 1, binary, total);
    const std::unique_ptr<FaultSimulator3> event_x =
        make_fault_simulator3(Sim3Backend::Event, nl, faults.faults());
    const FaultSim3Result rx = event_x->run(seqx);
    for (const std::size_t threads : {1u, 4u}) {
      const FaultSim3Result bx =
          run_counted(nl, faults.faults(), seqx, threads, binary_x, total_x);
      const std::string what =
          "X inputs, bitpar threads=" + std::to_string(threads);
      if (!identical(nl, faults.faults(), rx, bx, what.c_str())) {
        all_identical = false;
      }
    }
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
      return whole > 0 ? 100.0 * static_cast<double>(part) /
                             static_cast<double>(whole)
                       : 0.0;
    };

    const double speedup =
        bitpar1.seconds > 0 ? event.seconds / bitpar1.seconds : 0.0;
    const bool gated = name != "s27";
    const bool slow = gated && bitpar1.seconds > kMaxSlowdown * event.seconds;
    std::printf("%-10s %8zu %9zu %10.3f %12.3f %12.3f %7.2fx %7.1f%% "
                "%7.1f%%%s\n",
                nl.name().c_str(), faults.size(),
                event.result.detected_count, 1e3 * event.seconds,
                1e3 * bitpar1.seconds, 1e3 * bitpar4.seconds, speedup,
                share(binary, total), share(binary_x, total_x),
                gated ? (slow ? "  SLOW" : "") : "  (not gated)");
    if (slow) all_fast = false;
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAILURE: the sim3 backends disagree on a detection "
                 "verdict, frame or exact_from.\n");
    return 1;
  }
  std::printf("\nboth backends (and both thread counts) are bit-identical "
              "on every circuit, with and without X inputs.\n");
  if (!all_fast) {
    std::fprintf(stderr,
                 "FAILURE: bitpar-1 is more than %.0f %% slower than event "
                 "(best of %d) on a gated circuit.\n",
                 (kMaxSlowdown - 1.0) * 100.0, kTimedRuns);
    return 1;
  }
  std::printf("bitpar-1 is within %.0f %% of event (best of %d) on every "
              "gated circuit.\n",
              (kMaxSlowdown - 1.0) * 100.0, kTimedRuns);
  return 0;
}
