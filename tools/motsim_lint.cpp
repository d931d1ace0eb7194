// motsim_lint — static netlist analysis front end (docs/ANALYSIS.md).
//
//   motsim_lint [options] <circuit> [<circuit> ...]
//
//   <circuit>        roster name (s27, s298, ...) or path to a
//                    .bench file
//   --list           list the benchmark roster and exit
//   --json           machine-readable report instead of text (one
//                    JSON document per circuit, in argument order)
//   --scoap          SCOAP testability summary plus the hardest
//                    faults (text mode only)
//   --top N          how many hardest faults --scoap lists (default 5)
//   --static-xred    append static X-redundancy notes (the
//                    sequence-independent subset of ID_X-red) to the
//                    report
//   --implications   append the implication engine's findings:
//                    every-frame-constant and settled nets plus a
//                    summary of the learned implications
//   --untestable     append one note per statically untestable fault
//                    (FIRE-style fault-independent identification)
//   --cones          append cone-of-influence notes: one per fault
//                    cluster sharing an observation cone (the shard-
//                    mate groups the trimming pass exploits) plus a
//                    circuit-level cone-size summary
//   --sgraph         append s-graph notes: one per nontrivial SCC of
//                    the flip-flop dependency graph, one per finite-
//                    depth flip-flop, one per greedy feedback-set
//                    candidate, plus a circuit-level summary
//
// Exit code is the worst finding across all circuits: 0 clean (notes
// never fail a run), 1 warnings, 2 errors. Usage errors exit 2.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cone.h"
#include "analysis/diagnostics.h"
#include "analysis/sgraph.h"
#include "analysis/implication.h"
#include "analysis/lint.h"
#include "analysis/static_xred.h"
#include "analysis/testability.h"
#include "bench_data/registry.h"
#include "circuit/bench_io.h"
#include "faults/fault.h"
#include "faults/fault_list.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "util/cli_args.h"
#include "util/version.h"

using namespace motsim;

namespace {

struct Options {
  std::vector<std::string> circuits;
  bool list = false;
  bool json = false;
  bool scoap = false;
  bool static_xred = false;
  bool implications = false;
  bool untestable = false;
  bool cones = false;
  bool sgraph = false;
  std::size_t top = 5;
  std::string log_path;
  std::string log_level;
};

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: motsim_lint [options] <circuit> [<circuit> ...]\n"
               "  <circuit>      roster name (try --list) or .bench file "
               "path\n"
               "  --list         list the benchmark roster\n"
               "  --json         JSON report (one document per circuit)\n"
               "  --scoap        SCOAP testability summary + hardest "
               "faults\n"
               "  --top N        hardest faults to list (default 5)\n"
               "  --static-xred  append static X-redundancy notes\n"
               "  --implications append implication-engine notes (constant\n"
               "                 and settled nets, learned-implication "
               "summary)\n"
               "  --untestable   append statically-untestable-fault notes\n"
               "  --cones        append cone-of-influence cluster notes and\n"
               "                 a cone-size summary (docs/ANALYSIS.md)\n"
               "  --sgraph       append s-graph notes: SCCs, per-flip-flop\n"
               "                 synchronization depths, the greedy feedback\n"
               "                 set and a summary (docs/ANALYSIS.md)\n"
               "  --log PATH     structured JSONL log ('-' = stderr; also\n"
               "                 MOTSIM_LOG)\n"
               "  --log-level L  trace|debug|info|warn|error|off (default\n"
               "                 info; also MOTSIM_LOG_LEVEL)\n"
               "  --version      print version and exit\n"
               "exit code: 0 clean, 1 warnings, 2 errors (worst circuit "
               "wins)\n");
  std::exit(code);
}

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  std::fprintf(stderr, "run 'motsim_lint --help' for usage\n");
  std::exit(2);
}

/// Strict unsigned parse via util/cli_args (shared with motsim_cli);
/// any parse problem is fatal with the helper's message.
std::size_t parse_size_flag(const std::string& flag, const std::string& v) {
  const auto r = parse_cli_size(flag, v);
  if (!r.has_value()) fail(r.error());
  return *r;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) fail(a + " expects a value");
      return argv[++i];
    };
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--version") {
      std::printf("%s\n", build_info_string());
      std::exit(0);
    }
    else if (a == "--list") o.list = true;
    else if (a == "--json") o.json = true;
    else if (a == "--scoap") o.scoap = true;
    else if (a == "--top") o.top = parse_size_flag(a, next());
    else if (a == "--static-xred") o.static_xred = true;
    else if (a == "--implications") o.implications = true;
    else if (a == "--untestable") o.untestable = true;
    else if (a == "--cones") o.cones = true;
    else if (a == "--sgraph") o.sgraph = true;
    else if (a == "--log") o.log_path = next();
    else if (a == "--log-level") o.log_level = next();
    else if (!a.empty() && a[0] == '-') fail("unknown option '" + a + "'");
    else o.circuits.push_back(a);
  }
  if (!o.list && o.circuits.empty()) fail("no circuit given");
  if (o.json && o.scoap) {
    fail("--scoap is text-only and cannot be combined with --json");
  }
  return o;
}

Netlist load_circuit(const std::string& name) {
  if (find_benchmark(name) != nullptr) return make_benchmark(name);
  std::ifstream file(name);
  if (!file) {
    std::fprintf(stderr,
                 "error: '%s' is neither a roster circuit nor a readable "
                 ".bench file\n",
                 name.c_str());
    std::exit(2);
  }
  // A malformed netlist (combinational cycle, undefined or duplicate
  // signal) is an input error, not a crash.
  try {
    return parse_bench(file, name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

/// Appends the static X-redundancy verdict as two circuit-level notes
/// (counts per rule) plus one note per affected fault, so --json
/// consumers can filter on "xred.static-unobservable" /
/// "xred.static-constant" without re-running the analysis.
void append_static_xred(const Netlist& nl, DiagnosticReport& report) {
  const StaticXRedAnalysis analysis(nl);
  const std::vector<Fault> faults = all_faults(nl);
  std::size_t unobservable = 0;
  std::size_t constant = 0;
  for (const Fault& f : faults) {
    if (!analysis.is_static_x_redundant(f)) continue;
    const bool by_observability = !analysis.observable(f.site.node);
    by_observability ? ++unobservable : ++constant;
    report.add(nl,
               by_observability ? "xred.static-unobservable"
                                : "xred.static-constant",
               Severity::Note, f.site.node,
               "fault " + fault_name(nl, f) +
                   (by_observability
                        ? " can never reach an output or flip-flop"
                        : " can never be activated (net is constant)"));
  }
  report.add(nl, "xred.static-summary", Severity::Note, kNoNode,
             std::to_string(unobservable + constant) + " of " +
                 std::to_string(faults.size()) +
                 " faults statically X-redundant (" +
                 std::to_string(unobservable) + " unobservable, " +
                 std::to_string(constant) + " constant)");
}

/// Appends the implication engine's net-level findings: one note per
/// every-frame-constant internal net ("imp.constant-net"), one per net
/// that only settles after some frame ("imp.settled-net" — typically a
/// flip-flop fed by a constant), and a circuit-level summary of the
/// engine's counters ("imp.summary").
void append_implications(const Netlist& nl, const ImplicationEngine& eng,
                         DiagnosticReport& report) {
  const std::vector<ConstVal>& consts = eng.constants();
  const std::vector<SettledConst>& settled = eng.settled();
  for (NodeIndex n = 0; n < nl.node_count(); ++n) {
    const GateType t = nl.type(n);
    if (t == GateType::Const0 || t == GateType::Const1) continue;
    if (consts[n] != ConstVal::Unknown) {
      report.add(nl, "imp.constant-net", Severity::Note, n,
                 std::string("net is constant ") +
                     (consts[n] == ConstVal::One ? "1" : "0") +
                     " in every frame (static implication)");
    } else if (settled[n].value != ConstVal::Unknown) {
      report.add(nl, "imp.settled-net", Severity::Note, n,
                 std::string("net settles to ") +
                     (settled[n].value == ConstVal::One ? "1" : "0") +
                     " from frame " + std::to_string(settled[n].from_frame) +
                     " on, for every power-up state");
    }
  }
  const ImplicationStats& st = eng.stats();
  report.add(nl, "imp.summary", Severity::Note, kNoNode,
             std::to_string(st.direct_implications) +
                 " direct implications, " +
                 std::to_string(st.learned_implications) + " learned; " +
                 std::to_string(st.structural_constants +
                                st.learned_constants) +
                 " constant nets (" + std::to_string(st.learned_constants) +
                 " by learning), " + std::to_string(st.settled_constants) +
                 " settled");
}

/// Appends one note per statically untestable fault
/// ("untestable.fault") plus a circuit-level count
/// ("untestable.summary"). The verdict is fault-independent FIRE-style
/// identification: no input sequence detects the fault under any
/// observation strategy (docs/ANALYSIS.md).
void append_untestable(const Netlist& nl, const ImplicationEngine& eng,
                       DiagnosticReport& report) {
  const std::vector<Fault> faults = all_faults(nl);
  std::size_t count = 0;
  for (const Fault& f : faults) {
    if (!eng.is_static_untestable(f)) continue;
    ++count;
    report.add(nl, "untestable.fault", Severity::Note, f.site.node,
               "fault " + fault_name(nl, f) +
                   " is untestable by any input sequence");
  }
  report.add(nl, "untestable.summary", Severity::Note, kNoNode,
             std::to_string(count) + " of " + std::to_string(faults.size()) +
                 " faults statically untestable");
}

/// Appends the trimming pass's structural view of the fault list: one
/// note per cluster of two or more faults sharing a cone-of-influence
/// signature ("cone.cluster", anchored at the representative fault's
/// node — these are the shard-mate groups ParallelSymSim's
/// cluster-aware assignment packs together) plus one circuit-level
/// summary ("cone.summary") with the cluster census and the
/// min/median/max forward-cone sizes over all faults.
void append_cones(const Netlist& nl, DiagnosticReport& report) {
  ConeAnalysis analysis(nl);
  const std::vector<Fault> faults = all_faults(nl);
  const std::vector<ConeCluster> clusters = analysis.cluster_faults(faults);

  std::size_t singletons = 0;
  std::size_t shared = 0;
  std::size_t largest = 0;
  for (const ConeCluster& c : clusters) {
    if (c.fault_indices.size() < 2) {
      ++singletons;
      continue;
    }
    ++shared;
    largest = std::max(largest, c.fault_indices.size());
    const Fault& rep = faults[c.fault_indices.front()];
    report.add(nl, "cone.cluster", Severity::Note, rep.site.node,
               std::to_string(c.fault_indices.size()) +
                   " faults share one cone of influence (" +
                   std::to_string(c.summary.outputs_reached) + " outputs, " +
                   std::to_string(c.summary.dffs_reached) +
                   " flip-flops reachable; representative " +
                   fault_name(nl, rep) + ")");
  }

  std::vector<std::size_t> coi;
  coi.reserve(faults.size());
  for (const Fault& f : faults) {
    coi.push_back(analysis.fault_cone(f).forward_size);
  }
  std::sort(coi.begin(), coi.end());
  const std::size_t min_coi = coi.empty() ? 0 : coi.front();
  const std::size_t med_coi = coi.empty() ? 0 : coi[coi.size() / 2];
  const std::size_t max_coi = coi.empty() ? 0 : coi.back();
  report.add(nl, "cone.summary", Severity::Note, kNoNode,
             std::to_string(faults.size()) + " faults in " +
                 std::to_string(clusters.size()) + " cone clusters (" +
                 std::to_string(shared) + " shared, " +
                 std::to_string(singletons) + " singleton; largest " +
                 std::to_string(largest) +
                 " faults); cone of influence min/median/max " +
                 std::to_string(min_coi) + "/" + std::to_string(med_coi) +
                 "/" + std::to_string(max_coi) + " nodes");
}

/// Appends the s-graph pass's view of the sequential structure
/// (docs/ANALYSIS.md pass 6): one note per nontrivial SCC of the
/// flip-flop dependency graph ("sgraph.scc", anchored at the SCC's
/// lowest-position member — these flip-flops can hold their unknown
/// power-up value forever), one per finite-depth flip-flop
/// ("sgraph.depth" — its value is input-only after init_depth frames),
/// one per greedy feedback-set candidate ("sgraph.feedback" — a
/// partial-scan upper bound), plus the circuit-level summary
/// ("sgraph.summary").
void append_sgraph(const Netlist& nl, DiagnosticReport& report) {
  const SgraphInfo info = build_sgraph(nl);
  const std::size_t n = info.ff_count();

  // One note per nontrivial SCC, members gathered by id.
  std::vector<std::vector<std::uint32_t>> members;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!info.in_nontrivial_scc[v]) continue;
    if (info.scc_id[v] >= members.size()) members.resize(info.scc_id[v] + 1);
    members[info.scc_id[v]].push_back(v);
  }
  for (const std::vector<std::uint32_t>& m : members) {
    if (m.empty()) continue;
    const NodeIndex rep = nl.dffs()[m.front()];
    report.add(nl, "sgraph.scc", Severity::Note, rep,
               std::to_string(m.size()) +
                   (m.size() == 1 ? " flip-flop forms a self-loop"
                                  : " flip-flops form one s-graph cycle") +
                   "; their power-up value can persist forever (no finite "
                   "synchronization depth)");
  }

  for (std::uint32_t v = 0; v < n; ++v) {
    if (info.init_depth[v] == kInfDepth) continue;
    report.add(nl, "sgraph.depth", Severity::Note, nl.dffs()[v],
               "flip-flop value is a function of primary inputs alone "
               "after " +
                   std::to_string(info.init_depth[v]) + " frame" +
                   (info.init_depth[v] == 1 ? "" : "s"));
  }

  for (const std::uint32_t v : greedy_feedback_set(info)) {
    report.add(nl, "sgraph.feedback", Severity::Note, nl.dffs()[v],
               "greedy feedback-set candidate: scanning this flip-flop "
               "helps break every s-graph cycle");
  }

  report.add(nl, "sgraph.summary", Severity::Note, kNoNode,
             sgraph_summary(nl, info));
}

void print_scoap(const Netlist& nl, std::size_t top) {
  const SiteTable sites(nl);
  const TestabilityScores scores = compute_testability(nl, sites);
  std::printf("%s\n", testability_summary(nl, scores).c_str());

  // Hardest testable faults first. Infinite-score faults are a count,
  // not list entries: no input sequence can provably test them in
  // three-valued logic from the unknown power-up state (dead cones,
  // constant nets, or feedback loops only a lucky power-up value
  // enters) — the symbolic MOT strategies are their only chance.
  const std::vector<Fault> faults = all_faults(nl);
  std::vector<std::pair<std::uint32_t, std::size_t>> ranked;
  std::size_t untestable = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::uint32_t d = scores.fault_difficulty(sites, nl, faults[i]);
    if (d == kScoapInf) {
      ++untestable;
    } else {
      ranked.emplace_back(d, i);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  if (untestable != 0) {
    std::printf("untestable in three-valued logic (infinite score): %zu\n",
                untestable);
  }
  const std::size_t n = std::min(top, ranked.size());
  if (n != 0) std::printf("hardest faults:\n");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("  %-30s difficulty %u\n",
                fault_name(nl, faults[ranked[i].second]).c_str(),
                ranked[i].first);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);

  if (o.list) {
    std::printf("%-10s %6s %4s %4s %6s  %s\n", "name", "PI", "PO", "FF",
                "gates", "style");
    for (const BenchmarkInfo& info : benchmark_roster()) {
      std::printf("%-10s %6zu %4zu %4zu %6zu  %s%s\n",
                  info.spec.name.c_str(), info.spec.inputs,
                  info.spec.outputs, info.spec.dffs, info.spec.target_gates,
                  info.exact ? "exact" : to_cstring(info.spec.style),
                  info.exact ? "" : " (synthetic)");
    }
    return 0;
  }

  // Logging surface shared with the other tools (docs/OBSERVABILITY.md):
  // the telemetry context only exists when a sink was configured.
  const char* const env_log = std::getenv("MOTSIM_LOG");
  std::optional<obs::Telemetry> telemetry;
  std::unique_ptr<obs::Logger> logger;
  if (!o.log_path.empty() || (env_log != nullptr && env_log[0] != '\0')) {
    telemetry.emplace();
    auto opened = obs::open_logger_from(o.log_path, o.log_level);
    if (!opened.has_value()) fail(opened.error());
    logger = std::move(*opened);
    telemetry->attach_logger(logger.get());
  }
  obs::Telemetry* const tele = telemetry.has_value() ? &*telemetry : nullptr;

  int worst = 0;
  bool first = true;
  for (const std::string& name : o.circuits) {
    const Netlist nl = load_circuit(name);
    DiagnosticReport report = run_lint(nl);
    if (o.static_xred) append_static_xred(nl, report);
    if (o.implications || o.untestable) {
      // One engine serves both passes — learning is the expensive part.
      const ImplicationEngine engine(nl);
      if (o.implications) append_implications(nl, engine, report);
      if (o.untestable) append_untestable(nl, engine, report);
    }
    if (o.cones) append_cones(nl, report);
    if (o.sgraph) append_sgraph(nl, report);

    if (!first) std::printf("\n");
    first = false;
    if (o.json) {
      std::printf("%s\n", report.to_json().c_str());
    } else {
      std::printf("%s", report.to_text().c_str());
      if (o.scoap) print_scoap(nl, o.top);
    }
    obs::log_event(
        tele, obs::LogLevel::Info, "lint.circuit",
        {obs::LogField::str("circuit", nl.name()),
         obs::LogField::u64("errors", report.count(Severity::Error)),
         obs::LogField::u64("warnings", report.count(Severity::Warning)),
         obs::LogField::u64("notes", report.count(Severity::Note))});
    worst = std::max(worst, report.exit_code());
  }
  return worst;
}
