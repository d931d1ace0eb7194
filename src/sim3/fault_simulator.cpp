#include "sim3/fault_simulator.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "sim3/bitpar_sim3.h"
#include "sim3/fault_sim3.h"

namespace motsim {

const char* to_cstring(Sim3Backend b) noexcept {
  switch (b) {
    case Sim3Backend::Event:
      return "event";
    case Sim3Backend::BitPar:
      return "bitpar";
  }
  return "?";
}

std::optional<Sim3Backend> parse_sim3_backend(std::string_view token) {
  if (token == "event") return Sim3Backend::Event;
  if (token == "bitpar") return Sim3Backend::BitPar;
  return std::nullopt;
}

Sim3Backend default_sim3_backend() {
  static const Sim3Backend cached = [] {
    // Read once at first use, under the static-init lock; nothing in
    // this process mutates the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("MOTSIM_SIM3_BACKEND");
    if (env != nullptr) {
      if (const auto b = parse_sim3_backend(env)) return *b;
    }
    return Sim3Backend::BitPar;
  }();
  return cached;
}

std::uint32_t last_nonbinary_frame(
    const std::vector<std::vector<Val3>>& sequence, std::size_t input_count) {
  for (std::size_t t = sequence.size(); t > 0; --t) {
    const std::vector<Val3>& v = sequence[t - 1];
    if (v.size() != input_count || !std::all_of(v.begin(), v.end(), is_binary)) {
      return static_cast<std::uint32_t>(t);
    }
  }
  return 0;
}

FaultSimulator3::FaultSimulator3(std::vector<Fault> faults)
    : faults_(std::move(faults)),
      initial_status_(faults_.size(), FaultStatus::Undetected) {}

void FaultSimulator3::set_initial_status(std::vector<FaultStatus> status) {
  if (status.size() != faults_.size()) {
    throw std::invalid_argument("set_initial_status: wrong size");
  }
  initial_status_ = std::move(status);
}

std::unique_ptr<FaultSimulator3> make_fault_simulator3(
    Sim3Backend backend, const Netlist& netlist, std::vector<Fault> faults,
    const Sim3EngineConfig& config) {
  return make_fault_simulator3(
      backend, std::make_shared<const LevelizedCircuit>(netlist),
      std::move(faults), config);
}

std::unique_ptr<FaultSimulator3> make_fault_simulator3(
    Sim3Backend backend, std::shared_ptr<const LevelizedCircuit> circuit,
    std::vector<Fault> faults, const Sim3EngineConfig& config) {
  std::unique_ptr<FaultSimulator3> sim;
  switch (backend) {
    case Sim3Backend::Event:
      sim = std::make_unique<FaultSim3>(circuit->netlist(), std::move(faults));
      break;
    case Sim3Backend::BitPar:
      sim = std::make_unique<BitParFaultSim3>(std::move(circuit),
                                              std::move(faults),
                                              config.threads);
      break;
    default:
      throw std::invalid_argument("make_fault_simulator3: unknown backend");
  }
  sim->set_telemetry(config.telemetry);
  return sim;
}

}  // namespace motsim
