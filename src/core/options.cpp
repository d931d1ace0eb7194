#include "core/options.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace motsim {

namespace {

/// Hard sanity ceiling on worker threads: far above any real machine,
/// low enough to catch a garbage value (e.g. a negative int cast to
/// size_t) before it allocates thousands of BDD managers.
constexpr std::size_t kMaxThreads = 1024;

}  // namespace

Expected<SimOptions, std::string> SimOptions::validate() const {
  using Err = Unexpected<std::string>;
  if (node_limit == 0) {
    return Err{"node_limit must be positive"};
  }
  if (fallback_frames == 0) {
    return Err{"fallback_frames must be positive"};
  }
  if (hard_limit_factor == 0) {
    return Err{"hard_limit_factor must be positive"};
  }
  if (node_limit >
      std::numeric_limits<std::size_t>::max() / hard_limit_factor) {
    return Err{"node_limit * hard_limit_factor overflows"};
  }
  if (threads > kMaxThreads) {
    return Err{"threads must be at most " + std::to_string(kMaxThreads) +
               " (0 = one per hardware thread)"};
  }
  if (bdd_initial_capacity < 2) {
    return Err{"bdd_initial_capacity must hold at least the two terminals"};
  }
  if (bdd_cache_size_log2 < 4 || bdd_cache_size_log2 > 30) {
    return Err{"bdd_cache_size_log2 must be in [4, 30]"};
  }
  switch (strategy) {
    case Strategy::Sot:
    case Strategy::Rmot:
    case Strategy::Mot:
      break;
    default:
      return Err{"strategy is not a valid Strategy value"};
  }
  switch (layout) {
    case VarLayout::Interleaved:
    case VarLayout::Blocked:
      break;
    default:
      return Err{"layout is not a valid VarLayout value"};
  }
  switch (sim3_backend) {
    case Sim3Backend::Event:
    case Sim3Backend::BitPar:
      break;
    default:
      return Err{"sim3_backend is not a valid Sim3Backend value"};
  }
  return *this;
}

SimOptions SimOptions::validated() const {
  Expected<SimOptions, std::string> checked = validate();
  if (!checked.has_value()) {
    throw std::invalid_argument("SimOptions: " + checked.error());
  }
  return std::move(*checked);
}

bdd::BddConfig SimOptions::to_bdd_config() const {
  bdd::BddConfig c;
  c.initial_capacity = bdd_initial_capacity;
  c.cache_size_log2 = bdd_cache_size_log2;
  c.auto_gc_floor = bdd_auto_gc_floor;
  c.hard_node_limit = node_limit * hard_limit_factor;
  return c;
}

}  // namespace motsim
