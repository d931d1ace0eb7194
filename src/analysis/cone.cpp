#include "analysis/cone.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "analysis/scc.h"

namespace motsim {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

/// Divergence origin of a fault: the node whose output first carries a
/// faulty value. A branch fault's effect exists only inside the gate it
/// enters, so the gate node is the origin (a D-pin branch diverges at
/// the flip-flop's Q, which IS the flip-flop node).
NodeIndex divergence_origin(const Fault& fault) noexcept {
  return fault.site.node;
}

}  // namespace

NodeIndex activation_node(const Netlist& netlist, const Fault& fault) {
  const NodeIndex site = fault.site.node;
  if (site >= netlist.node_count()) return kNoNode;
  if (fault.site.is_stem()) return site;
  const auto& fanins = netlist.gate(site).fanins;
  if (fault.site.pin >= fanins.size()) return kNoNode;
  return fanins[fault.site.pin];
}

ConeWalker::ConeWalker(const Netlist& netlist) : netlist_(&netlist) {
  if (!netlist.finalized()) {
    throw std::logic_error("ConeWalker requires a finalized netlist");
  }
  const std::size_t n = netlist.node_count();
  mark_.assign(n, 0);

  // Flatten both adjacencies into CSR form once; every later reach is
  // a cache-friendly scan over these arrays.
  fwd_offset_.assign(n + 1, 0);
  bwd_offset_.assign(n + 1, 0);
  for (NodeIndex i = 0; i < n; ++i) {
    fwd_offset_[i + 1] =
        fwd_offset_[i] + static_cast<std::uint32_t>(netlist.fanouts(i).size());
    std::uint32_t fanin_count = 0;
    for (NodeIndex f : netlist.gate(i).fanins) {
      if (f != kNoNode) ++fanin_count;
    }
    bwd_offset_[i + 1] = bwd_offset_[i] + fanin_count;
  }
  fwd_edges_.reserve(fwd_offset_[n]);
  bwd_edges_.reserve(bwd_offset_[n]);
  for (NodeIndex i = 0; i < n; ++i) {
    for (const FanoutRef& fo : netlist.fanouts(i)) {
      fwd_edges_.push_back(fo.node);
    }
    for (NodeIndex f : netlist.gate(i).fanins) {
      if (f != kNoNode) bwd_edges_.push_back(f);
    }
  }
}

void ConeWalker::run(ConeDir dir, const NodeIndex* seeds, std::size_t count,
                     bool cross_dffs) {
  if (++gen_ == 0) {
    std::fill(mark_.begin(), mark_.end(), 0u);
    gen_ = 1;
  }
  visited_.clear();

  const std::vector<std::uint32_t>& offset =
      dir == ConeDir::Forward ? fwd_offset_ : bwd_offset_;
  const std::vector<NodeIndex>& edges =
      dir == ConeDir::Forward ? fwd_edges_ : bwd_edges_;

  for (std::size_t i = 0; i < count; ++i) {
    const NodeIndex s = seeds[i];
    if (s == kNoNode || mark_[s] == gen_) continue;
    mark_[s] = gen_;
    visited_.push_back(s);
  }
  const std::size_t seeded = visited_.size();

  // BFS over the visited_ vector itself (it doubles as the queue).
  for (std::size_t head = 0; head < visited_.size(); ++head) {
    const NodeIndex n = visited_[head];
    if (!cross_dffs && head >= seeded &&
        netlist_->type(n) == GateType::Dff) {
      // Flip-flop boundary: marked, not expanded (seeds always are).
      continue;
    }
    for (std::uint32_t e = offset[n]; e < offset[n + 1]; ++e) {
      const NodeIndex m = edges[e];
      if (mark_[m] != gen_) {
        mark_[m] = gen_;
        visited_.push_back(m);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ConeAnalysis
// ---------------------------------------------------------------------------

ConeAnalysis::ConeAnalysis(const Netlist& netlist)
    : netlist_(&netlist), walker_(netlist) {}

ConeSummary ConeAnalysis::fault_cone(const Fault& fault) {
  const Netlist& nl = *netlist_;
  ConeSummary s;

  walker_.run(ConeDir::Forward, {divergence_origin(fault)});
  s.forward_size = walker_.visited().size();

  // Signature over the observation set, position-indexed so two faults
  // match exactly when they can influence the same outputs/flip-flops.
  std::uint64_t h = kFnvOffset;
  const auto& outputs = nl.outputs();
  for (std::size_t j = 0; j < outputs.size(); ++j) {
    if (!walker_.reached(outputs[j])) continue;
    ++s.outputs_reached;
    h = fnv1a_u64(h, j);
  }
  const auto& dffs = nl.dffs();
  for (std::size_t j = 0; j < dffs.size(); ++j) {
    if (!walker_.reached(dffs[j])) continue;
    ++s.dffs_reached;
    h = fnv1a_u64(h, (std::uint64_t{1} << 32) | j);
  }
  s.signature = h;

  const NodeIndex act = activation_node(nl, fault);
  if (act != kNoNode) {
    walker_.run(ConeDir::Backward, {act});
    s.support_size = walker_.visited().size();
  }
  return s;
}

std::vector<ConeCluster> ConeAnalysis::cluster_faults(
    const std::vector<Fault>& faults) {
  std::vector<ConeCluster> clusters;
  std::unordered_map<std::uint64_t, std::size_t> by_signature;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ConeSummary s = fault_cone(faults[i]);
    const auto [it, inserted] =
        by_signature.try_emplace(s.signature, clusters.size());
    if (inserted) {
      clusters.push_back(ConeCluster{s.signature, {}, s});
    }
    clusters[it->second].fault_indices.push_back(i);
  }
  return clusters;
}

NodeCondensation condense_forward(const Netlist& netlist) {
  if (!netlist.finalized()) {
    throw std::logic_error("condense_forward requires a finalized netlist");
  }
  const auto n = static_cast<std::uint32_t>(netlist.node_count());
  std::vector<std::uint32_t> offset(n + 1, 0);
  for (NodeIndex v = 0; v < n; ++v) {
    offset[v + 1] =
        offset[v] + static_cast<std::uint32_t>(netlist.fanouts(v).size());
  }
  std::vector<std::uint32_t> edges;
  edges.reserve(offset[n]);
  for (NodeIndex v = 0; v < n; ++v) {
    for (const FanoutRef& fo : netlist.fanouts(v)) edges.push_back(fo.node);
  }

  NodeCondensation cond;
  cond.scc_count = tarjan_scc(
      n,
      [&](std::uint32_t v) {
        return std::span<const std::uint32_t>(edges.data() + offset[v],
                                              offset[v + 1] - offset[v]);
      },
      nullptr, cond.scc_of, &cond.members);
  // Members arrive grouped by SCC id; record where each group starts.
  cond.offset.assign(cond.scc_count + 1, 0);
  for (const std::uint32_t v : cond.members) {
    ++cond.offset[cond.scc_of[v] + 1];
  }
  for (std::uint32_t c = 0; c < cond.scc_count; ++c) {
    cond.offset[c + 1] += cond.offset[c];
  }
  return cond;
}

std::vector<std::size_t> cluster_live_order(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const std::vector<std::size_t>& live) {
  // Observation set of every SCC as one bitset: output position j is
  // bit j, flip-flop position j is bit outputs + j. Seed each SCC with
  // the points it contains, then OR-fold along the condensation.
  const NodeCondensation cond = condense_forward(netlist);
  const std::size_t outs = netlist.output_count();
  const std::size_t words = (outs + netlist.dff_count() + 63) / 64;
  std::vector<std::uint64_t> reach(std::size_t{cond.scc_count} * words, 0);
  auto set_bit = [&](NodeIndex node, std::size_t bit) {
    reach[cond.scc_of[node] * words + bit / 64] |= std::uint64_t{1}
                                                   << (bit % 64);
  };
  for (std::size_t j = 0; j < outs; ++j) set_bit(netlist.outputs()[j], j);
  for (std::size_t j = 0; j < netlist.dff_count(); ++j) {
    set_bit(netlist.dffs()[j], outs + j);
  }
  cond.fold_edges(netlist, [&](std::uint32_t c, std::uint32_t d) {
    std::uint64_t* to = reach.data() + std::size_t{c} * words;
    const std::uint64_t* from = reach.data() + std::size_t{d} * words;
    for (std::size_t w = 0; w < words; ++w) to[w] |= from[w];
  });

  // The signature ConeAnalysis::fault_cone computes from a walk: FNV-1a
  // over the reached output positions, then the reached flip-flop
  // positions, ascending. Memoized per SCC (many sites share one).
  std::vector<std::uint64_t> scc_signature(cond.scc_count, 0);
  std::vector<std::uint8_t> have_signature(cond.scc_count, 0);
  auto signature_of = [&](NodeIndex site) {
    if (site >= netlist.node_count()) return kFnvOffset;  // reaches nothing
    const std::uint32_t c = cond.scc_of[site];
    if (have_signature[c] != 0) return scc_signature[c];
    std::uint64_t h = kFnvOffset;
    const std::uint64_t* bits = reach.data() + std::size_t{c} * words;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
        const std::size_t bit = 64 * w + std::countr_zero(b);
        h = fnv1a_u64(h, bit < outs ? bit
                                    : (std::uint64_t{1} << 32) | (bit - outs));
      }
    }
    have_signature[c] = 1;
    scc_signature[c] = h;
    return h;
  };

  // Group by signature, preserving the first-occurrence order of the
  // signatures and the relative order of members; a stable partition,
  // never a sort, so the result is reproducible byte for byte.
  std::vector<std::size_t> order;
  order.reserve(live.size());
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> members;
  std::vector<std::uint64_t> signature_order;
  for (const std::size_t g : live) {
    const std::uint64_t sig = signature_of(divergence_origin(faults[g]));
    auto [it, inserted] = members.try_emplace(sig);
    if (inserted) signature_order.push_back(sig);
    it->second.push_back(g);
  }
  for (const std::uint64_t sig : signature_order) {
    const std::vector<std::size_t>& m = members[sig];
    order.insert(order.end(), m.begin(), m.end());
  }
  return order;
}

}  // namespace motsim
