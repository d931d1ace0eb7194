#ifndef MOTSIM_ANALYSIS_CONE_H
#define MOTSIM_ANALYSIS_CONE_H

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "circuit/netlist.h"
#include "faults/fault.h"

namespace motsim {

/// Direction of a structural reach over the netlist graph.
enum class ConeDir : std::uint8_t {
  Forward,   ///< follow fanouts (cone of influence)
  Backward,  ///< follow fanins (support cone)
};

/// Single shared BFS/reach implementation over a CSR-flattened view of
/// the netlist graph. Every cone-style walk in the analysis layer
/// (static X-redundancy observability, the implication engine's PO
/// cone and R0 fault cones, the trimming pass's per-fault cones) runs
/// through this one kernel, so the DFF-crossing conventions live in
/// exactly one place.
///
/// The adjacency is built once at construction; each run() is an
/// epoch-stamped BFS, so repeated queries (one per fault) never pay a
/// full clear. Not thread-safe — use one walker per thread.
class ConeWalker {
 public:
  explicit ConeWalker(const Netlist& netlist);

  /// Marks everything reachable from `seeds` (seeds included) in the
  /// given direction. `cross_dffs` controls sequential depth: true
  /// walks straight through flip-flops (reach over ANY number of
  /// frames — a forward walk continues from a DFF's Q output, a
  /// backward walk descends into its D input); false stops at the
  /// flip-flop boundary (the DFF node itself is still marked — it is
  /// the frame's observation/support point). Invalid (kNoNode) seeds
  /// are ignored.
  void run(ConeDir dir, const NodeIndex* seeds, std::size_t count,
           bool cross_dffs = true);
  void run(ConeDir dir, std::initializer_list<NodeIndex> seeds,
           bool cross_dffs = true) {
    run(dir, seeds.begin(), seeds.size(), cross_dffs);
  }
  void run(ConeDir dir, const std::vector<NodeIndex>& seeds,
           bool cross_dffs = true) {
    run(dir, seeds.data(), seeds.size(), cross_dffs);
  }

  /// True when `node` was reached by the most recent run().
  [[nodiscard]] bool reached(NodeIndex node) const {
    return mark_[node] == gen_;
  }

  /// Nodes reached by the most recent run(), in visit order (the seeds
  /// first). Valid until the next run().
  [[nodiscard]] const std::vector<NodeIndex>& visited() const noexcept {
    return visited_;
  }

  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }

 private:
  const Netlist* netlist_;
  // CSR adjacency, one flattened edge array per direction.
  std::vector<std::uint32_t> fwd_offset_;
  std::vector<NodeIndex> fwd_edges_;
  std::vector<std::uint32_t> bwd_offset_;
  std::vector<NodeIndex> bwd_edges_;
  std::vector<std::uint32_t> mark_;  ///< epoch stamps, no per-run clear
  std::uint32_t gen_ = 0;
  std::vector<NodeIndex> visited_;
};

/// SCC condensation of the node graph along fanout edges, flip-flop
/// D-pins included: the graph every forward reach that crosses
/// flip-flop boundaries walks. All nodes of one SCC reach the same
/// nodes, so a per-node reach fact (the outputs a fault site can
/// reach, the max horizon over them) folds once per SCC instead of
/// once per walk: O(nodes + edges) for every node at once.
struct NodeCondensation {
  /// Per-node SCC id. Ids follow Tarjan completion order, a reverse
  /// topological order of the condensation: an edge from SCC A into a
  /// different SCC B implies B < A.
  std::vector<std::uint32_t> scc_of;
  std::uint32_t scc_count = 0;
  /// Nodes grouped by SCC id: SCC c is members[offset[c]..offset[c+1]).
  std::vector<std::uint32_t> members;
  std::vector<std::uint32_t> offset;

  /// Calls `edge(c, d)` for every fanout edge from SCC c into another
  /// SCC d (so d < c), with c ascending: every SCC's edges come after
  /// those of all the SCCs it reaches, which makes `edge` a valid
  /// reach fold once each SCC's own facts are seeded. A repeated edge
  /// is visited once per occurrence.
  template <typename Edge>
  void fold_edges(const Netlist& netlist, Edge&& edge) const {
    for (std::uint32_t c = 0; c < scc_count; ++c) {
      for (std::uint32_t k = offset[c]; k < offset[c + 1]; ++k) {
        for (const FanoutRef& fo : netlist.fanouts(members[k])) {
          const std::uint32_t d = scc_of[fo.node];
          if (d != c) edge(c, d);
        }
      }
    }
  }
};

/// Builds the forward condensation of a finalized netlist (one
/// iterative Tarjan pass).
[[nodiscard]] NodeCondensation condense_forward(const Netlist& netlist);

/// Per-fault cone-of-influence summary (docs/ANALYSIS.md, trimming
/// pass). All reaches cross flip-flop boundaries, so the counts answer
/// "over any number of frames".
struct ConeSummary {
  /// Nodes forward-reachable from the divergence origin (origin
  /// included).
  std::size_t forward_size = 0;
  /// Nodes in the backward support of the activation net.
  std::size_t support_size = 0;
  /// Primary outputs the divergence can structurally reach.
  std::size_t outputs_reached = 0;
  /// Flip-flops the divergence can structurally reach.
  std::size_t dffs_reached = 0;
  /// Order-independent FNV-1a hash of the reached observation set
  /// (output positions then flip-flop positions): faults with equal
  /// signatures share their cone of influence on every observation
  /// point, which is what makes them profitable shard-mates.
  std::uint64_t signature = 0;
};

/// One cluster of faults sharing a cone-of-influence signature.
struct ConeCluster {
  std::uint64_t signature = 0;
  /// Indices into the fault list handed to cluster_faults, in their
  /// original order.
  std::vector<std::size_t> fault_indices;
  /// Representative cone summary (every member reaches the same
  /// observation set; sizes are the first member's).
  ConeSummary summary;
};

/// Static per-fault cone analysis: forward cone of influence, backward
/// support, and signature-based clustering. Deterministic — a pure
/// function of the netlist and the fault list. Not thread-safe (one
/// walker inside); use one instance per thread.
class ConeAnalysis {
 public:
  explicit ConeAnalysis(const Netlist& netlist);

  /// Cone summary of one fault (see ConeSummary).
  [[nodiscard]] ConeSummary fault_cone(const Fault& fault);

  /// Groups `faults` by cone signature. Clusters are ordered by first
  /// occurrence in the fault list; members keep their original order.
  [[nodiscard]] std::vector<ConeCluster> cluster_faults(
      const std::vector<Fault>& faults);

 private:
  const Netlist* netlist_;
  ConeWalker walker_;
};

/// The node whose fault-free value is the fault's activation function:
/// the faulted net itself for a stem fault, the driving net for a
/// branch fault (the branch copies the driver's fault-free value). A
/// frame activates the fault exactly when this net's fault-free value
/// differs from the stuck value. kNoNode when the site is malformed
/// (out-of-range pin or missing driver).
[[nodiscard]] NodeIndex activation_node(const Netlist& netlist,
                                        const Fault& fault);

/// Reorders the `live` fault indices so faults sharing a cone of
/// influence become shard neighbours: clusters keep their
/// first-occurrence order and members their relative order, so the
/// result is a pure function of (netlist, faults, live) — never of
/// thread count or scheduling. Used by ParallelSymSim's cluster-aware
/// shard assignment (docs/DESIGN.md). The signatures equal
/// ConeAnalysis::fault_cone's but come from one observation-set
/// bitset fold over the forward condensation, not one walk per fault.
[[nodiscard]] std::vector<std::size_t> cluster_live_order(
    const Netlist& netlist, const std::vector<Fault>& faults,
    const std::vector<std::size_t>& live);

}  // namespace motsim

#endif  // MOTSIM_ANALYSIS_CONE_H
