#ifndef MOTSIM_ANALYSIS_SCC_H
#define MOTSIM_ANALYSIS_SCC_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace motsim {

/// Iterative Tarjan SCC decomposition of the graph on vertices
/// 0..n-1 whose successor list of v is `succ(v)` (any range of
/// vertex ids). Vertices with `active[v] == 0` are skipped, as are
/// edges into them; a null `active` keeps every vertex. Roots are tried
/// in index order and successors in list order, so the result is a
/// pure function of the graph.
///
/// Fills `scc_id` (0xFFFFFFFF for inactive vertices) and returns the
/// SCC count. Ids follow completion order, which is a reverse
/// topological order of the condensation: an edge from SCC A into a
/// different SCC B implies B < A. When `members` is non-null it
/// receives every active vertex grouped by SCC in id order, so SCC c
/// is one contiguous run and a fold over `members` visits every SCC
/// after all the SCCs it reaches.
template <typename Succ>
std::uint32_t tarjan_scc(std::uint32_t n, const Succ& succ,
                         const std::uint8_t* active,
                         std::vector<std::uint32_t>& scc_id,
                         std::vector<std::uint32_t>* members = nullptr) {
  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<std::uint32_t> stack;
  struct Frame {
    std::uint32_t v;
    std::uint32_t edge;
  };
  std::vector<Frame> call;
  std::uint32_t next_index = 0;
  std::uint32_t scc_count = 0;
  scc_id.assign(n, kUnvisited);
  if (members != nullptr) {
    members->clear();
    members->reserve(n);
  }
  auto is_active = [active](std::uint32_t v) {
    return active == nullptr || active[v] != 0;
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (!is_active(root) || index[root] != kUnvisited) continue;
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    call.push_back({root, 0});
    while (!call.empty()) {
      const std::uint32_t v = call.back().v;
      const auto& out = succ(v);
      if (call.back().edge < out.size()) {
        const std::uint32_t w = out[call.back().edge++];
        if (!is_active(w)) continue;
        if (index[w] == kUnvisited) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          call.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      } else {
        call.pop_back();
        if (!call.empty()) {
          low[call.back().v] = std::min(low[call.back().v], low[v]);
        }
        if (low[v] == index[v]) {
          for (;;) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc_id[w] = scc_count;
            if (members != nullptr) members->push_back(w);
            if (w == v) break;
          }
          ++scc_count;
        }
      }
    }
  }
  return scc_count;
}

}  // namespace motsim

#endif  // MOTSIM_ANALYSIS_SCC_H
