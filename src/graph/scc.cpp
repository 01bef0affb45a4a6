#include "graph/scc.hpp"

#include <algorithm>

namespace bftcup::graph {
namespace {

/// Iterative Tarjan over vertices 0..n-1; out(v) yields v's out-neighbours
/// in visiting order, id_of(v) names v in the members.
template <typename OutFn, typename IdFn>
SccResult tarjan(std::size_t n, OutFn out, IdFn id_of,
                 detail::TarjanWork& work) {
  SccResult result;
  result.component.assign(n, 0);
  if (n == 0) return result;

  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  work.index.assign(n, kUnset);
  work.lowlink.assign(n, 0);
  work.on_stack.assign(n, false);
  work.stack.clear();
  work.frames.clear();
  auto& index = work.index;
  auto& lowlink = work.lowlink;
  auto& on_stack = work.on_stack;
  auto& stack = work.stack;
  auto& frames = work.frames;
  std::size_t next_index = 0;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnset) continue;
    frames.push_back({root, 0});
    while (!frames.empty()) {
      auto& f = frames.back();
      const std::size_t v = f.v;
      if (f.child == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      const auto children = out(v);
      if (f.child < children.size()) {
        const std::size_t w = children[f.child++];
        if (index[w] == kUnset) {
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          work.component_ids.clear();
          for (;;) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            result.component[w] = result.count;
            work.component_ids.push_back(id_of(w));
            if (w == v) break;
          }
          result.members.emplace_back(std::vector<ProcessId>(
              work.component_ids.begin(), work.component_ids.end()));
          ++result.count;
        }
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }
  return result;
}

}  // namespace

SccResult strongly_connected_components(const Digraph& g) {
  detail::TarjanWork work;
  return tarjan(
      g.vertex_count(),
      [&g](std::size_t v) { return std::span<const std::size_t>(g.out(v)); },
      [&g](std::size_t v) { return g.id_of(v); }, work);
}

bool is_strongly_connected(const Digraph& g) {
  if (g.vertex_count() == 0) return false;
  return strongly_connected_components(g).count == 1;
}

SccResult CsrScc::run(std::span<const ProcessId> ids) {
  return tarjan(
      vertex_count(),
      [this](std::size_t v) {
        return std::span<const std::size_t>(targets_.data() + offsets_[v],
                                            targets_.data() + offsets_[v + 1]);
      },
      [ids](std::size_t v) { return ids[v]; }, work_);
}

CsrScc& thread_scc_arena() {
  thread_local CsrScc arena;
  return arena;
}

}  // namespace bftcup::graph
