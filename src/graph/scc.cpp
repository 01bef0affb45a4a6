#include "graph/scc.hpp"

#include <algorithm>

namespace bftcup::graph {
namespace {

/// Iterative Tarjan over vertices 0..n-1; out(v) yields v's out-neighbours
/// in visiting order. Each component is handed to emit(vertices) as it
/// closes — Tarjan's natural order, a component after every component it
/// can reach — with its vertices in stack order; the span is valid only
/// for the call.
template <typename OutFn, typename EmitFn>
void tarjan(std::size_t n, OutFn out, detail::TarjanWork& work,
            EmitFn emit) {
  if (n == 0) return;

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
          // v's component is the stack from v upwards.
          std::size_t begin = stack.size();
          do {
            on_stack[stack[--begin]] = false;
          } while (stack[begin] != v);
          emit(std::span<const std::size_t>(stack.data() + begin,
                                            stack.size() - begin));
          stack.resize(begin);
        }
        frames.pop_back();
        if (!frames.empty()) {
          lowlink[frames.back().v] =
              std::min(lowlink[frames.back().v], lowlink[v]);
        }
      }
    }
  }
}

}  // namespace

SccResult strongly_connected_components(const Digraph& g) {
  SccResult result;
  result.component.assign(g.vertex_count(), 0);
  detail::TarjanWork work;
  tarjan(
      g.vertex_count(),
      [&g](std::size_t v) { return std::span<const std::size_t>(g.out(v)); },
      work, [&](std::span<const std::size_t> vertices) {
        std::vector<ProcessId> ids;
        ids.reserve(vertices.size());
        for (std::size_t v : vertices) {
          result.component[v] = result.count;
          ids.push_back(g.id_of(v));
        }
        result.members.emplace_back(std::move(ids));
        ++result.count;
      });
  return result;
}

bool is_strongly_connected(const Digraph& g) {
  if (g.vertex_count() == 0) return false;
  return strongly_connected_components(g).count == 1;
}

std::vector<IdSet> CsrScc::run(std::span<const ProcessId> ids) {
  std::vector<IdSet> components;
  tarjan(
      vertex_count(),
      [this](std::size_t v) {
        return std::span<const std::size_t>(targets_.data() + offsets_[v],
                                            targets_.data() + offsets_[v + 1]);
      },
      work_, [&](std::span<const std::size_t> vertices) {
        if (vertices.size() < 2) return;
        std::vector<ProcessId> members;
        members.reserve(vertices.size());
        for (std::size_t v : vertices) members.push_back(ids[v]);
        components.emplace_back(std::move(members));
      });
  return components;
}

CsrScc& thread_scc_arena() {
  thread_local CsrScc arena;
  return arena;
}

}  // namespace bftcup::graph
