// Strongly connected components (Tarjan, iterative).
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace bftcup::graph {

struct SccResult {
  /// component[v] = component id of dense vertex v; ids are 0..count-1 and
  /// assigned in reverse topological order of the condensation (Tarjan's
  /// natural order: an SCC's id is >= the ids of SCCs it can reach).
  std::vector<std::size_t> component;
  std::size_t count = 0;

  /// Members of each component as ProcessId sets.
  std::vector<IdSet> members;
};

[[nodiscard]] SccResult strongly_connected_components(const Digraph& g);

/// True if g (with >= 1 vertex) is strongly connected.
[[nodiscard]] bool is_strongly_connected(const Digraph& g);

namespace detail {

/// Tarjan's working arrays, kept between runs by CsrScc.
struct TarjanWork {
  struct Frame {
    std::size_t v;
    std::size_t child;  ///< next out-edge position to visit
  };
  std::vector<std::size_t> index;
  std::vector<std::size_t> lowlink;
  std::vector<bool> on_stack;
  std::vector<std::size_t> stack;
  std::vector<Frame> frames;
};

}  // namespace detail

/// The strongly connected components of at least two members of a graph
/// given as a CSR adjacency over dense vertices 0..n-1, for the membership
/// engine (KnowledgeView::received_sccs()). A one-member component is left
/// out: no S1 inside it can pass P2 (κ(K[S1]) >= 1 needs two members), and
/// in a knowledge graph under discovery most components are singletons.
/// An instance doubles as a reusable arena: reset() clears the graph but
/// keeps every buffer's capacity (Tarjan's work arrays included), so a
/// caller that takes SCCs once per small update allocates only the result.
///
/// Build vertex by vertex in ascending order: add_edge() appends an
/// out-neighbour of the vertex being built, end_vertex() closes it.
class CsrScc {
 public:
  CsrScc() { reset(); }

  void reset() {
    offsets_.assign(1, 0);
    targets_.clear();
  }
  void add_edge(std::size_t to) { targets_.push_back(to); }
  void end_vertex() { offsets_.push_back(targets_.size()); }

  [[nodiscard]] std::size_t vertex_count() const {
    return offsets_.size() - 1;
  }

  /// Tarjan over the built adjacency, vertex v named ids[v] (ids.size() ==
  /// vertex_count()): the components of two or more members, in the order
  /// strongly_connected_components(const Digraph&) lists them for a Digraph
  /// with the same vertex order and out-adjacency order — its `members`
  /// with the singletons dropped. Both share one iterative Tarjan.
  [[nodiscard]] std::vector<IdSet> run(std::span<const ProcessId> ids);

 private:
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> targets_;
  detail::TarjanWork work_;
};

/// One CSR SCC arena per thread (a simulator runs on one thread; WorkPool
/// workers each get their own), mirroring thread_flow_arena().
[[nodiscard]] CsrScc& thread_scc_arena();

}  // namespace bftcup::graph
