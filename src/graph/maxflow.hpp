// Dinic max-flow on unit-capacity-style networks.
//
// Used by connectivity.{hpp,cpp} to count internally node-disjoint paths
// (Menger's theorem via vertex splitting). Capacities are small integers, so
// int is ample and overflow-free.
//
// An instance doubles as a reusable arena: reset(n) clears the network but
// keeps every buffer's capacity, so the κ checks that run one flow per
// vertex pair stop paying an allocation storm per pair.
#pragma once

#include <cstddef>
#include <vector>

namespace bftcup::graph {

class MaxFlow {
 public:
  /// An empty arena; call reset() before adding edges.
  MaxFlow() = default;

  explicit MaxFlow(std::size_t node_count) { reset(node_count); }

  /// Re-initializes the network for `node_count` nodes, keeping allocated
  /// capacity (edge pool, adjacency rows, BFS scratch) for reuse.
  void reset(std::size_t node_count);

  /// Adds a directed edge with the given capacity; returns the edge index
  /// (the reverse edge is index+1).
  std::size_t add_edge(std::size_t from, std::size_t to, int capacity);

  /// Restores every edge to its original capacity, keeping the network
  /// topology. Cheaper than rebuilding: the batched connectivity checks run
  /// one flow per (source, target) pair over one shared network, paying a
  /// linear sweep instead of an adjacency rebuild per pair.
  void reset_flow();

  /// Computes max flow from s to t, stopping early once `limit` units have
  /// been pushed (useful for "are there >= k disjoint paths" checks).
  /// May be called once per reset(); call reset_flow() between runs to
  /// reuse the same network for another (s, t) pair.
  int run(std::size_t s, std::size_t t, int limit = 1 << 30);

  /// Flow pushed on edge `e` (as returned by add_edge), valid after run().
  [[nodiscard]] int flow_on(std::size_t e) const;

 private:
  struct Edge {
    std::size_t to;
    int capacity;
    int original;
  };

  bool bfs(std::size_t s, std::size_t t);
  int dfs(std::size_t u, std::size_t t, int pushed);

  std::size_t node_count_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> adj_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  std::vector<std::size_t> queue_;  ///< BFS frontier, reused across phases
};

/// One flow arena per thread (a simulator runs on one thread; WorkPool
/// workers each get their own), shared by every κ computation so the
/// per-pair flows reuse buffers instead of reallocating them.
[[nodiscard]] MaxFlow& thread_flow_arena();

}  // namespace bftcup::graph
