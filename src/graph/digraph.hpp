// Directed graph over sparse ProcessIds.
//
// Knowledge connectivity graphs (paper §II-C) have processes as vertices and
// an edge (i, j) iff i initially knows j. IDs are sparse, so the graph keeps
// an id<->dense-index mapping; all algorithms run on dense indices.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace bftcup::graph {

class Digraph {
 public:
  Digraph() = default;

  /// Builds a graph with the given vertices and no edges.
  explicit Digraph(const IdSet& vertices);

  /// Adds a vertex (no-op if present). Returns its dense index.
  std::size_t add_vertex(ProcessId id);

  /// Adds edge i -> j, inserting missing endpoints. Self-loops are ignored
  /// ("i knows itself" carries no information). Returns true if the edge is
  /// new.
  bool add_edge(ProcessId from, ProcessId to);

  /// add_edge without the duplicate scan — the caller guarantees the edge
  /// is not already present (e.g. projecting edges of a graph that already
  /// de-duplicated them). The scan is O(out-degree), which turns building a
  /// dense induced subgraph cubic; this keeps it linear in the edges. Both
  /// endpoints must already be vertices.
  void add_edge_unchecked(ProcessId from, ProcessId to);

  /// add_edge_unchecked by dense indices (from != to; no self-loop check).
  void add_edge_unchecked(std::size_t from, std::size_t to);

  [[nodiscard]] bool has_vertex(ProcessId id) const;
  [[nodiscard]] bool has_edge(ProcessId from, ProcessId to) const;

  [[nodiscard]] std::size_t vertex_count() const { return ids_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  /// Dense index for an id; nullopt if absent.
  [[nodiscard]] std::optional<std::size_t> index_of(ProcessId id) const;
  [[nodiscard]] ProcessId id_of(std::size_t index) const {
    return ids_[index];
  }

  /// All vertex ids, sorted.
  [[nodiscard]] IdSet vertices() const;

  /// Out-/in-neighbors by dense index (sorted by insertion then normalized).
  [[nodiscard]] const std::vector<std::size_t>& out(std::size_t v) const {
    return out_[v];
  }
  [[nodiscard]] const std::vector<std::size_t>& in(std::size_t v) const {
    return in_[v];
  }

  [[nodiscard]] IdSet out_neighbors(ProcessId id) const;
  [[nodiscard]] IdSet in_neighbors(ProcessId id) const;

  /// Subgraph induced by `keep` (vertices outside the graph are ignored) —
  /// G_di[U] in the paper's notation.
  [[nodiscard]] Digraph induced(const IdSet& keep) const;

  /// The undirected counterpart G of G_di (paper §II-C): same vertices, each
  /// directed edge mirrored.
  [[nodiscard]] Digraph undirected_counterpart() const;

  /// True if the undirected counterpart is connected (trivially true for
  /// empty/singleton graphs).
  [[nodiscard]] bool weakly_connected() const;

  /// Vertices reachable from `from` following directed edges (including
  /// `from` itself). Empty set if `from` is not a vertex.
  [[nodiscard]] IdSet reachable_from(ProcessId from) const;

  friend bool operator==(const Digraph&, const Digraph&);

 private:
  std::vector<ProcessId> ids_;
  std::unordered_map<ProcessId, std::size_t> index_;
  std::vector<std::vector<std::size_t>> out_;
  std::vector<std::vector<std::size_t>> in_;
  std::size_t edge_count_ = 0;
};

}  // namespace bftcup::graph
