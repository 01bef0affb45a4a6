// A process's local knowledge state, shared by the sink predicate, the
// search strategies, and the Discovery algorithm.
//
// Mirrors Algorithm 1's three sets:
//   S_received -> received() (ascending ids, contiguous)
//   S_PD       -> pd_at(i), the PD of received()'s i-th owner, kept in a
//                 table parallel to received(); pd_of(owner) binary-searches
//                 received() for the index. Signatures are checked before
//                 insertion by the caller, so the view stores plain sets.
//   S_known    -> known()
//
// The view is *versioned*: every content change bumps a monotone revision
// counter, and the expensive derived structures the membership engine needs
// — the SCCs of the received-knowledge graph (those of two or more members:
// a singleton holds no candidate), the big-SCC split memo, per-SCC
// candidate caches — are rebuilt lazily and only when the revision moved.
// Two invariants make this sound (see README "Membership engine caching"):
//   * PDs are immutable once received (first version wins, mirroring
//     "PD_i always returns the same set"), and
//   * known()/received() grow monotonically.
#pragma once

#include <memory>
#include <memory_resource>
#include <vector>

#include "common/types.hpp"
#include "graph/digraph.hpp"

namespace bftcup::protocol {

class EvalScratch;  // protocol/eval_cache.hpp — memo pads for the searches

class KnowledgeView {
 public:
  KnowledgeView();

  /// Initializes the view for process `self` with its own participant
  /// detector output (Alg. 1 line 1).
  KnowledgeView(ProcessId self, const IdSet& own_pd);

  // Copies carry the content but never the memo pads: a copy may diverge
  // (receive different PDs for the same owner), which would poison shared
  // caches. Moves transfer everything.
  KnowledgeView(const KnowledgeView& other);
  KnowledgeView& operator=(const KnowledgeView& other);
  KnowledgeView(KnowledgeView&&) noexcept;
  KnowledgeView& operator=(KnowledgeView&&) noexcept;
  ~KnowledgeView();

  /// Records `owner`'s PD. Returns true if this changed the view (new owner
  /// or — from a Byzantine equivocator — different contents, which the view
  /// rejects by keeping the first version, mirroring "PD_i always returns
  /// the same set"). New ids in `pd` are added to known().
  bool add_pd(ProcessId owner, const IdSet& pd);

  /// Adds a process to S_known without a PD (e.g. learned as a PD member).
  bool add_known(ProcessId id);

  [[nodiscard]] const IdSet& known() const { return known_; }
  [[nodiscard]] const IdSet& received() const { return received_; }
  /// PD of received()'s i-th owner (i < received().size()).
  [[nodiscard]] const IdSet& pd_at(std::size_t i) const { return pds_[i]; }
  /// `owner`'s PD, or null if none was received.
  [[nodiscard]] const IdSet* pd_of(ProcessId owner) const;

  /// Monotone content version: bumped by every mutation that changed the
  /// view. Derived-structure caches key their freshness on it.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// The knowledge graph K: vertices = S_known, edges j -> k for every
  /// received PD_j containing k. Only received PDs contribute edges — a
  /// process cannot use out-edges it has not seen evidence for.
  [[nodiscard]] graph::Digraph knowledge_graph() const;

  /// The SCCs of K[S_received] with at least two members, computed afresh
  /// on the thread's reused CSR buffers (graph::thread_scc_arena()):
  /// vertex i is received()[i], and its out-edges are PD_i's targets in PD
  /// order with self-loops and non-received targets dropped. Equal to the
  /// `members` of strongly_connected_components(knowledge_graph().induced(
  /// received())) with the one-member components filtered out, order kept,
  /// without building either graph. A singleton never holds a candidate
  /// S1 (P2 needs κ >= 1, hence two members), so the membership engine
  /// never sees one.
  [[nodiscard]] std::vector<IdSet> received_sccs() const;

  /// received_sccs() at the current revision, cached — the structure every
  /// warm candidate search starts from.
  [[nodiscard]] const std::vector<IdSet>& received_scc_snapshot() const;

  /// Lazily created memo pads for the membership engine (split/κ memos,
  /// per-SCC candidate caches, content digest). Logically const: everything
  /// stored is a pure function of the view content, so reads through the
  /// scratch can never change an observable result.
  [[nodiscard]] EvalScratch& eval_scratch() const;

  /// Routes the memo pads' node allocations through `mr` (the run engine's
  /// per-run arena). Must be called before the first eval_scratch() use;
  /// the view (and with it the scratch) must be destroyed before the
  /// resource is rewound. Copies deliberately do not inherit the resource —
  /// a copy's lifetime is not tied to the run that owns the arena.
  void use_scratch_resource(std::pmr::memory_resource* mr) {
    scratch_mr_ = mr;
  }

  /// Number of processes in S1 with an out-edge (per received PDs) into
  /// `targets` — the paper's  S1 --k--> targets  count.
  [[nodiscard]] std::size_t out_reach_count(const IdSet& s1,
                                            const IdSet& targets) const;

  /// Number of processes in S1 whose received PD contains `target`.
  [[nodiscard]] std::size_t in_degree_from(const IdSet& s1,
                                           ProcessId target) const;

  /// Omniscient view of a full knowledge connectivity graph: every vertex's
  /// out-neighborhood is its PD. Used by graph-level checkers and tests.
  [[nodiscard]] static KnowledgeView omniscient(const graph::Digraph& g);

 private:
  IdSet known_;
  IdSet received_;
  std::vector<IdSet> pds_;  ///< pds_[i] is the first PD of received_[i]
  std::uint64_t revision_ = 0;

  // Lazily maintained derived state. Mutable: rebuilding a cache of a pure
  // function of the content is logically const.
  static constexpr std::uint64_t kNoRevision = ~std::uint64_t{0};
  mutable std::uint64_t snapshot_revision_ = kNoRevision;
  mutable std::vector<IdSet> snapshot_;
  mutable std::unique_ptr<EvalScratch> scratch_;
  std::pmr::memory_resource* scratch_mr_ = nullptr;  ///< null = default heap
};

}  // namespace bftcup::protocol
