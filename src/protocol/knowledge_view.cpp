#include "protocol/knowledge_view.hpp"

#include "common/bitset64.hpp"
#include "obs/span_tracer.hpp"
#include "protocol/eval_cache.hpp"

namespace bftcup::protocol {

// Out of line: EvalScratch is incomplete in the header.
KnowledgeView::KnowledgeView() = default;
KnowledgeView::KnowledgeView(KnowledgeView&&) noexcept = default;
KnowledgeView& KnowledgeView::operator=(KnowledgeView&&) noexcept = default;
KnowledgeView::~KnowledgeView() = default;

KnowledgeView::KnowledgeView(const KnowledgeView& other)
    : known_(other.known_),
      received_(other.received_),
      pds_(other.pds_),
      revision_(other.revision_) {}

KnowledgeView& KnowledgeView::operator=(const KnowledgeView& other) {
  if (this == &other) return *this;
  known_ = other.known_;
  received_ = other.received_;
  pds_ = other.pds_;
  revision_ = other.revision_;
  // Content may have changed entirely; drop the derived state rather than
  // inherit the source's (copies may diverge — see header).
  snapshot_revision_ = kNoRevision;
  snapshot_ = SccSnapshot{};
  scratch_.reset();
  return *this;
}

KnowledgeView::KnowledgeView(ProcessId self, const IdSet& own_pd) {
  known_.insert(self);
  known_.insert_all(own_pd);
  add_pd(self, own_pd);
}

bool KnowledgeView::add_pd(ProcessId owner, const IdSet& pd) {
  bool changed = known_.insert(owner);
  changed |= known_.insert_all(pd) > 0;
  if (!pds_.contains(owner)) {
    pds_.emplace(owner, pd);
    received_.insert(owner);
    changed = true;
  }
  if (changed) ++revision_;
  return changed;
}

bool KnowledgeView::add_known(ProcessId id) {
  const bool changed = known_.insert(id);
  if (changed) ++revision_;
  return changed;
}

const IdSet* KnowledgeView::pd_of(ProcessId owner) const {
  auto it = pds_.find(owner);
  return it == pds_.end() ? nullptr : &it->second;
}

graph::Digraph KnowledgeView::knowledge_graph() const {
  graph::Digraph g;
  for (ProcessId id : known_) g.add_vertex(id);
  for (const auto& [owner, pd] : pds_) {
    for (ProcessId target : pd) g.add_edge(owner, target);
  }
  return g;
}

graph::Digraph KnowledgeView::received_graph() const {
  // pds_ is keyed by received_, so owners arrive in vertex-index order.
  graph::Digraph g(received_);
  std::size_t owner = 0;
  for (const auto& [id, pd] : pds_) {
    for (ProcessId target : pd) {
      if (target == id) continue;
      if (const auto to = g.index_of(target)) g.add_edge_unchecked(owner, *to);
    }
    ++owner;
  }
  return g;
}

const KnowledgeView::SccSnapshot& KnowledgeView::received_scc_snapshot() const {
  if (snapshot_revision_ != revision_) {
    const obs::ScopedSpan span("membership.received_graph", received_.size());
    snapshot_.received_graph = received_graph();
    snapshot_.sccs = graph::strongly_connected_components(snapshot_.received_graph);
    snapshot_revision_ = revision_;
  }
  return snapshot_;
}

EvalScratch& KnowledgeView::eval_scratch() const {
  if (!scratch_) {
    scratch_ = scratch_mr_ != nullptr
                   ? std::make_unique<EvalScratch>(scratch_mr_)
                   : std::make_unique<EvalScratch>();
  }
  return *scratch_;
}

std::size_t KnowledgeView::out_reach_count(const IdSet& s1,
                                           const IdSet& targets) const {
  // |S1| · |PD| membership tests against `targets`; adaptive probe keeps
  // the quorum check linear-ish for large target sets.
  const AdaptiveIdProbe probe(targets);
  std::size_t count = 0;
  for (ProcessId i : s1) {
    const IdSet* pd = pd_of(i);
    if (pd == nullptr) continue;
    for (ProcessId t : *pd) {
      if (probe.contains(t)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

std::size_t KnowledgeView::in_degree_from(const IdSet& s1,
                                          ProcessId target) const {
  std::size_t count = 0;
  for (ProcessId i : s1) {
    const IdSet* pd = pd_of(i);
    if (pd != nullptr && pd->contains(target)) ++count;
  }
  return count;
}

KnowledgeView KnowledgeView::omniscient(const graph::Digraph& g) {
  KnowledgeView view;
  const IdSet vertices = g.vertices();
  view.known_ = vertices;
  for (ProcessId id : vertices) {
    view.received_.insert(id);
    view.pds_.emplace(id, g.out_neighbors(id));
  }
  ++view.revision_;
  return view;
}

}  // namespace bftcup::protocol
