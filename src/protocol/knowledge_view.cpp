#include "protocol/knowledge_view.hpp"

#include <algorithm>

#include "common/bitset64.hpp"
#include "graph/scc.hpp"
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
  snapshot_.clear();
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
  const auto& owners = received_.values();
  const auto at = std::lower_bound(owners.begin(), owners.end(), owner);
  if (at == owners.end() || *at != owner) {
    // Same slot received_.insert picks, so the table stays parallel.
    pds_.insert(pds_.begin() + (at - owners.begin()), pd);
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
  const auto& owners = received_.values();
  const auto at = std::lower_bound(owners.begin(), owners.end(), owner);
  if (at == owners.end() || *at != owner) return nullptr;
  return &pds_[static_cast<std::size_t>(at - owners.begin())];
}

graph::Digraph KnowledgeView::knowledge_graph() const {
  graph::Digraph g;
  for (ProcessId id : known_) g.add_vertex(id);
  for (std::size_t i = 0; i < pds_.size(); ++i) {
    for (ProcessId target : pds_[i]) g.add_edge(received_.values()[i], target);
  }
  return g;
}

std::vector<IdSet> KnowledgeView::received_sccs() const {
  const obs::ScopedSpan span("membership.received_graph", received_.size());
  const auto& owners = received_.values();
  graph::CsrScc& csr = graph::thread_scc_arena();
  csr.reset();
  for (std::size_t i = 0; i < owners.size(); ++i) {
    // PD targets ascend, so each lookup resumes where the last one stopped.
    auto cursor = owners.begin();
    for (ProcessId target : pds_[i]) {
      if (target == owners[i]) continue;
      cursor = std::lower_bound(cursor, owners.end(), target);
      if (cursor == owners.end()) break;
      if (*cursor == target) {
        csr.add_edge(static_cast<std::size_t>(cursor - owners.begin()));
      }
    }
    csr.end_vertex();
  }
  return csr.run(owners);
}

const std::vector<IdSet>& KnowledgeView::received_scc_snapshot() const {
  if (snapshot_revision_ != revision_) {
    snapshot_ = received_sccs();
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
  view.received_ = vertices;
  view.pds_.reserve(vertices.size());
  for (ProcessId id : vertices) view.pds_.push_back(g.out_neighbors(id));
  ++view.revision_;
  return view;
}

}  // namespace bftcup::protocol
