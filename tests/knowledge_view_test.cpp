#include <gtest/gtest.h>

#include <map>

#include "common/fnv.hpp"
#include "common/random.hpp"
#include "graph/figures.hpp"
#include "graph/scc.hpp"
#include "protocol/eval_cache.hpp"
#include "protocol/knowledge_view.hpp"

namespace bftcup::protocol {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

TEST(KnowledgeViewTest, InitialStateMatchesAlgorithmOne) {
  KnowledgeView view(p(1), IdSet{p(2), p(3)});
  EXPECT_EQ(view.known(), (IdSet{p(1), p(2), p(3)}));
  EXPECT_EQ(view.received(), (IdSet{p(1)}));
  ASSERT_NE(view.pd_of(p(1)), nullptr);
  EXPECT_EQ(*view.pd_of(p(1)), (IdSet{p(2), p(3)}));
  EXPECT_EQ(view.pd_of(p(2)), nullptr);
}

TEST(KnowledgeViewTest, AddPdExpandsKnown) {
  KnowledgeView view(p(1), IdSet{p(2)});
  EXPECT_TRUE(view.add_pd(p(2), IdSet{p(3), p(4)}));
  EXPECT_TRUE(view.known().contains(p(3)));
  EXPECT_TRUE(view.known().contains(p(4)));
  EXPECT_TRUE(view.received().contains(p(2)));
}

TEST(KnowledgeViewTest, FirstPdWinsAgainstEquivocation) {
  KnowledgeView view(p(1), IdSet{});
  EXPECT_TRUE(view.add_pd(p(2), IdSet{p(3)}));
  // A second, different "PD_2" must not replace the first.
  view.add_pd(p(2), IdSet{p(4)});
  EXPECT_EQ(*view.pd_of(p(2)), (IdSet{p(3)}));
}

TEST(KnowledgeViewTest, AddPdIdempotent) {
  KnowledgeView view(p(1), IdSet{});
  EXPECT_TRUE(view.add_pd(p(2), IdSet{p(3)}));
  EXPECT_FALSE(view.add_pd(p(2), IdSet{p(3)}));
}

TEST(KnowledgeViewTest, KnowledgeGraphOnlyUsesReceivedPds) {
  KnowledgeView view(p(1), IdSet{p(2)});
  view.add_known(p(5));
  const graph::Digraph k = view.knowledge_graph();
  EXPECT_TRUE(k.has_edge(p(1), p(2)));
  EXPECT_TRUE(k.has_vertex(p(5)));
  EXPECT_TRUE(k.out_neighbors(p(2)).empty());  // PD_2 not received
}

TEST(KnowledgeViewTest, OutReachAndInDegreeCounts) {
  KnowledgeView view(p(1), IdSet{p(2), p(3)});
  view.add_pd(p(2), IdSet{p(3)});
  view.add_pd(p(3), IdSet{p(4)});
  // Processes of {1,2,3} with an out-edge into {p4}: only 3.
  EXPECT_EQ(view.out_reach_count(IdSet{p(1), p(2), p(3)}, IdSet{p(4)}), 1U);
  // In-degree of 3 from {1,2}: both point to it.
  EXPECT_EQ(view.in_degree_from(IdSet{p(1), p(2)}, p(3)), 2U);
  // Unreceived members contribute nothing.
  EXPECT_EQ(view.in_degree_from(IdSet{p(4)}, p(1)), 0U);
}

TEST(KnowledgeViewTest, OmniscientMatchesGraph) {
  const auto inst = graph::figures::fig1b();
  const KnowledgeView view = KnowledgeView::omniscient(inst.graph);
  EXPECT_EQ(view.known(), inst.graph.vertices());
  EXPECT_EQ(view.received(), inst.graph.vertices());
  for (ProcessId id : inst.graph.vertices()) {
    ASSERT_NE(view.pd_of(id), nullptr);
    EXPECT_EQ(*view.pd_of(id), inst.graph.out_neighbors(id));
  }
  // Knowledge graph reconstructs the original.
  EXPECT_EQ(view.knowledge_graph(), inst.graph);
}

/// The Digraph oracle's components of two or more members, in its order:
/// what received_sccs() must list.
std::vector<IdSet> oracle_sccs(const KnowledgeView& view) {
  const graph::SccResult all = graph::strongly_connected_components(
      view.knowledge_graph().induced(view.received()));
  std::vector<IdSet> kept;
  for (const IdSet& members : all.members) {
    if (members.size() >= 2) kept.push_back(members);
  }
  return kept;
}

/// Checks the flat view against `first_pd` (each owner's first PD) and the
/// Digraph oracle: pd_of()/pd_at() give every owner's first PD, and the
/// cached snapshot and received_sccs() (which the churn path enumerates)
/// both equal Tarjan's `members` on knowledge_graph().induced(received())
/// with the singletons dropped — order included, which candidate order
/// depends on.
void expect_flat_view_matches(const KnowledgeView& view,
                              const std::map<ProcessId, IdSet>& first_pd) {
  ASSERT_EQ(view.received().size(), first_pd.size());
  std::size_t i = 0;
  for (const auto& [owner, pd] : first_pd) {
    EXPECT_EQ(view.received().values()[i], owner);
    EXPECT_EQ(view.pd_at(i), pd);
    ASSERT_NE(view.pd_of(owner), nullptr);
    EXPECT_EQ(view.pd_of(owner), &view.pd_at(i));
    ++i;
  }
  for (ProcessId id : view.known()) {
    if (!first_pd.contains(id)) EXPECT_EQ(view.pd_of(id), nullptr);
  }
  EXPECT_EQ(view.pd_of(p(0)), nullptr);

  const std::vector<IdSet> expected = oracle_sccs(view);
  EXPECT_EQ(view.received_sccs(), expected);
  EXPECT_EQ(view.received_scc_snapshot(), expected);
}

/// Random PD over ids 1..limit.
IdSet random_pd(Rng& rng, std::uint64_t limit, double density) {
  IdSet pd;
  for (std::uint64_t t = 1; t <= limit; ++t) {
    if (rng.chance(density)) pd.insert(p(t));
  }
  return pd;
}

TEST(KnowledgeViewTest, FlatViewMatchesOracleUnderRandomOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::uint64_t ids = 4 + rng.next_below(20);
    // Ids past `ids` are never sent a PD for: known, never received.
    std::map<ProcessId, IdSet> first_pd{{p(1), random_pd(rng, ids + 3, 0.3)}};
    KnowledgeView view(p(1), first_pd[p(1)]);
    for (int step = 0; step < 30; ++step) {
      // Re-adds of an already received owner — equivocations — must keep
      // the first PD.
      const ProcessId owner = p(1 + rng.next_below(ids));
      const IdSet pd = random_pd(rng, ids + 3, 0.3);
      first_pd.emplace(owner, pd);
      view.add_pd(owner, pd);
      if (rng.chance(0.2)) view.add_known(p(ids + 10 + rng.next_below(5)));

      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      expect_flat_view_matches(view, first_pd);
    }
  }
}

TEST(KnowledgeViewTest, FlatViewMatchesOracleUnderDescendingOrder) {
  // Every owner lands at the front of the table.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    constexpr std::uint64_t kIds = 40;
    std::map<ProcessId, IdSet> first_pd{
        {p(kIds), random_pd(rng, kIds + 2, 0.15)}};
    KnowledgeView view(p(kIds), first_pd[p(kIds)]);
    for (std::uint64_t owner = kIds - 1; owner >= 1; --owner) {
      const IdSet pd = random_pd(rng, kIds + 2, 0.15);
      first_pd.emplace(p(owner), pd);
      view.add_pd(p(owner), pd);
      // An equivocating re-add of an owner already further back.
      view.add_pd(p(owner + rng.next_below(kIds - owner + 1)),
                  random_pd(rng, kIds + 2, 0.5));
      SCOPED_TRACE("seed " + std::to_string(seed) + " owner " +
                   std::to_string(owner));
      expect_flat_view_matches(view, first_pd);
    }
  }
}

TEST(KnowledgeViewTest, FlatViewMatchesOracleOnLargeView) {
  // 600 owners in shuffled order, sparse PDs spread over a wider id range,
  // plus a few hubs naming everyone: the per-PD lookup cursor must skip
  // long runs of non-received and received ids alike.
  Rng rng(99);
  constexpr std::uint64_t kOwners = 600;
  std::vector<std::uint64_t> order;
  for (std::uint64_t id = 1; id <= kOwners; ++id) order.push_back(id);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::map<ProcessId, IdSet> first_pd;
  KnowledgeView view;
  for (std::size_t step = 0; step < order.size(); ++step) {
    const ProcessId owner = p(order[step]);
    const bool hub = step % 150 == 0;
    const IdSet pd = random_pd(rng, kOwners + 50, hub ? 0.9 : 0.008);
    first_pd.emplace(owner, pd);
    view.add_pd(owner, pd);
    if (step % 25 == 0 || step + 1 == order.size()) {
      SCOPED_TRACE("step " + std::to_string(step));
      expect_flat_view_matches(view, first_pd);
    }
  }
  // The view decomposes into several components, of which the one-member
  // ones are dropped and at least one is kept.
  const std::size_t all_components =
      graph::strongly_connected_components(
          view.knowledge_graph().induced(view.received()))
          .count;
  EXPECT_GT(all_components, view.received_scc_snapshot().size());
  EXPECT_FALSE(view.received_scc_snapshot().empty());
}

TEST(KnowledgeViewTest, FlatViewEmptyAndSingleton) {
  const KnowledgeView empty;
  expect_flat_view_matches(empty, {});
  EXPECT_TRUE(empty.received_scc_snapshot().empty());
  EXPECT_TRUE(empty.received_sccs().empty());

  // Self-loop and non-received target both drop out of K[S_received],
  // leaving one one-member component, which is not listed.
  const KnowledgeView single(p(3), IdSet{p(3), p(4)});
  expect_flat_view_matches(single, {{p(3), IdSet{p(3), p(4)}}});
  EXPECT_EQ(graph::strongly_connected_components(
                single.knowledge_graph().induced(single.received()))
                .count,
            1U);
  EXPECT_TRUE(single.received_scc_snapshot().empty());
  EXPECT_TRUE(single.received_sccs().empty());
}

/// FNV-1a of view_canonical(view): the eval-cache key bytes.
std::size_t canonical_digest(const KnowledgeView& view) {
  const Bytes& bytes = view_canonical(view);
  return fnv1a_mix(kFnvOffsetBasis, bytes.data(), bytes.size());
}

TEST(KnowledgeViewTest, ViewCanonicalBytesArePinned) {
  // view_canonical bytes key the shared eval cache: they must not move
  // with how the view stores its PDs.
  KnowledgeView ascending(p(1), IdSet{p(2), p(3)});
  ascending.add_pd(p(2), IdSet{p(1), p(3)});
  ascending.add_pd(p(3), IdSet{p(1), p(2), p(4)});
  ascending.add_known(p(9));
  EXPECT_EQ(view_canonical(ascending).size(), 160U);
  EXPECT_EQ(canonical_digest(ascending), 0x6485fafd354b0935ULL);

  KnowledgeView out_of_order(p(5), IdSet{p(1), p(7)});
  out_of_order.add_pd(p(9), IdSet{p(5), p(1)});
  out_of_order.add_pd(p(1), IdSet{p(5), p(9), p(12)});
  out_of_order.add_pd(p(7), IdSet{});
  out_of_order.add_pd(p(3), IdSet{p(1)});
  out_of_order.add_pd(p(9), IdSet{p(2)});  // equivocation: ignored
  EXPECT_EQ(view_canonical(out_of_order).size(), 216U);
  EXPECT_EQ(canonical_digest(out_of_order), 0x01ea84a8806d5a57ULL);

  const KnowledgeView fig1b =
      KnowledgeView::omniscient(graph::figures::fig1b().graph);
  EXPECT_EQ(view_canonical(fig1b).size(), 368U);
  EXPECT_EQ(canonical_digest(fig1b), 0x16e11812f02ce95dULL);
}

}  // namespace
}  // namespace bftcup::protocol
