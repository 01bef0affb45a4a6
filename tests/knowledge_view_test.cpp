#include <gtest/gtest.h>

#include <map>

#include "common/random.hpp"
#include "graph/figures.hpp"
#include "graph/scc.hpp"
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

/// Same vertex indices, same adjacency order, both directions — what SCC
/// enumeration order (and therefore candidate order) depends on.
void expect_identical_graphs(const graph::Digraph& a, const graph::Digraph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    EXPECT_EQ(a.id_of(v), b.id_of(v));
    EXPECT_EQ(a.out(v), b.out(v));
    EXPECT_EQ(a.in(v), b.in(v));
  }
}

TEST(KnowledgeViewTest, ReceivedGraphMatchesInducedKnowledgeGraph) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::uint64_t ids = 4 + rng.next_below(20);
    const auto random_pd = [&] {
      IdSet pd;
      // Ids past `ids` are never sent a PD for: known, never received.
      for (std::uint64_t t = 1; t <= ids + 3; ++t) {
        if (rng.chance(0.3)) pd.insert(p(t));
      }
      return pd;
    };
    std::map<ProcessId, IdSet> first_pd{{p(1), random_pd()}};
    KnowledgeView view(p(1), first_pd[p(1)]);
    for (int step = 0; step < 30; ++step) {
      // Re-adds of an already received owner — equivocations — must be
      // ignored by both constructions.
      const ProcessId owner = p(1 + rng.next_below(ids));
      const IdSet pd = random_pd();
      first_pd.emplace(owner, pd);
      view.add_pd(owner, pd);
      if (rng.chance(0.2)) view.add_known(p(ids + 10 + rng.next_below(5)));

      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const graph::Digraph induced =
          view.knowledge_graph().induced(view.received());
      expect_identical_graphs(view.received_graph(), induced);
      const graph::SccResult expected =
          graph::strongly_connected_components(induced);
      const auto& snapshot = view.received_scc_snapshot();
      expect_identical_graphs(snapshot.received_graph, induced);
      EXPECT_EQ(snapshot.sccs.members, expected.members);
      EXPECT_EQ(snapshot.sccs.component, expected.component);
    }
    // Edges come from each owner's first PD only.
    const graph::Digraph received = view.received_graph();
    for (const auto& [owner, pd] : first_pd) {
      IdSet expected = pd.set_intersection(view.received());
      expected.erase(owner);
      EXPECT_EQ(received.out_neighbors(owner), expected);
    }
  }
}

}  // namespace
}  // namespace bftcup::protocol
