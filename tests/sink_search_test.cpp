#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"
#include "graph/figures.hpp"
#include "graph/generators.hpp"
#include "protocol/sink.hpp"
#include "protocol/sink_search.hpp"

namespace bftcup::protocol {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

bool has_candidate(const std::vector<SinkCandidate>& cs, const IdSet& members,
                   std::size_t g) {
  return std::any_of(cs.begin(), cs.end(), [&](const SinkCandidate& c) {
    return c.g == g && c.members() == members;
  });
}

TEST(ExhaustiveSearchTest, FindsPaperExampleCandidate) {
  const auto inst = graph::figures::fig1b();
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  view.add_pd(p(3), inst.graph.out_neighbors(p(3)));
  view.add_pd(p(4), IdSet{p(1), p(2), p(3)});

  const ExhaustiveSinkSearch search;
  const auto candidates = search.candidates(view);
  EXPECT_TRUE(has_candidate(candidates, IdSet{p(1), p(2), p(3), p(4)}, 1));
}

TEST(ExhaustiveSearchTest, EmptyViewNoCandidatesAtPositiveG) {
  KnowledgeView view(p(1), IdSet{p(2)});
  const ExhaustiveSinkSearch search;
  for (const SinkCandidate& c : search.candidates(view)) {
    EXPECT_EQ(c.g, 0U);  // nothing stronger than the trivial candidates
  }
}

TEST(ExhaustiveSearchTest, Fig2cFindsBothHalves) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig2c().graph);
  const ExhaustiveSinkSearch search;
  const auto candidates = search.candidates(view);
  EXPECT_TRUE(
      has_candidate(candidates, IdSet{p(1), p(2), p(3), p(4)}, 1));
  EXPECT_TRUE(
      has_candidate(candidates, IdSet{p(5), p(6), p(7), p(8)}, 1));
}

TEST(ExhaustiveSearchTest, OversizedSccTakesCertificationPath) {
  graph::Digraph g;
  for (std::uint64_t a = 1; a <= 8; ++a) {
    for (std::uint64_t b = 1; b <= 8; ++b) {
      if (a != b) g.add_edge(p(a), p(b));
    }
  }
  SearchOptions options;
  options.exhaustive_cap = 4;  // K8's SCC exceeds the cap -> big-SCC path
  const ExhaustiveSinkSearch search(options);
  const auto candidates = search.candidates(KnowledgeView::omniscient(g));
  // The component itself is certified: K8 has κ = 7 and no outside edges,
  // so (S1 = K8, S2 = ∅) is admissible up to g = (|S1|-1)/2 = 3.
  IdSet all;
  for (std::uint64_t a = 1; a <= 8; ++a) all.insert(p(a));
  for (std::size_t g_val : {0U, 1U, 2U, 3U}) {
    EXPECT_TRUE(has_candidate(candidates, all, g_val)) << "g=" << g_val;
  }
  // No subsets beyond the sampled C \ D family sneak in at higher g.
  for (const SinkCandidate& c : candidates) EXPECT_LE(c.g, 3U);
}

TEST(ExhaustiveSearchTest, SampledSccSharesOneKernelAcrossWorkers) {
  // A 20-member component above exhaustive_cap but within a split kernel:
  // its C \ D samples fan out over workers that all read the one kernel
  // of C. Candidates must equal the serial ones, cold and incremental.
  Rng rng(17);
  graph::Digraph g;
  for (std::uint64_t a = 1; a <= 20; ++a) {
    g.add_edge(p(a), p(a % 20 + 1));  // a ring keeps it strongly connected
    for (std::uint64_t b = 1; b <= 20; ++b) {
      if (a != b && rng.chance(0.6)) g.add_edge(p(a), p(b));
    }
    g.add_edge(p(a), p(100 + a % 3));  // targets outside the component
  }
  const KnowledgeView view = KnowledgeView::omniscient(g);
  for (bool incremental : {false, true}) {
    SearchOptions options;
    options.exhaustive_cap = 4;
    options.incremental = incremental;
    const auto serial = ExhaustiveSinkSearch(options).candidates(view);
    ASSERT_FALSE(serial.empty());
    options.parallel_eval = 4;
    EXPECT_EQ(ExhaustiveSinkSearch(options).candidates(view), serial)
        << "incremental=" << incremental;
  }
}

TEST(StructuredSearchTest, FindsWholeSccCandidates) {
  // A realistic in-protocol view: an A-side process of fig2c that has
  // received only A-side PDs. The received-knowledge SCC is the K4, which
  // the structured strategy tries directly.
  const auto inst = graph::figures::fig2c();
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  for (std::uint64_t id : {2, 3, 4}) {
    view.add_pd(p(id), inst.graph.out_neighbors(p(id)));
  }
  const StructuredSinkSearch search;
  const auto candidates = search.candidates(view);
  EXPECT_TRUE(has_candidate(candidates, IdSet{p(1), p(2), p(3), p(4)}, 1));
}

TEST(StructuredSearchTest, RemovalsRecoverSubsets) {
  // Fig. 1b knowledge with 4's fake PD pointing back: the satisfying
  // S1 = {1,2,3} is the K4 SCC minus one node — reachable with removal_cap 1.
  const auto inst = graph::figures::fig1b();
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  view.add_pd(p(2), inst.graph.out_neighbors(p(2)));
  view.add_pd(p(3), inst.graph.out_neighbors(p(3)));
  view.add_pd(p(4), IdSet{p(1), p(2), p(3)});

  SearchOptions options;
  options.removal_cap = 1;
  const StructuredSinkSearch search(options);
  const auto candidates = search.candidates(view);
  EXPECT_TRUE(has_candidate(candidates, IdSet{p(1), p(2), p(3), p(4)}, 1));
}

class StrategyAgreementTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StrategyAgreementTest, StructuredFindsWhatExhaustiveFinds) {
  // On generated BFT-CUP systems, any member-set the exhaustive strategy
  // finds at the true f must also be found by the structured strategy
  // (possibly via different witnesses).
  Rng rng(GetParam());
  graph::generators::BftCupParams params;
  params.f = 1;
  params.sink_size = 5;
  params.non_sink = 3;
  params.byzantine_in_sink = 1;
  const auto sys = graph::generators::random_bft_cup(params, rng);
  const auto view = KnowledgeView::omniscient(sys.graph);

  const ExhaustiveSinkSearch exhaustive;
  const StructuredSinkSearch structured;
  const auto ce = exhaustive.candidates(view);
  const auto cs = structured.candidates(view);

  for (const SinkCandidate& c : ce) {
    if (c.g != params.f) continue;
    EXPECT_TRUE(has_candidate(cs, c.members(), c.g))
        << "structured missed members set of size " << c.members().size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyAgreementTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(TryFindSinkTest, RequiresExactG) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig3b().graph);
  const ExhaustiveSinkSearch search;
  // At f = 2 the K5 core (+ absorbed Byzantine) is found...
  const auto at2 = try_find_sink(view, 2, search);
  ASSERT_TRUE(at2.has_value());
  EXPECT_EQ(at2->members, view.known());
  // ... and an absurd threshold finds nothing.
  EXPECT_FALSE(try_find_sink(view, 3, search).has_value());
}

TEST(TryFindSinkTest, ReturnsMembersUnionS1S2) {
  const auto view =
      KnowledgeView::omniscient(graph::figures::fig1b().graph);
  const ExhaustiveSinkSearch search;
  const auto sink = try_find_sink(view, 1, search);
  ASSERT_TRUE(sink.has_value());
  EXPECT_EQ(sink->members, sink->s1.set_union(sink->s2));
  EXPECT_EQ(sink->members, (IdSet{p(1), p(2), p(3), p(4)}));
}

}  // namespace
}  // namespace bftcup::protocol
