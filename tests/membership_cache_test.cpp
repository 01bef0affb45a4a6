// The incremental membership engine's contract: every cache layer stores
// pure functions of immutable inputs, so results are bit-identical with
// caching on or off.
//
// 1. Property: across randomized add_pd sequences on random_cupft and
//    committee_of_committees graphs, an incremental strategy (dirty-SCC
//    candidate reuse + big-SCC split memo, persistent across steps) returns
//    the exact candidate sequence of a cold search, for both strategies;
//    no one-member component and no kernel-sized split reaches a memo.
// 2. The per-simulation shared evaluation cache returns the cold result
//    and reports hits once views converge.
// 3. The signature-verification memo serves accepts AND rejects without
//    changing outcomes.
// 4. Regression: SearchOptions::exhaustive_cap >= 64 no longer shifts a
//    64-bit mask out of range (UB) — oversized caps are clamped and
//    oversized SCCs are skipped promptly.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/verify_cache.hpp"
#include "cup/scenario_registry.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "protocol/core.hpp"
#include "protocol/eval_cache.hpp"
#include "protocol/sink.hpp"
#include "protocol/sink_search.hpp"
#include "protocol/split_kernel.hpp"

namespace bftcup {
namespace {

using protocol::EvalScratch;
using protocol::ExhaustiveSinkSearch;
using protocol::KnowledgeView;
using protocol::SearchOptions;
using protocol::SharedEvalCache;
using protocol::SinkCandidate;
using protocol::StructuredSinkSearch;

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

/// All (owner, PD) pairs of a graph, in a deterministic shuffled order.
std::vector<std::pair<ProcessId, IdSet>> shuffled_pds(const graph::Digraph& g,
                                                      Rng& rng) {
  std::vector<std::pair<ProcessId, IdSet>> pds;
  for (ProcessId id : g.vertices()) {
    pds.emplace_back(id, g.out_neighbors(id));
  }
  rng.shuffle(pds);
  return pds;
}

/// One-member components never enter the engine, and kernel-sized splits
/// are evaluated directly, so no memo key of the view can be a singleton.
void expect_no_singleton_keys(const KnowledgeView& view) {
  const EvalScratch& scratch = view.eval_scratch();
  for (const auto& [key, cache] : scratch.strategies) {
    for (const auto& entry : cache.by_scc) {
      EXPECT_GE(entry.first.size(), 2U) << key;
    }
  }
  for (const auto& entry : scratch.splits) {
    EXPECT_GE(entry.first.size(), 2U);
  }
}

template <typename Strategy>
void expect_incremental_matches_cold(const graph::Digraph& g,
                                     std::uint64_t seed) {
  Rng rng(seed);
  const auto pds = shuffled_pds(g, rng);
  ASSERT_FALSE(pds.empty());

  SearchOptions warm_options;
  warm_options.incremental = true;
  SearchOptions cold_options;
  cold_options.incremental = false;
  const Strategy warm(warm_options);
  const Strategy cold(cold_options);

  KnowledgeView view(pds.front().first, pds.front().second);
  for (std::size_t i = 1; i < pds.size(); ++i) {
    view.add_pd(pds[i].first, pds[i].second);
    // Same view, same options apart from the memo flag: the candidate
    // sequences must be identical element-for-element (order included —
    // downstream tie-breaks depend on it).
    const std::vector<SinkCandidate> warm_result = warm.candidates(view);
    const std::vector<SinkCandidate> cold_result = cold.candidates(view);
    ASSERT_EQ(warm_result, cold_result)
        << "strategy=" << warm.name() << " seed=" << seed << " step=" << i;
    expect_no_singleton_keys(view);
  }
  // The warm run must actually have exercised the candidate cache: the
  // final view's SCCs are stored on their second enumeration and served
  // from the cache on the third (two-touch admission).
  for (int again = 0; again < 2; ++again) {
    ASSERT_EQ(warm.candidates(view), cold.candidates(view))
        << "strategy=" << warm.name() << " seed=" << seed;
  }
  EXPECT_GT(view.eval_scratch().stats.scc_hits, 0U) << warm.name();
}

/// A small committee-of-committees system: ring committees below a complete
/// root, knowledge flowing strictly upward, so most components of a
/// partially received view are singletons.
graph::generators::GeneratedSystem small_committees(std::uint64_t seed) {
  Rng rng(seed);
  graph::generators::HierarchyParams params;
  params.committee_size = 6;
  params.branching = 3;
  params.total = 60;
  return graph::generators::committee_of_committees(params, rng);
}

TEST(IncrementalSearchPropertyTest, ExhaustiveMatchesColdOnRandomCupft) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 101);
    graph::generators::CupftParams params;
    params.f = 1;
    params.core_size = 5 + seed % 3;
    params.periphery = 6;
    const auto sys = graph::generators::random_cupft(params, rng);
    expect_incremental_matches_cold<ExhaustiveSinkSearch>(sys.graph, seed);
  }
}

TEST(IncrementalSearchPropertyTest, StructuredMatchesColdOnRandomCupft) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 131);
    graph::generators::CupftParams params;
    params.f = 1;
    params.core_size = 5 + seed % 3;
    params.periphery = 8;
    const auto sys = graph::generators::random_cupft(params, rng);
    expect_incremental_matches_cold<StructuredSinkSearch>(sys.graph, seed);
  }
}

TEST(IncrementalSearchPropertyTest, ExhaustiveMatchesColdOnCommittees) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_incremental_matches_cold<ExhaustiveSinkSearch>(
        small_committees(seed).graph, seed);
  }
}

TEST(IncrementalSearchPropertyTest, StructuredMatchesColdOnCommittees) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_incremental_matches_cold<StructuredSinkSearch>(
        small_committees(seed).graph, seed);
  }
}

TEST(IncrementalSearchPropertyTest, SplitMemoSurvivesUnrelatedAddPd) {
  // The per-S1 split memo serves components above the kernel size and is
  // never invalidated; adding an unrelated PD must leave memoized answers
  // equal to a cold recomputation. A complete graph on 70 processes is one
  // such component; a complete 4-process committee beside it is
  // kernel-sized and must be evaluated without touching the memo.
  graph::Digraph g;
  IdSet big;
  for (std::uint64_t i = 1; i <= 70; ++i) big.insert(p(i));
  IdSet small{p(101), p(102), p(103), p(104)};
  for (const IdSet* component : {&big, &small}) {
    for (ProcessId a : *component) {
      for (ProcessId b : *component) {
        if (a != b) g.add_edge(a, b);
      }
    }
  }
  KnowledgeView view = KnowledgeView::omniscient(g);

  const StructuredSinkSearch warm;  // defaults: incremental
  const auto before = warm.candidates(view);

  // The big component's κ must have been memoized during enumeration, and
  // must match an independent computation.
  const auto memo_kappa = view.eval_scratch().memoized_kappa(big);
  ASSERT_TRUE(memo_kappa.has_value());
  EXPECT_EQ(*memo_kappa,
            graph::strong_connectivity(view.knowledge_graph().induced(big)));
  // The kernel-sized committee has candidates but no memo entry.
  const auto in_small = [&](const SinkCandidate& c) { return c.s1 == small; };
  EXPECT_TRUE(std::any_of(before.begin(), before.end(), in_small));
  EXPECT_FALSE(view.eval_scratch().memoized_kappa(small).has_value());
  for (const auto& entry : view.eval_scratch().splits) {
    EXPECT_GT(entry.first.size(), protocol::SplitKernel::kMaxMembers);
  }

  // A brand-new process advertising a PD full of fresh ids: known() grows,
  // received() grows, no existing SCC changes membership.
  view.add_pd(p(900), IdSet{p(901), p(902)});
  const auto after = warm.candidates(view);

  SearchOptions cold_options;
  cold_options.incremental = false;
  const StructuredSinkSearch cold(cold_options);
  EXPECT_EQ(after, cold.candidates(view));
  EXPECT_EQ(after, before);
  // The re-enumeration (second touch of the big component) was answered
  // from the memo, and κ memo entries survive unrelated revisions
  // untouched.
  EXPECT_GT(view.eval_scratch().stats.split_hits, 0U);
  EXPECT_EQ(view.eval_scratch().memoized_kappa(big), memo_kappa);
}

TEST(SharedEvalCacheTest, SinkResultMatchesColdAndReportsHits) {
  const auto sys = [] {
    Rng rng(3);
    graph::generators::BftCupParams params;
    return graph::generators::random_bft_cup(params, rng);
  }();
  const KnowledgeView view = KnowledgeView::omniscient(sys.graph);
  const ExhaustiveSinkSearch search;

  SharedEvalCache cache(true);
  const auto cold = protocol::try_find_sink(view, sys.f, search);
  const auto first = protocol::try_find_sink(view, sys.f, search, &cache);
  const auto second = protocol::try_find_sink(view, sys.f, search, &cache);

  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->members, cold->members);
  EXPECT_EQ(second->members, cold->members);
  EXPECT_EQ(second->s1, cold->s1);
  EXPECT_EQ(second->s2, cold->s2);
  EXPECT_EQ(cache.stats().evaluations, 2U);
  EXPECT_EQ(cache.stats().hits, 1U);

  // Disabled memo: still counts, never hits.
  SharedEvalCache counting_only(false);
  (void)protocol::try_find_sink(view, sys.f, search, &counting_only);
  (void)protocol::try_find_sink(view, sys.f, search, &counting_only);
  EXPECT_EQ(counting_only.stats().evaluations, 2U);
  EXPECT_EQ(counting_only.stats().hits, 0U);
}

TEST(SharedEvalCacheTest, CoreResultKeyedByViewDigest) {
  const auto view_a =
      KnowledgeView::omniscient(graph::figures::fig4a().graph);
  const auto view_b =
      KnowledgeView::omniscient(graph::figures::fig4b().graph);
  const ExhaustiveSinkSearch search;
  SharedEvalCache cache(true);

  const auto a1 = protocol::try_find_core(view_a, search, &cache);
  const auto b1 = protocol::try_find_core(view_b, search, &cache);
  const auto a2 = protocol::try_find_core(view_a, search, &cache);
  EXPECT_EQ(cache.stats().evaluations, 3U);
  EXPECT_EQ(cache.stats().hits, 1U);  // only the repeated view hits
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a1->members, a2->members);
  ASSERT_TRUE(b1.has_value());
  EXPECT_NE(a1->members, b1->members);
}

TEST(VerifyCacheTest, MemoizesAcceptsAndRejects) {
  crypto::KeyRegistry registry(42);
  crypto::VerifyCache cache(true);
  const Bytes payload = to_bytes("hello");
  const crypto::Signature good = registry.sign_as(p(1), payload);
  crypto::Signature forged = good;
  forged.bytes[0] ^= 0xff;

  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(cache.verify(registry, p(1), payload, good));
    EXPECT_FALSE(cache.verify(registry, p(1), payload, forged));
    // Same signature under the wrong signer must also (cachedly) fail.
    EXPECT_FALSE(cache.verify(registry, p(2), payload, good));
  }
  EXPECT_EQ(cache.stats().lookups, 9U);
  EXPECT_EQ(cache.stats().hits, 6U);  // everything after the first round

  crypto::VerifyCache disabled(false);
  EXPECT_TRUE(disabled.verify(registry, p(1), payload, good));
  EXPECT_TRUE(disabled.verify(registry, p(1), payload, good));
  EXPECT_EQ(disabled.stats().lookups, 2U);
  EXPECT_EQ(disabled.stats().hits, 0U);
}

TEST(SearchOptionsTest, OversizedExhaustiveCapIsClampedNotUndefined) {
  SearchOptions huge;
  huge.exhaustive_cap = 1000;
  EXPECT_EQ(huge.validated().exhaustive_cap, 63U);

  // A 70-member cycle is one big SCC. Un-clamped, enumeration would shift a
  // 64-bit mask by 70 (UB) and then walk 2^70 subsets; clamped, the SCC
  // takes the big-SCC certification path: the component itself is evaluated
  // (a 70-cycle has κ = 1, no outside edges, so exactly (C, ∅, g=0)) and
  // every sampled C \ D is refuted (κ = 0 once the ring is broken).
  graph::Digraph cycle;
  for (std::uint64_t i = 1; i <= 70; ++i) {
    cycle.add_edge(p(i), p(i % 70 + 1));
  }
  const auto view = KnowledgeView::omniscient(cycle);
  IdSet all;
  for (std::uint64_t i = 1; i <= 70; ++i) all.insert(p(i));
  const ExhaustiveSinkSearch search(huge);
  const auto candidates = search.candidates(view);
  ASSERT_EQ(candidates.size(), 1U);
  EXPECT_EQ(candidates[0].s1, all);
  EXPECT_TRUE(candidates[0].s2.empty());
  EXPECT_EQ(candidates[0].g, 0U);

  SearchOptions cold = huge;
  cold.incremental = false;
  EXPECT_EQ(ExhaustiveSinkSearch(cold).candidates(view), candidates);
}

TEST(RunReportCacheStatsTest, SurfacedAndExcludedFromDigest) {
  const auto& registry = cup::ScenarioRegistry::paper();
  const cup::RunReport warm = registry.run("fig1b/silent", 1);
  EXPECT_GT(warm.evaluations, 0U);
  EXPECT_GT(warm.signatures_verified + warm.signatures_cached, 0U);

  const cup::Scenario cold_scenario =
      registry.builder("fig1b/silent", 1).caching(false).build();
  const cup::RunReport cold = cup::run_scenario(cold_scenario);
  EXPECT_EQ(cold.eval_cache_hits, 0U);
  EXPECT_EQ(cold.signatures_cached, 0U);
  // The cache knobs change the counters but never the replayed behavior.
  EXPECT_EQ(warm.digest(), cold.digest());
}

}  // namespace
}  // namespace bftcup
