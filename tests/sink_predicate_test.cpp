// Pins the isSink evaluations the paper states explicitly.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "graph/connectivity.hpp"
#include "graph/figures.hpp"
#include "protocol/sink_predicate.hpp"
#include "protocol/split_kernel.hpp"

namespace bftcup::protocol {
namespace {

ProcessId p(std::uint64_t raw) {
  return ProcessId(raw);
}

KnowledgeView omniscient(const graph::Digraph& g) {
  return KnowledgeView::omniscient(g);
}

TEST(IsSinkTest, Fig1bScenarioFromSectionIII) {
  // "process 2 is slow, process 4 sends P = {1,2,3} as its PD": process 1's
  // view holds PDs of 1, 3, 4 — the conditions hold with S1 = {1,3,4},
  // S2 = {2}.
  const auto inst = graph::figures::fig1b();
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  view.add_pd(p(3), inst.graph.out_neighbors(p(3)));
  view.add_pd(p(4), IdSet{p(1), p(2), p(3)});

  const auto s2 = is_sink(view, 1, IdSet{p(1), p(3), p(4)});
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, (IdSet{p(2)}));
  EXPECT_TRUE(is_sink(view, 1, IdSet{p(1), p(3), p(4)}, IdSet{p(2)}));
}

TEST(IsSinkTest, Fig1bFullKnowledgeS1AllCorrectSink) {
  // Scenario I: Byzantine 4 silent, all correct PDs received.
  const auto inst = graph::figures::fig1b();
  const IdSet correct = inst.graph.vertices().set_difference(inst.faulty);
  KnowledgeView view(p(1), inst.graph.out_neighbors(p(1)));
  for (ProcessId id : correct) {
    view.add_pd(id, inst.graph.out_neighbors(id));
  }
  const auto s2 = is_sink(view, 1, IdSet{p(1), p(2), p(3)});
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, (IdSet{p(4)}));  // silent Byzantine absorbed via P4
}

TEST(IsSinkTest, ObservationOneOnFig2c) {
  // "isSink(1, {1,2,3}, {4}) = true and isSink(1, {6,7,8}, {5}) = true".
  const auto view = omniscient(graph::figures::fig2c().graph);
  EXPECT_TRUE(is_sink(view, 1, IdSet{p(1), p(2), p(3)}, IdSet{p(4)}));
  EXPECT_TRUE(is_sink(view, 1, IdSet{p(6), p(7), p(8)}, IdSet{p(5)}));
}

TEST(IsSinkTest, Fig3aNonSinkDeclaration) {
  // "isSink(2, {1,2,3,4,6}, {5,7}) = true" (Section IV).
  const auto view = omniscient(graph::figures::fig3a().graph);
  EXPECT_TRUE(is_sink(view, 2, IdSet{p(1), p(2), p(3), p(4), p(6)},
                      IdSet{p(5), p(7)}));
}

TEST(IsSinkTest, Fig3aTrueSinkAlsoDeclarable) {
  const auto view = omniscient(graph::figures::fig3a().graph);
  EXPECT_TRUE(is_sink(view, 1, IdSet{p(5), p(7), p(8)}, IdSet{}));
}

TEST(IsSinkTest, P1SizeViolation) {
  const auto view = omniscient(graph::figures::fig2c().graph);
  // |S1| = 2 < 2*1+1.
  EXPECT_FALSE(is_sink(view, 1, IdSet{p(1), p(2)}).has_value());
}

TEST(IsSinkTest, P2ConnectivityViolation) {
  // A directed 3-cycle has κ = 1 < f+1 = 2.
  graph::Digraph g;
  g.add_edge(p(1), p(2));
  g.add_edge(p(2), p(3));
  g.add_edge(p(3), p(1));
  const auto view = omniscient(g);
  EXPECT_FALSE(is_sink(view, 1, IdSet{p(1), p(2), p(3)}).has_value());
}

TEST(IsSinkTest, S1MustBeReceived) {
  const auto inst = graph::figures::fig2c().graph;
  KnowledgeView view(p(1), inst.out_neighbors(p(1)));
  // Process 1 knows 2 and 3 but has not received their PDs.
  EXPECT_FALSE(is_sink(view, 1, IdSet{p(1), p(2), p(3)}).has_value());
}

TEST(IsSinkTest, P3EscapeViolation) {
  // Fig. 4a's B-side: 5->4, 6->3, 7->2 escape and cannot be absorbed.
  const auto view = omniscient(graph::figures::fig4a().graph);
  EXPECT_FALSE(is_sink(view, 1, IdSet{p(5), p(6), p(7), p(8)}).has_value());
  EXPECT_FALSE(is_sink(view, 1, IdSet{p(5), p(6), p(8)}).has_value());
  EXPECT_FALSE(is_sink(view, 1, IdSet{p(6), p(7), p(8)}).has_value());
}

TEST(IsSinkTest, ExplicitS2MustMatchDerived) {
  const auto view = omniscient(graph::figures::fig2c().graph);
  EXPECT_FALSE(is_sink(view, 1, IdSet{p(1), p(2), p(3)}, IdSet{}));
  EXPECT_FALSE(is_sink(view, 1, IdSet{p(1), p(2), p(3)}, IdSet{p(4), p(5)}));
}

TEST(AdmissibleThresholdsTest, CompleteK5) {
  graph::Digraph g;
  for (std::uint64_t a = 1; a <= 5; ++a) {
    for (std::uint64_t b = 1; b <= 5; ++b) {
      if (a != b) g.add_edge(p(a), p(b));
    }
  }
  const auto view = omniscient(g);
  const IdSet all = g.vertices();
  const auto splits = admissible_thresholds(view, all);
  ASSERT_EQ(splits.size(), 3U);  // g ∈ {0, 1, 2}
  EXPECT_EQ(splits.back().g, 2U);
  EXPECT_TRUE(splits.back().s2.empty());
}

TEST(AdmissibleThresholdsTest, UnreceivedS1Empty) {
  KnowledgeView view(p(1), IdSet{p(2)});
  EXPECT_TRUE(admissible_thresholds(view, IdSet{p(2)}).empty());
}

TEST(IsSinkStarTest, Fig2cBothHalves) {
  const auto view = omniscient(graph::figures::fig2c().graph);
  const auto fa = is_sink_star(view, IdSet{p(1), p(2), p(3), p(4)});
  const auto fb = is_sink_star(view, IdSet{p(5), p(6), p(7), p(8)});
  ASSERT_TRUE(fa.has_value());
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(*fa, 1U);
  EXPECT_EQ(*fb, 1U);
}

TEST(IsSinkStarTest, RejectsNonSink) {
  const auto view = omniscient(graph::figures::fig4a().graph);
  EXPECT_FALSE(is_sink_star(view, IdSet{p(5), p(6), p(7), p(8)}).has_value());
}

TEST(IsSinkStarTest, MaximalWitnessReturned) {
  // Full fig3b graph: S1 = K5 {1,2,3,4,6} absorbs the Byzantine {5,7} into
  // S2 (every K5 member points at them), witnessing g = 2.
  const auto view = omniscient(graph::figures::fig3b().graph);
  const auto f = is_sink_star(view, view.known());
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, 2U);
}

TEST(IsSinkStarTest, SetNotCoveringDerivedS2Rejected) {
  // {1,2,3,4,6} alone is NOT isSink*-declarable on the full fig3b graph:
  // the derived S2 = {5,7} must be part of the declared set.
  const auto view = omniscient(graph::figures::fig3b().graph);
  EXPECT_FALSE(
      is_sink_star(view, IdSet{p(1), p(2), p(3), p(4), p(6)}).has_value());
}

// --- SplitKernel against the reference predicate ---------------------------

/// Member i of a kernel test set: sparse, non-consecutive ids.
ProcessId member(std::size_t i) { return p(7 * i + 3); }

/// Ids outside the member set: kNotReceived ones never send a PD, the
/// kReceivedOutsider ones do (they are in S_received but not in C).
constexpr std::uint64_t kNotReceived = 1000;
constexpr std::uint64_t kReceivedOutsider = 2000;
constexpr std::uint64_t kOutsiders = 4;

enum class Shape {
  kRandom,        ///< each in-C edge with probability `density`
  kComplete,      ///< every member names every other member
  kDisconnected,  ///< two halves, edges only from the first into the second
  kCutVertex,     ///< two cliques sharing one member: κ = 1 by flow, not degree
  kHubCut,        ///< two cliques joined only through members 0 and n/2:
                  ///< κ = 2, but every pair with member 0 carries more
};

/// A view whose received PDs over `n` members have the given shape, plus
/// self-naming, non-received and received-outsider targets.
KnowledgeView kernel_view(std::size_t n, Shape shape, double density,
                          Rng& rng) {
  KnowledgeView view;
  const std::size_t half = n / 2;
  for (std::size_t i = 0; i < n; ++i) {
    IdSet pd;
    if (rng.chance(0.5)) pd.insert(member(i));  // a PD naming its owner
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      bool edge = false;
      switch (shape) {
        case Shape::kRandom:
          edge = rng.chance(density);
          break;
        case Shape::kComplete:
          edge = true;
          break;
        case Shape::kDisconnected:
          edge = (i < half) == (j < half) ? rng.chance(density) : i < half;
          break;
        case Shape::kCutVertex:
          edge = (i <= half && j <= half) || (i >= half && j >= half);
          break;
        case Shape::kHubCut:
          edge = i == 0 || j == 0 || i == half || j == half ||
                 (i < half) == (j < half);
          break;
      }
      if (edge) pd.insert(member(j));
    }
    for (std::uint64_t k = 0; k < kOutsiders; ++k) {
      if (rng.chance(0.4)) pd.insert(p(kNotReceived + k));
      if (rng.chance(0.3)) pd.insert(p(kReceivedOutsider + k));
    }
    view.add_pd(member(i), pd);
  }
  for (std::uint64_t k = 0; k < kOutsiders; ++k) {
    view.add_pd(p(kReceivedOutsider + k), IdSet{member(0), p(kNotReceived)});
  }
  return view;
}

IdSet members_of(std::size_t n, std::uint64_t mask) {
  IdSet s1;
  for (std::size_t i = 0; i < n; ++i) {
    if ((mask >> i) & 1U) s1.insert(member(i));
  }
  return s1;
}

/// κ(K[S1]) from the graph layer: the induced graph, built edge by edge.
std::size_t reference_kappa(const KnowledgeView& view, const IdSet& s1) {
  graph::Digraph sub(s1);
  for (ProcessId id : s1) {
    for (ProcessId t : *view.pd_of(id)) {
      if (s1.contains(t)) sub.add_edge(id, t);
    }
  }
  return graph::strong_connectivity(sub);
}

/// Every (g, S2) with is_sink(view, g, S1) = S2, for g <= |S1|.
std::vector<AdmissibleSplit> reference_splits(const KnowledgeView& view,
                                              const IdSet& s1) {
  std::vector<AdmissibleSplit> out;
  for (std::size_t g = 0; g <= s1.size(); ++g) {
    if (auto s2 = is_sink(view, g, s1)) out.push_back({g, std::move(*s2)});
  }
  return out;
}

/// What a kernel test exercised, so a generator change cannot silently
/// drop a case.
struct KernelCoverage {
  std::size_t kappa_zero = 0;
  std::size_t kappa_one = 0;
  std::size_t kappa_many = 0;
  std::size_t with_splits = 0;
  std::size_t with_s2 = 0;

  void expect_all_cases() const {
    EXPECT_GT(kappa_zero, 0U);
    EXPECT_GT(kappa_one, 0U);
    EXPECT_GT(kappa_many, 0U);
    EXPECT_GT(with_splits, 0U);
    EXPECT_GT(with_s2, 0U);
  }
};

void expect_kernel_matches(const KnowledgeView& view, const SplitKernel& kernel,
                           std::size_t n, std::uint64_t mask,
                           KernelCoverage& coverage) {
  const IdSet s1 = members_of(n, mask);
  SCOPED_TRACE("|C| = " + std::to_string(n) + ", S1 mask " +
               std::to_string(mask));
  ASSERT_EQ(kernel.mask_of(s1), mask);
  const EvalScratch::SplitMemo memo = kernel.evaluate(mask);
  EXPECT_EQ(memo.kappa, reference_kappa(view, s1));
  const std::vector<AdmissibleSplit> reference = reference_splits(view, s1);
  EXPECT_EQ(memo.splits, reference);
  // The public entry point routes S1 onto a kernel of its own.
  EXPECT_EQ(admissible_thresholds(view, s1), reference);

  ++(memo.kappa == 0 ? coverage.kappa_zero
                     : memo.kappa == 1 ? coverage.kappa_one
                                       : coverage.kappa_many);
  if (!reference.empty()) ++coverage.with_splits;
  for (const AdmissibleSplit& split : reference) {
    if (!split.s2.empty()) ++coverage.with_s2;
  }
}

TEST(SplitKernelTest, EverySubsetOfSmallSetsMatchesReference) {
  Rng rng(13);
  KernelCoverage coverage;
  for (std::size_t n = 1; n <= 9; ++n) {
    for (Shape shape : {Shape::kRandom, Shape::kComplete, Shape::kDisconnected,
                        Shape::kCutVertex, Shape::kHubCut}) {
      for (double density : {0.3, 0.7}) {
        const KnowledgeView view = kernel_view(n, shape, density, rng);
        const SplitKernel kernel(view, members_of(n, (1ULL << n) - 1));
        for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
          expect_kernel_matches(view, kernel, n, mask, coverage);
        }
      }
    }
  }
  coverage.expect_all_cases();
}

TEST(SplitKernelTest, SampledSubsetsUpToSixtyThreeMembersMatchReference) {
  Rng rng(29);
  KernelCoverage coverage;
  for (std::size_t n : {12, 17, 24, 33, 47, 63}) {
    for (Shape shape : {Shape::kRandom, Shape::kComplete, Shape::kDisconnected,
                        Shape::kCutVertex, Shape::kHubCut}) {
      // The reference pays an all-pairs flow per threshold: random shapes
      // stay sparse, and the clique shapes stop at 33 members.
      const bool cliques = shape == Shape::kCutVertex || shape == Shape::kHubCut;
      if (cliques && n > 33) continue;
      const KnowledgeView view = kernel_view(n, shape, 6.0 / n, rng);
      const std::uint64_t all = (1ULL << n) - 1;
      const SplitKernel kernel(view, members_of(n, all));
      expect_kernel_matches(view, kernel, n, all, coverage);
      for (int sample = 0; sample < 6; ++sample) {
        // S1 sizes spread over 1..n: drop each member with one probability.
        const double keep = 0.2 + 0.15 * sample;
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.chance(keep)) mask |= 1ULL << i;
        }
        if (mask != 0) expect_kernel_matches(view, kernel, n, mask, coverage);
      }
    }
  }
  coverage.expect_all_cases();
}

TEST(SplitKernelTest, SccKernelRoutingMatchesReferenceAtEverySize) {
  // A complete 66-member component: no kernel covers it, so the component
  // itself takes the reference path while its <= 63-member subsets get
  // kernels of their own — all agreeing with is_sink.
  constexpr std::size_t n = 66;
  Rng rng(31);
  const KnowledgeView view = kernel_view(n, Shape::kComplete, 1.0, rng);
  const IdSet scc =
      members_of(64, ~0ULL).set_union(IdSet{member(64), member(65)});
  ASSERT_GT(scc.size(), SplitKernel::kMaxMembers);
  EXPECT_EQ(admissible_thresholds(view, scc), reference_splits(view, scc));
  IdSet s1 = scc;
  s1.erase(member(0));
  s1.erase(member(5));
  s1.erase(member(64));
  ASSERT_EQ(s1.size(), SplitKernel::kMaxMembers);
  EXPECT_EQ(admissible_thresholds(view, s1), reference_splits(view, s1));

  // A component within the bound: its kernel answers every subset, as the
  // searches ask it (a mask of the component's members).
  const IdSet small = members_of(12, (1ULL << 12) - 1);
  const SplitKernel covered(view, small);
  const IdSet part = members_of(12, 0b101101110111);
  EXPECT_EQ(covered.evaluate(covered.mask_of(part)).splits,
            reference_splits(view, part));
  EXPECT_EQ(admissible_thresholds(view, part), reference_splits(view, part));
}

}  // namespace
}  // namespace bftcup::protocol
