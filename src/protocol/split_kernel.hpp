// Dense bitmask kernel for the membership predicate over the subsets of one
// member set (README "Membership engine caching").
//
// The candidate searches evaluate κ(K[S1]) and the admissible (g, S2)
// splits for many subsets S1 of one SCC C of the received-knowledge graph.
// Everything those evaluations read — the members' PDs — is fixed for C, so
// the kernel precomputes it once, over dense member indices:
//   * each member's in-C out- and in-adjacency as a 64-bit mask,
//   * W: the ascending union of the members' PD targets, with the mask of
//     members naming each target,
//   * each member's PD as a list of indices into W.
// An S1 ⊆ C is then a mask: κ runs mask reachability, the complete-graph
// and degree-bound early exits, then unit-capacity split flows over
// popcount(S1) nodes; P4 in-counts are popcounts of the naming masks; P3
// escape minima come from the per-member target lists; S2(g) is one
// ordered pass over W.
//
// Results equal the reference computation (induced graph, connectivity,
// outside counts in sink_predicate.cpp) bit for bit — the kernel test in
// tests/sink_predicate_test.cpp cross-validates both against is_sink and
// graph::strong_connectivity. Member sets above kMaxMembers do not fit a
// mask and stay on the reference path.
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/eval_cache.hpp"

namespace bftcup::protocol {

class SplitKernel {
 public:
  /// Largest member set a kernel covers: subsets are 64-bit masks, and the
  /// exhaustive enumerations stop at 2^63 subsets.
  static constexpr std::size_t kMaxMembers = 63;

  /// Precomputes the kernel of `members`, which must be non-empty, at most
  /// kMaxMembers large, and fully received in `view`.
  SplitKernel(const KnowledgeView& view, const IdSet& members);

  /// The mask of S1 ⊆ members: bit i stands for the i-th smallest member.
  [[nodiscard]] std::uint64_t mask_of(const IdSet& s1) const;

  /// κ(K[S1]) — equal to graph::strong_connectivity of the induced graph —
  /// and every admissible split of S1, ascending in g: the memo entry the
  /// reference computation produces for the same S1.
  [[nodiscard]] EvalScratch::SplitMemo evaluate(std::uint64_t s1) const;

 private:
  [[nodiscard]] std::size_t kappa(std::uint64_t s1) const;

  IdSet members_;
  std::vector<std::uint64_t> out_;  ///< per member: in-C out-neighbors
  std::vector<std::uint64_t> in_;   ///< per member: in-C in-neighbors
  std::vector<ProcessId> targets_;  ///< W, ascending
  std::vector<std::uint64_t> namers_;  ///< per W entry: members naming it
  std::vector<std::uint64_t> self_;    ///< per W entry: its own member bit
  std::vector<std::uint32_t> pd_begin_;  ///< per member: offset into pd_
  std::vector<std::uint32_t> pd_;        ///< W indices of each member's PD
};

}  // namespace bftcup::protocol
