#include "protocol/split_kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>

#include "graph/maxflow.hpp"

namespace bftcup::protocol {
namespace {

constexpr std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << i; }

/// Calls fn(i) for every set bit i of `mask`, ascending.
template <typename Fn>
void for_each_bit(std::uint64_t mask, const Fn& fn) {
  while (mask != 0) {
    fn(static_cast<std::size_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
}

/// Members of `mask` reachable from its lowest member along `adj` (the
/// out-masks: forward reachability; the in-masks: backward).
std::uint64_t reach_within(const std::vector<std::uint64_t>& adj,
                           std::uint64_t mask) {
  std::uint64_t seen = mask & (~mask + 1);
  std::uint64_t frontier = seen;
  while (frontier != 0) {
    std::uint64_t next = 0;
    for_each_bit(frontier, [&](std::size_t i) { next |= adj[i]; });
    frontier = next & mask & ~seen;
    seen |= frontier;
  }
  return seen;
}

}  // namespace

SplitKernel::SplitKernel(const KnowledgeView& view, const IdSet& members)
    : members_(members) {
  const auto& ids = members_.values();
  const std::size_t n = ids.size();
  assert(n >= 1 && n <= kMaxMembers && "SplitKernel member set out of range");
  out_.assign(n, 0);
  in_.assign(n, 0);

  // Every (target, naming member) pair, sorted by target: the targets in
  // order are W, and each pair's position maps back to its member's list.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> named;
  pd_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const IdSet* pd = view.pd_of(ids[i]);
    assert(pd != nullptr && "SplitKernel members must be received");
    pd_begin_[i + 1] = pd_begin_[i] + static_cast<std::uint32_t>(pd->size());
    for (ProcessId t : *pd) {
      named.emplace_back(t.raw(), static_cast<std::uint32_t>(i));
    }
  }
  std::sort(named.begin(), named.end());

  pd_.resize(named.size());
  std::vector<std::uint32_t> cursor(pd_begin_.begin(), pd_begin_.end() - 1);
  std::size_t member = 0;  // merge cursor over the sorted member ids
  for (const auto& [raw, owner] : named) {
    if (targets_.empty() || targets_.back().raw() != raw) {
      targets_.emplace_back(raw);
      namers_.push_back(0);
      while (member < n && ids[member].raw() < raw) ++member;
      self_.push_back(member < n && ids[member].raw() == raw ? bit(member)
                                                             : 0);
    }
    const auto w = static_cast<std::uint32_t>(targets_.size() - 1);
    namers_[w] |= bit(owner);
    pd_[cursor[owner]++] = w;
    if (self_[w] != 0 && self_[w] != bit(owner)) {
      // owner -> member edge inside C ("i knows itself" is no edge).
      const auto to = static_cast<std::size_t>(std::countr_zero(self_[w]));
      out_[owner] |= self_[w];
      in_[to] |= bit(owner);
    }
  }
}

std::uint64_t SplitKernel::mask_of(const IdSet& s1) const {
  const auto& ids = members_.values();
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (ProcessId id : s1) {
    while (i < ids.size() && ids[i] < id) ++i;
    assert(i < ids.size() && ids[i] == id && "S1 must be a subset of C");
    mask |= bit(i);
  }
  return mask;
}

std::size_t SplitKernel::kappa(std::uint64_t s1) const {
  const auto n = static_cast<std::size_t>(std::popcount(s1));
  if (n < 2) return 0;
  if (reach_within(out_, s1) != s1 || reach_within(in_, s1) != s1) return 0;

  // The certificates graph::strong_connectivity applies, in its order: a
  // complete graph has κ = n-1, and a degree bound of 1 pins κ to 1.
  bool complete = true;
  std::size_t bound = n;
  for_each_bit(s1, [&](std::size_t i) {
    const std::uint64_t out = out_[i] & s1;
    complete = complete && out == (s1 & ~bit(i));
    bound = std::min<std::size_t>(
        {bound, static_cast<std::size_t>(std::popcount(out)),
         static_cast<std::size_t>(std::popcount(in_[i] & s1))});
  });
  if (complete) return n - 1;
  if (bound <= 1) return 1;

  // Unit-capacity split network over S1's members in ascending order: node
  // 2v = v_in, 2v+1 = v_out (graph/connectivity.cpp's BatchedSplitFlow).
  std::array<std::size_t, 64> local{};
  std::array<std::size_t, 64> member_of{};
  std::size_t next = 0;
  for_each_bit(s1, [&](std::size_t i) {
    member_of[next] = i;
    local[i] = next++;
  });
  graph::MaxFlow& flow = graph::thread_flow_arena();
  flow.reset(2 * n);
  for (std::size_t v = 0; v < n; ++v) flow.add_edge(2 * v, 2 * v + 1, 1);
  for (std::size_t u = 0; u < n; ++u) {
    for_each_bit(out_[member_of[u]] & s1, [&](std::size_t j) {
      flow.add_edge(2 * u + 1, 2 * local[j], 1);
    });
  }
  const auto count = [&flow](std::size_t from, std::size_t to,
                             std::size_t limit) {
    flow.reset_flow();
    return static_cast<std::size_t>(
        flow.run(2 * from + 1, 2 * to, static_cast<int>(limit)));
  };

  // Probing every pair against min(n, bound + 3) pivots is exact: the
  // pivot argument of graph::strong_connectivity's large-graph path holds
  // at every size (with n pivots it is the all-pairs loop).
  const std::size_t pivots = std::min(n, bound + 3);
  std::size_t best = bound;
  for (std::size_t p = 0; p < pivots; ++p) {
    for (std::size_t v = 0; v < n; ++v) {
      if (v == p) continue;
      best = std::min(best, count(p, v, best));
      best = std::min(best, count(v, p, best));
      // Strongly connected means κ >= 1: nothing can lower it further.
      if (best <= 1) return 1;
    }
  }
  return best;
}

EvalScratch::SplitMemo SplitKernel::evaluate(std::uint64_t s1) const {
  EvalScratch::SplitMemo out;
  out.kappa = kappa(s1);
  if (out.kappa == 0) return out;

  // P4: the number of S1 members naming each target outside S1 (0 for
  // targets inside S1 or named by no S1 member).
  thread_local std::vector<std::uint32_t> in_count;
  in_count.resize(targets_.size());
  for (std::size_t w = 0; w < targets_.size(); ++w) {
    in_count[w] = (self_[w] & s1) != 0
                      ? 0
                      : static_cast<std::uint32_t>(std::popcount(namers_[w] & s1));
  }
  // P3: a member escapes S1 ∪ S2(g) iff the least in-count among its
  // outside targets is <= g; histogram those minima by value.
  std::array<std::size_t, 65> escape_min{};
  for_each_bit(s1, [&](std::size_t i) {
    std::uint32_t least = 0;
    for (std::uint32_t k = pd_begin_[i]; k < pd_begin_[i + 1]; ++k) {
      const std::uint32_t c = in_count[pd_[k]];
      if (c != 0 && (least == 0 || c < least)) least = c;
    }
    if (least != 0) ++escape_min[least];
  });

  // g is bounded by P2 (g <= κ-1) and P1 (2g+1 <= |S1|).
  const auto n = static_cast<std::size_t>(std::popcount(s1));
  const std::size_t g_max = std::min(out.kappa - 1, (n - 1) / 2);
  std::size_t escapes = 0;
  for (std::size_t g = 0; g <= g_max; ++g) {
    escapes += escape_min[g];
    if (escapes > g) continue;
    IdSet s2;
    for (std::size_t w = 0; w < targets_.size(); ++w) {
      if (in_count[w] > g) s2.insert(targets_[w]);  // ascending: appends
    }
    out.splits.push_back({g, std::move(s2)});
  }
  return out;
}

}  // namespace bftcup::protocol
