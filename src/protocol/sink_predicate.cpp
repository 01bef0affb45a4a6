#include "protocol/sink_predicate.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/bitset64.hpp"
#include "common/work_pool.hpp"
#include "graph/connectivity.hpp"
#include "graph/scc.hpp"
#include "protocol/eval_cache.hpp"
#include "protocol/split_kernel.hpp"

namespace bftcup::protocol {
namespace {

/// One counting pass over S1's received PDs, shared by P4 (S2 derivation)
/// and P3 (escape counting) at *every* threshold g — the quadratic
/// re-derive-per-g loop collapses to one O(E log E) pass plus O(|S2|)
/// per threshold:
///  * in_count — every target outside S1 with the number of S1 members
///    pointing at it, ascending by id. S2(g) = {t : count(t) > g} (P4).
///  * escape_min — for each S1 member with at least one outside target,
///    the minimum in-count among those targets, sorted ascending. The
///    member's PD escapes S1 ∪ S2(g) iff one of its outside targets is
///    *not* in S2(g), i.e. iff that minimum is <= g — so the escape count
///    at g (P3) is one upper_bound.
struct OutsideCounts {
  std::vector<std::pair<std::uint64_t, std::size_t>> in_count;
  std::vector<std::size_t> escape_min;
};

/// S1 sizes below this stay serial in outside_counts: a fan-out costs two
/// dispatches plus slot merges, which only amortize on the big-SCC
/// certification path where |S1| is component-sized. Thresholding is pure
/// scheduling — the merged output is identical either way.
constexpr std::size_t kParallelProbeThreshold = 256;

/// Chunked [0, n) dispatch writing into per-chunk slots, merged by chunk
/// index. The returned vector equals the serial concatenation order.
template <typename T, typename Fill>
std::vector<T> chunked_concat(WorkPool& pool, std::size_t n, const Fill& fill) {
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (pool.workers() * 4));
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::vector<std::vector<T>> slots(chunks);
  pool.run(n, chunk, [&](std::size_t begin, std::size_t end, std::size_t) {
    fill(begin, end, slots[begin / chunk]);
  });
  std::vector<T> merged;
  std::size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  merged.reserve(total);
  for (auto& slot : slots) {
    merged.insert(merged.end(), slot.begin(), slot.end());
  }
  return merged;
}

OutsideCounts outside_counts(const KnowledgeView& view, const IdSet& s1,
                             const AdaptiveIdProbe& s1_probe) {
  OutsideCounts out;
  // The P4 counting pass (every outside target of every member PD) is the
  // one O(Σ|PD_i|) loop of the predicate; for component-sized S1s it is
  // batched per worker. Both passes end in a value sort, so per-chunk
  // slots concatenated in chunk order yield the serial vector exactly —
  // the multiset of contributions is schedule-independent.
  WorkPool* pool = usable_work_pool();
  if (pool != nullptr &&
      (pool->workers() <= 1 || s1.size() < kParallelProbeThreshold)) {
    pool = nullptr;
  }
  const auto& members = s1.values();
  std::vector<std::uint64_t> targets;  // outside targets, with multiplicity
  if (pool != nullptr) {
    targets = chunked_concat<std::uint64_t>(
        *pool, members.size(),
        [&](std::size_t begin, std::size_t end,
            std::vector<std::uint64_t>& slot) {
          for (std::size_t i = begin; i < end; ++i) {
            const IdSet* pd = view.pd_of(members[i]);
            if (pd == nullptr) continue;
            for (ProcessId t : *pd) {
              if (!s1_probe.contains(t)) slot.push_back(t.raw());
            }
          }
        });
  } else {
    for (ProcessId i : s1) {
      const IdSet* pd = view.pd_of(i);
      if (pd == nullptr) continue;
      for (ProcessId t : *pd) {
        if (!s1_probe.contains(t)) targets.push_back(t.raw());
      }
    }
  }
  std::sort(targets.begin(), targets.end());
  for (std::size_t i = 0; i < targets.size();) {
    std::size_t j = i;
    while (j < targets.size() && targets[j] == targets[i]) ++j;
    out.in_count.emplace_back(targets[i], j - i);
    i = j;
  }

  const auto count_of = [&](std::uint64_t raw) {
    const auto it = std::lower_bound(
        out.in_count.begin(), out.in_count.end(), raw,
        [](const auto& entry, std::uint64_t key) { return entry.first < key; });
    return it->second;
  };
  const auto escape_min_of = [&](std::size_t index,
                                 std::vector<std::size_t>& sink) {
    const IdSet* pd = view.pd_of(members[index]);
    if (pd == nullptr) return;
    std::size_t min_count = 0;
    bool any_outside = false;
    for (ProcessId t : *pd) {
      if (s1_probe.contains(t)) continue;
      const std::size_t c = count_of(t.raw());
      min_count = any_outside ? std::min(min_count, c) : c;
      any_outside = true;
    }
    if (any_outside) sink.push_back(min_count);
  };
  if (pool != nullptr) {
    out.escape_min = chunked_concat<std::size_t>(
        *pool, members.size(),
        [&](std::size_t begin, std::size_t end,
            std::vector<std::size_t>& slot) {
          for (std::size_t i = begin; i < end; ++i) escape_min_of(i, slot);
        });
  } else {
    for (std::size_t i = 0; i < members.size(); ++i) {
      escape_min_of(i, out.escape_min);
    }
  }
  std::sort(out.escape_min.begin(), out.escape_min.end());
  return out;
}

/// S2 at threshold g: outside processes pointed to by more than g members
/// of S1 (property P4). in_count is ascending, so inserts are ordered
/// appends.
IdSet s2_at(const OutsideCounts& counts, std::size_t g) {
  IdSet s2;
  for (const auto& [raw, count] : counts.in_count) {
    if (count > g) s2.insert(ProcessId(raw));
  }
  return s2;
}

/// Members of S1 whose PD escapes S1 ∪ S2(g) (property P3, erratum order).
std::size_t escapes_at(const OutsideCounts& counts, std::size_t g) {
  return static_cast<std::size_t>(
      std::upper_bound(counts.escape_min.begin(), counts.escape_min.end(), g) -
      counts.escape_min.begin());
}

graph::Digraph induced_knowledge(const KnowledgeView& view, const IdSet& s1,
                                 const AdaptiveIdProbe& s1_probe) {
  graph::Digraph g;
  for (ProcessId id : s1) g.add_vertex(id);
  for (ProcessId id : s1) {
    const IdSet* pd = view.pd_of(id);
    if (pd == nullptr) continue;
    // A PD is a set, so each (id, t) pair occurs once — the unchecked
    // insert keeps a dense S1 (the big-SCC certification path evaluates
    // near-complete components) quadratic instead of cubic.
    for (ProcessId t : *pd) {
      if (s1_probe.contains(t)) g.add_edge_unchecked(id, t);
    }
  }
  return g;
}

}  // namespace

std::optional<IdSet> is_sink(const KnowledgeView& view, std::size_t f,
                             const IdSet& s1) {
  // P1: size and "connectivity of S1 is computable" (S1 ⊆ S_received).
  if (s1.size() < 2 * f + 1) return std::nullopt;
  if (!s1.is_subset_of(view.received())) return std::nullopt;

  const AdaptiveIdProbe s1_probe(s1);

  // P2: κ(K[S1]) >= f+1.
  const graph::Digraph sub = induced_knowledge(view, s1, s1_probe);
  if (!graph::is_k_strongly_connected(sub, f + 1)) return std::nullopt;

  // P4 then P3 (erratum order; see header).
  const OutsideCounts counts = outside_counts(view, s1, s1_probe);
  if (escapes_at(counts, f) > f) return std::nullopt;
  return s2_at(counts, f);
}

bool is_sink(const KnowledgeView& view, std::size_t f, const IdSet& s1,
             const IdSet& s2) {
  const auto derived = is_sink(view, f, s1);
  return derived.has_value() && *derived == s2;
}

namespace {

/// The reference κ + split computation, for S1s too large for a
/// SplitKernel (big-SCC certification). `probe_words` optionally backs the
/// adaptive S1 probe with reusable (arena) storage.
EvalScratch::SplitMemo compute_thresholds(
    const KnowledgeView& view, const IdSet& s1,
    std::pmr::vector<std::uint64_t>* probe_words) {
  EvalScratch::SplitMemo out;
  const AdaptiveIdProbe s1_probe(s1, probe_words);
  out.kappa = graph::strong_connectivity(induced_knowledge(view, s1, s1_probe));
  if (out.kappa == 0) return out;

  // g is bounded by P2 (g <= κ-1) and P1 (2g+1 <= |S1|). One counting pass
  // serves every threshold.
  const OutsideCounts counts = outside_counts(view, s1, s1_probe);
  const std::size_t g_max = std::min(out.kappa - 1, (s1.size() - 1) / 2);
  for (std::size_t g = 0; g <= g_max; ++g) {
    if (escapes_at(counts, g) <= g) {
      out.splits.push_back({g, s2_at(counts, g)});
    }
  }
  return out;
}

/// Routes one fully received, non-empty S1 by size: a singleton has κ = 0
/// and no split; up to SplitKernel::kMaxMembers members go onto a kernel
/// of S1's own; larger S1s take the reference computation.
EvalScratch::SplitMemo compute_splits(
    const KnowledgeView& view, const IdSet& s1,
    std::pmr::vector<std::uint64_t>* probe_words) {
  if (s1.size() < 2) return {};
  if (s1.size() > SplitKernel::kMaxMembers) {
    return compute_thresholds(view, s1, probe_words);
  }
  const SplitKernel own(view, s1);
  return own.evaluate((std::uint64_t{1} << s1.size()) - 1);
}

}  // namespace

std::vector<AdmissibleSplit> admissible_thresholds(const KnowledgeView& view,
                                                   const IdSet& s1) {
  if (s1.empty() || !s1.is_subset_of(view.received())) return {};
  return compute_splits(view, s1, nullptr).splits;
}

const std::vector<AdmissibleSplit>& admissible_thresholds_padded(
    const KnowledgeView& view, const IdSet& s1, const EvalScratch* shared,
    EvalScratch& local) {
  static const std::vector<AdmissibleSplit> kEmpty;
  // A not-fully-received S1 has no splits but may gain some later; it must
  // not be stored (the memo has no invalidation by design).
  if (s1.empty() || !s1.is_subset_of(view.received())) return kEmpty;
  if (shared != nullptr) {
    if (const auto it = shared->splits.find(s1); it != shared->splits.end()) {
      ++local.stats.split_hits;
      return it->second.splits;
    }
  }
  if (const auto it = local.splits.find(s1); it != local.splits.end()) {
    ++local.stats.split_hits;
    return it->second.splits;
  }
  ++local.stats.split_misses;
  return local.splits
      .emplace(s1, compute_splits(view, s1, &local.probe_words))
      .first->second.splits;
}

std::optional<std::size_t> is_sink_star(const KnowledgeView& view,
                                        const IdSet& s) {
  const IdSet base = s.set_intersection(view.received());
  assert(base.size() <= 24 && "is_sink_star is exhaustive; candidate too big");
  const auto& ids = base.values();
  const std::size_t n = ids.size();
  // Release-build backstop for the assert above: a 64-bit mask cannot
  // enumerate 2^64 subsets, and shifting by >= 64 is UB. Such a candidate
  // cannot be evaluated — report "not a sink" instead of corrupting memory.
  // An empty base has no S1 at all.
  if (n == 0 || n > SplitKernel::kMaxMembers) return std::nullopt;

  const SplitKernel kernel(view, base);
  std::optional<std::size_t> best;
  // Enumerate S1 ⊆ S ∩ S_received (non-empty).
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    const EvalScratch::SplitMemo memo = kernel.evaluate(mask);
    if (memo.splits.empty()) continue;
    IdSet s1;
    s1.reserve(static_cast<std::size_t>(std::popcount(mask)));
    for (std::size_t b = 0; b < n; ++b) {
      if (mask & (std::uint64_t{1} << b)) s1.insert(ids[b]);
    }
    // The split must cover S exactly: S2 = S \ S1 is forced.
    const IdSet wanted_s2 = s.set_difference(s1);
    for (const AdmissibleSplit& split : memo.splits) {
      if (split.s2 == wanted_s2) {
        if (!best || split.g > *best) best = split.g;
      }
    }
  }
  return best;
}

}  // namespace bftcup::protocol
