// Memoization layers of the incremental membership engine.
//
// Three tiers, all storing pure functions of immutable inputs (see README
// "Membership engine caching" for the invariants and the proof sketch):
//
//  * EvalScratch — per-KnowledgeView memo pads, attached lazily to a view
//    and owned by it. Holds (a) the admissible-split / κ memo keyed by
//    canonical S1 contents, for the S1s of components above
//    SplitKernel::kMaxMembers (63) members only — big-SCC certification,
//    where κ is a max-flow on an induced graph; a kernel-sized component's
//    S1s are evaluated directly on its split kernel, which costs about what
//    a probe would, and one-member components never reach the engine at
//    all. Entries are valid forever because a received S1's splits depend
//    only on its members' PDs, which are immutable, and on known() growth
//    that provably cannot alter them; (b) per-strategy candidate
//    caches keyed by SCC member set — the dirty-SCC mechanism: an SCC whose
//    member set survived the last revision is *clean* and its candidates are
//    reused verbatim, a changed (merged/grown) SCC misses and re-enumerates;
//    (c) the view's canonical content serialization, cached per revision.
//
//  * SharedEvalCache — one per simulation, shared by every correct node.
//    Maps (strategy, parameter, canonical view bytes) to the sink/core search
//    outcome, so nodes whose knowledge states converge — the common case
//    once discovery stabilizes — pay for the exponential search once.
//
//  * crypto::VerifyCache (crypto/verify_cache.hpp) — the signature tier.
//
// Every tier is scoped to one simulator and therefore one thread.
#pragma once

#include <array>
#include <cstring>
#include <map>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/fnv.hpp"
#include "common/thread_annotations.hpp"
#include "protocol/core.hpp"
#include "protocol/sink.hpp"

namespace bftcup::protocol {

/// Per-view memo pads. Created on demand by KnowledgeView::eval_scratch();
/// never copied between views. Map nodes can be routed through a
/// sim::RunArena (the run engine's per-run bump allocator) so that the
/// memo churn of a short run costs bumps instead of mallocs; the scratch
/// dies with its view, before the arena rewinds.
class EvalScratch {
 public:
  EvalScratch() = default;
  explicit EvalScratch(std::pmr::memory_resource* mr)
      : splits(mr), strategies(mr), probe_words(mr) {}
  struct Stats {
    std::uint64_t scc_hits = 0;    ///< SCCs served from the candidate cache
    std::uint64_t scc_misses = 0;  ///< SCCs (re-)enumerated
    std::uint64_t split_hits = 0;  ///< big-SCC S1s served from the split memo
    std::uint64_t split_misses = 0;
  };

  /// Per-S1 memo entry: κ(K[S1]) and the admissible splits derived from it.
  /// Both are pure functions of the S1 members' immutable PDs, so entries
  /// are revision-invariant — one connectivity computation per canonical S1
  /// contents for the view's lifetime. Only S1s of components above
  /// SplitKernel::kMaxMembers are stored (see the file comment).
  struct SplitMemo {
    std::size_t kappa = 0;
    std::vector<AdmissibleSplit> splits;
  };
  std::pmr::map<IdSet, SplitMemo> splits;

  /// κ(K[S1]) as memoized for `s1`, or nullopt if that S1 was never costed.
  /// Debug/ablation surface: lets tests and tooling read the connectivity a
  /// search computed without re-running the max-flow.
  [[nodiscard]] std::optional<std::size_t> memoized_kappa(
      const IdSet& s1) const {
    const auto it = splits.find(s1);
    if (it == splits.end()) return std::nullopt;
    return it->second.kappa;
  }

  /// Per-strategy candidate cache: SCC member set (two or more members) ->
  /// candidates of every S1 the strategy derives from that SCC, in
  /// enumeration order. Entries
  /// are *two-touch*: the first enumeration of an SCC records only the key
  /// (cheap), the second stores the candidate vector, the third and later
  /// are hits. A view in discovery churn — where an SCC's member set
  /// rarely survives even one revision — therefore never pays the
  /// candidate-vector copy that made incremental mode a net loss on the
  /// discovery benchmark, while a stable view amortizes exactly as before
  /// at the cost of one extra enumeration.
  struct CachedCandidates {
    bool filled = false;  ///< false: SCC seen once, candidates not stored yet
    std::vector<SinkCandidate> candidates;
  };
  struct StrategyCache {
    using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
    StrategyCache() = default;
    explicit StrategyCache(allocator_type alloc) : by_scc(alloc.resource()) {}
    std::uint64_t pruned_revision = ~std::uint64_t{0};
    std::pmr::map<IdSet, CachedCandidates> by_scc;
  };
  std::pmr::map<std::string, StrategyCache> strategies;

  /// Reusable word storage for the adaptive membership probes
  /// (common/bitset64.hpp) the split computation builds per S1 — transient
  /// per call, arena-backed in pooled runs like the memo maps above.
  std::pmr::vector<std::uint64_t> probe_words;

  /// Canonical content serialization of the owning view, valid while
  /// revisions match (the shared eval cache's key material).
  std::uint64_t canon_revision = ~std::uint64_t{0};
  Bytes canon;

  /// Set per evaluation by the memoized try_find_sink/try_find_core when
  /// the shared cache's probe gate classifies the evaluation as discovery
  /// churn: a churning view re-evaluates nothing, so split/candidate
  /// memoization is pure overhead. While suspended, the search strategies
  /// bypass every memo pad (reads and writes) — results are bit-identical
  /// either way, the memos being pure caches. Cleared again by the first
  /// non-churn evaluation.
  bool memo_suspended = false;

  Stats stats;
};

/// Canonical serialization of the view's content (known set + received
/// PDs, in sorted order with length framing). Serialization equality is
/// view equality — the shared eval cache keys on these bytes directly and
/// compares byte-for-byte on lookup, so a bucket-hash collision degrades
/// to a memcmp, never to a wrong result (and no cryptographic hashing is
/// needed on this hot path at all). Cached in the view's scratch per
/// revision.
[[nodiscard]] const Bytes& view_canonical(const KnowledgeView& view);

/// One entry key of the shared evaluation cache (owning form).
struct EvalKey {
  std::string strategy;     ///< SinkSearch::cache_key()
  std::uint64_t param = 0;  ///< f for the Sink algorithm; unused for Core
  Bytes view;               ///< view_canonical bytes

  friend bool operator==(const EvalKey&, const EvalKey&) = default;
};

/// Borrowed key for allocation-free probes.
struct EvalKeyView {
  std::string_view strategy;
  std::uint64_t param = 0;
  BytesView view;
};

struct EvalKeyHash {
  using is_transparent = void;

  /// FNV-1a (common/fnv.hpp). Bucketing only; equality is a byte compare.
  std::size_t operator()(const EvalKey& k) const {
    std::size_t h = fnv1a_mix(kFnvOffsetBasis, k.strategy.data(),
                              k.strategy.size());
    h = fnv1a_mix_u64(h, k.param);
    return fnv1a_mix(h, k.view.data(), k.view.size());
  }
  std::size_t operator()(const EvalKeyView& k) const {
    std::size_t h = fnv1a_mix(kFnvOffsetBasis, k.strategy.data(),
                              k.strategy.size());
    h = fnv1a_mix_u64(h, k.param);
    return fnv1a_mix(h, k.view.data(), k.view.size());
  }
};

struct EvalKeyEq {
  using is_transparent = void;

  bool operator()(const EvalKey& a, const EvalKey& b) const { return a == b; }
  bool operator()(const EvalKeyView& a, const EvalKey& b) const {
    return a.param == b.param && a.strategy == b.strategy &&
           a.view.size() == b.view.size() &&
           (a.view.empty() ||
            std::memcmp(a.view.data(), b.view.data(), a.view.size()) == 0);
  }
  bool operator()(const EvalKey& a, const EvalKeyView& b) const {
    return operator()(b, a);
  }
};

/// Per-simulation-thread evaluation memo; see file comment. With the memo
/// disabled it still counts evaluations, so reports can show search effort
/// either way.
///
/// Results are pure functions of their content-addressed keys, so a
/// recycled run context keeps one SharedEvalCache across *all* of its runs:
/// the converged views of a topology family are identical from run to run
/// regardless of seed, which turns the exponential candidate search into a
/// digest lookup for the steady state of a batch sweep. Toggle per run with
/// set_memo_enabled; per-run counters are deltas against a stats snapshot.
///
/// Probing is gated adaptively: hashing a whole view per evaluation is a
/// net loss while discovery churns (every evaluation sees a brand-new view,
/// so probes cannot hit). The gate buckets views by log2(|S_received|) and
/// stops probing a bucket after `kProbeWarmup` consecutive missed probes,
/// retrying every `kProbeRetry`-th evaluation so converged or recurring
/// view families re-open their bucket. The gate only decides whether the
/// memo is *consulted* — results are identical either way — and it is a
/// deterministic function of the evaluation history, so replays stay
/// bit-identical.
class BFTCUP_THREAD_CONFINED SharedEvalCache {
 public:
  struct Stats {
    std::uint64_t evaluations = 0;  ///< membership evaluations requested
    std::uint64_t hits = 0;         ///< served from the digest memo
  };

  static constexpr std::uint64_t kProbeWarmup = 3;
  static constexpr std::uint64_t kProbeRetry = 8;

  explicit SharedEvalCache(bool memo_enabled = true)
      : memo_enabled_(memo_enabled) {}

  [[nodiscard]] bool memo_enabled() const { return memo_enabled_; }

  /// Per-run toggle for a recycled cache (ScenarioBuilder::eval_cache).
  /// Retained entries are simply not consulted while disabled.
  void set_memo_enabled(bool enabled) { memo_enabled_ = enabled; }

  /// Gate verdict for one evaluation (see class comment). `probe`: pay for
  /// the canonical view bytes and consult the memo. `keep_scratch`: let the view's
  /// per-eval scratch memos (split/candidate caches) run too — false for
  /// the periodic retry probes of a closed bucket, which only exist to
  /// *detect* recurrence cheaply, not to bet on it.
  struct ProbeDecision {
    bool probe = true;
    bool keep_scratch = true;
  };

  /// Counts the evaluation against its bucket and returns the gate
  /// verdict. Call once per evaluation, before find_sink/find_core.
  [[nodiscard]] ProbeDecision admit(std::size_t view_size);

  /// Feeds the gate the outcome of a probe admitted by admit().
  void record_probe(std::size_t view_size, bool hit);

  [[nodiscard]] const std::optional<SinkResult>* find_sink(
      const EvalKeyView& key) const;
  void store_sink(const EvalKeyView& key, std::optional<SinkResult> result);

  [[nodiscard]] const std::optional<CoreResult>* find_core(
      const EvalKeyView& key) const;
  void store_core(const EvalKeyView& key, std::optional<CoreResult> result);

  /// Entries currently memoized (sink + core results).
  [[nodiscard]] std::size_t entry_count() const {
    return sink_.size() + core_.size();
  }

  /// Drops every memoized result (the recycled engine's cap valve; never
  /// needed for soundness). Gate statistics and counters are kept.
  void clear_entries() {
    sink_.clear();
    core_.clear();
  }

  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Bucket {
    std::uint64_t evals = 0;
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
  };

  bool memo_enabled_;
  std::unordered_map<EvalKey, std::optional<SinkResult>, EvalKeyHash,
                     EvalKeyEq>
      sink_;
  std::unordered_map<EvalKey, std::optional<CoreResult>, EvalKeyHash,
                     EvalKeyEq>
      core_;
  /// Gate buckets indexed by bit_width(|S_received|): 0..64.
  std::array<Bucket, 65> buckets_{};
  Stats stats_;
};

}  // namespace bftcup::protocol
