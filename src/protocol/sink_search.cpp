#include "protocol/sink_search.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <set>

#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/work_pool.hpp"
#include "obs/span_tracer.hpp"
#include "protocol/eval_cache.hpp"
#include "protocol/split_kernel.hpp"

namespace bftcup::protocol {
namespace {

/// The structured strategy's full C \ D combination sweep stops here; the
/// exhaustive strategy stops at its (clamped <= 63) subset-mask cap. Both
/// hand larger components to enumerate_big_scc.
constexpr std::size_t kStructuredEnumerationCap = 63;

thread_local std::uint64_t t_big_scc_fallbacks = 0;
thread_local bool t_big_scc_warned = false;

/// Counts an oversized component and logs the fallback warning once per
/// run (reset_big_scc_fallbacks re-arms it) — a large-n run hits this once
/// per evaluation per big component, which used to flood the log.
/// Always called on the run's own thread: the parallel drivers evaluate
/// oversized components from the caller context (their inner sample and
/// pivot loops are what fan out), so the thread-local counter and the
/// warn-once latch keep working unchanged.
void note_big_scc_fallback(std::size_t scc_size, std::size_t cap) {
  ++t_big_scc_fallbacks;
  if (t_big_scc_warned) return;
  t_big_scc_warned = true;
  LOG_WARN("sink_search") << "SCC of size " << scc_size
                          << " exceeds enumeration cap " << cap
                          << "; certifying via the sampled structured path"
                          << " (logged once per run)";
}

/// Appends `splits` as candidates with S1 = `s1`.
void append_splits(const IdSet& s1, std::vector<AdmissibleSplit>&& splits,
                   std::vector<SinkCandidate>& out) {
  for (AdmissibleSplit& split : splits) {
    out.push_back({s1, std::move(split.s2), split.g});
  }
}

/// Candidates the exhaustive strategy derives from one SCC: every non-empty
/// subset, masks ascending, each evaluated directly on the SCC's kernel (a
/// kernel evaluation costs about what a memo probe would). S1 is only
/// materialized for a mask with at least one admissible split.
void enumerate_exhaustive(const KnowledgeView& view, const IdSet& scc,
                          std::vector<SinkCandidate>& out) {
  const auto& ids = scc.values();
  const std::size_t n = ids.size();
  const SplitKernel kernel(view, scc);
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    EvalScratch::SplitMemo memo = kernel.evaluate(mask);
    if (memo.splits.empty()) continue;
    IdSet s1;
    s1.reserve(static_cast<std::size_t>(std::popcount(mask)));
    for (std::size_t b = 0; b < n; ++b) {
      // ids is sorted, so these inserts are ordered appends.
      if (mask & (std::uint64_t{1} << b)) s1.insert(ids[b]);
    }
    append_splits(s1, std::move(memo.splits), out);
  }
}

/// Candidates the structured strategy derives from one SCC: C itself, then
/// C \ D for every removal set D with |D| <= removal_cap, each evaluated
/// directly on the SCC's kernel as a mask.
void enumerate_structured(const KnowledgeView& view, const IdSet& scc,
                          std::size_t removal_cap,
                          std::vector<SinkCandidate>& out) {
  const auto& ids = scc.values();
  const std::size_t n = ids.size();
  const std::size_t cap = std::min(removal_cap, n - 1);
  const SplitKernel kernel(view, scc);
  const std::uint64_t all = (std::uint64_t{1} << n) - 1;

  append_splits(scc, kernel.evaluate(all).splits, out);
  for (std::size_t d = 1; d <= cap; ++d) {
    std::vector<std::size_t> combo(d);
    for (std::size_t i = 0; i < d; ++i) combo[i] = i;
    bool more = true;
    while (more) {
      std::uint64_t mask = all;
      for (std::size_t idx : combo) mask &= ~(std::uint64_t{1} << idx);
      EvalScratch::SplitMemo memo = kernel.evaluate(mask);
      if (!memo.splits.empty()) {
        IdSet s1 = scc;
        for (std::size_t idx : combo) s1.erase(ids[idx]);
        append_splits(s1, std::move(memo.splits), out);
      }

      // Advance to the next d-combination of {0..n-1}.
      more = false;
      for (std::size_t i = d; i-- > 0;) {
        if (combo[i] < n - d + i) {
          ++combo[i];
          for (std::size_t j = i + 1; j < d; ++j) combo[j] = combo[j - 1] + 1;
          more = true;
          break;
        }
      }
    }
  }
}

/// Fans `jobs` (dirty SCCs at or below the big-SCC threshold, paired with
/// their output slot index) out across the pool. Such components always
/// have a split kernel, so they are evaluated memo-free and workers share
/// nothing but the read-only view; candidates land in slots addressed by
/// job index, never in completion order, so the assembled output is
/// byte-identical to the serial loop.
template <typename Enumerate>
void enumerate_jobs(WorkPool& pool, const KnowledgeView& view,
                    const std::vector<const IdSet*>& jobs,
                    const std::vector<std::size_t>& job_slot,
                    std::vector<std::vector<SinkCandidate>>& slots,
                    const Enumerate& enumerate) {
  if (jobs.empty()) return;
  const std::size_t chunk =
      std::max<std::size_t>(1, jobs.size() / (pool.workers() * 8));
  pool.run(jobs.size(), chunk,
           [&](std::size_t begin, std::size_t end, std::size_t) {
             for (std::size_t j = begin; j < end; ++j) {
               enumerate(view, nullptr, *jobs[j], slots[job_slot[j]]);
             }
           });
}

/// Drives one full SCC list (cold / churn-suspended evaluations: every SCC
/// is enumerated, no candidate cache, no split memo). Serial without a
/// usable pool; otherwise small SCCs fan out while oversized ones run from
/// the caller context so their inner sample/pivot loops can use the pool
/// themselves.
template <typename Enumerate>
std::vector<SinkCandidate> enumerate_sequence(const KnowledgeView& view,
                                              std::size_t big_threshold,
                                              const std::vector<IdSet>& sccs,
                                              const Enumerate& enumerate) {
  std::vector<SinkCandidate> out;
  WorkPool* pool = usable_work_pool();
  if (pool == nullptr || pool->workers() <= 1 || sccs.size() <= 1) {
    for (const IdSet& scc : sccs) enumerate(view, nullptr, scc, out);
    return out;
  }

  std::vector<std::vector<SinkCandidate>> slots(sccs.size());
  std::vector<const IdSet*> small;
  std::vector<std::size_t> small_slot;
  std::vector<std::size_t> big;
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    if (sccs[i].size() > big_threshold) {
      big.push_back(i);
    } else {
      small.push_back(&sccs[i]);
      small_slot.push_back(i);
    }
  }
  enumerate_jobs(*pool, view, small, small_slot, slots, enumerate);
  for (std::size_t i : big) enumerate(view, nullptr, sccs[i], slots[i]);
  std::size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  out.reserve(total);
  for (auto& slot : slots) {
    out.insert(out.end(), std::make_move_iterator(slot.begin()),
               std::make_move_iterator(slot.end()));
  }
  return out;
}

/// The incremental driver shared by both strategies. Iterates the current
/// SCC decomposition in order; an SCC whose member set is present in the
/// strategy's cache is clean (PDs are immutable and known() growth cannot
/// alter its candidates — README "Membership engine caching"), everything
/// else is dirty and re-enumerated through `enumerate`, which gets the
/// view's scratch so that a component above the kernel size can answer
/// subsets costed in an earlier revision from the split memo. Output order
/// is identical to a cold run: current SCC order, and within an SCC the
/// enumeration order `enumerate` defines. With a pool installed the dirty
/// kernel-sized SCCs fan out (slots by SCC index); classification, cache
/// bookkeeping, and assembly stay on the caller, so the two-touch
/// admission logic is untouched.
template <typename Enumerate>
std::vector<SinkCandidate> incremental_candidates(const KnowledgeView& view,
                                                  const std::string& cache_key,
                                                  std::size_t big_threshold,
                                                  const Enumerate& enumerate) {
  std::vector<SinkCandidate> out;
  EvalScratch& scratch = view.eval_scratch();

  // Churn-phase evaluation (see EvalScratch::memo_suspended): enumerate at
  // cold speed — no candidate cache, no prune, no split memo, and no
  // persistent per-view snapshot (a churning view's snapshot is rebuilt
  // every revision anyway, so keeping one resident per node only adds to
  // the node's footprint). Identical output, none of the bookkeeping that
  // cannot amortize.
  if (scratch.memo_suspended) {
    return enumerate_sequence(view, big_threshold, view.received_sccs(),
                              enumerate);
  }

  const std::vector<IdSet>& sccs = view.received_scc_snapshot();
  EvalScratch::StrategyCache& cache = scratch.strategies[cache_key];

  // Drop entries for SCCs that no longer exist (they merged into a bigger
  // component); the subsets of a big one stay warm in the split memo.
  if (cache.pruned_revision != view.revision()) {
    std::vector<const IdSet*> current;
    current.reserve(sccs.size());
    for (const IdSet& scc : sccs) current.push_back(&scc);
    const auto by_value = [](const IdSet* a, const IdSet* b) {
      return *a < *b;
    };
    std::sort(current.begin(), current.end(), by_value);
    std::erase_if(cache.by_scc, [&](const auto& entry) {
      return !std::binary_search(current.begin(), current.end(), &entry.first,
                                 by_value);
    });
    cache.pruned_revision = view.revision();
  }

  WorkPool* pool = usable_work_pool();
  if (pool == nullptr || pool->workers() <= 1) {
    for (const IdSet& scc : sccs) {
      const auto it = cache.by_scc.find(scc);
      if (it != cache.by_scc.end() && it->second.filled) {
        ++scratch.stats.scc_hits;
        out.insert(out.end(), it->second.candidates.begin(),
                   it->second.candidates.end());
        continue;
      }
      ++scratch.stats.scc_misses;
      // Two-touch admission (see EvalScratch::CachedCandidates): record the
      // key on first sight, store the candidate vector only once the same
      // member set survives to a second enumeration. Discovery-churn SCCs
      // are pruned before their second touch and never pay the copy.
      if (it == cache.by_scc.end()) {
        enumerate(view, &scratch, scc, out);  // straight into the output
        cache.by_scc.emplace(scc, EvalScratch::CachedCandidates{});
        continue;
      }
      std::vector<SinkCandidate> fresh;
      enumerate(view, &scratch, scc, fresh);
      out.insert(out.end(), fresh.begin(), fresh.end());
      it->second.filled = true;
      it->second.candidates = std::move(fresh);
    }
    return out;
  }

  // Parallel path: classify on the caller (cache probes and stats), fan
  // dirty SCCs out into index-addressed slots, assemble + fill the cache
  // in SCC order afterwards. Candidate content and order are identical to
  // the serial loop above.
  const std::size_t n = sccs.size();
  enum class Touch : unsigned char { kHit, kFirst, kSecond };
  std::vector<Touch> touch(n, Touch::kHit);
  std::vector<std::vector<SinkCandidate>> slots(n);
  std::vector<const IdSet*> small;
  std::vector<std::size_t> small_slot;
  std::vector<std::size_t> big;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = cache.by_scc.find(sccs[i]);
    if (it != cache.by_scc.end() && it->second.filled) {
      ++scratch.stats.scc_hits;
      continue;
    }
    ++scratch.stats.scc_misses;
    touch[i] = it == cache.by_scc.end() ? Touch::kFirst : Touch::kSecond;
    if (sccs[i].size() > big_threshold) {
      big.push_back(i);
    } else {
      small.push_back(&sccs[i]);
      small_slot.push_back(i);
    }
  }
  enumerate_jobs(*pool, view, small, small_slot, slots, enumerate);
  // Oversized components run from the caller context so their sample and
  // pivot fan-outs can take the pool themselves (a dispatch from inside a
  // task would be rejected; usable_work_pool() would hand them nullptr).
  for (std::size_t i : big) enumerate(view, &scratch, sccs[i], slots[i]);
  for (std::size_t i = 0; i < n; ++i) {
    switch (touch[i]) {
      case Touch::kHit: {
        const auto it = cache.by_scc.find(sccs[i]);
        out.insert(out.end(), it->second.candidates.begin(),
                   it->second.candidates.end());
        break;
      }
      case Touch::kFirst:
        out.insert(out.end(), slots[i].begin(), slots[i].end());
        cache.by_scc.emplace(sccs[i], EvalScratch::CachedCandidates{});
        break;
      case Touch::kSecond: {
        out.insert(out.end(), slots[i].begin(), slots[i].end());
        const auto it = cache.by_scc.find(sccs[i]);
        it->second.filled = true;
        it->second.candidates = std::move(slots[i]);
        break;
      }
    }
  }
  return out;
}

/// Split-memo routing for the candidates of a component above
/// SplitKernel::kMaxMembers, the one place the memo still pays. `local`
/// takes memo reads and writes (the view's scratch serially, a worker's
/// own pad during the sample fan-out; null = no memo). `shared` is a
/// read-only overlay consulted before `local` — the view's scratch, frozen
/// while the fan-out is in flight; the pads are merged back into it in
/// worker-index order after the join. Everything memoized is a pure
/// function of the view, so pad contents are schedule-independent.
struct EvalPads {
  EvalScratch* local = nullptr;
  const EvalScratch* shared = nullptr;
};

/// Appends every admissible split of `s1`, a subset of the component C
/// being certified: on C's kernel when C has one (`kernel` non-null), else
/// through the split memo pads when `pads.local` is set, else on the
/// reference path.
void collect_candidates_for(const KnowledgeView& view, const EvalPads& pads,
                            const SplitKernel* kernel, const IdSet& s1,
                            std::vector<SinkCandidate>& out) {
  if (kernel != nullptr) {
    append_splits(s1, kernel->evaluate(kernel->mask_of(s1)).splits, out);
    return;
  }
  if (pads.local != nullptr) {
    for (const AdmissibleSplit& split :
         admissible_thresholds_padded(view, s1, pads.shared, *pads.local)) {
      out.push_back({s1, split.s2, split.g});
    }
    return;
  }
  append_splits(s1, admissible_thresholds(view, s1), out);
}

/// Big-SCC certification: components too large to enumerate are *certified
/// or refuted* instead of skipped. The component C itself is always
/// evaluated — its κ runs through the connectivity early-exits
/// (complete-graph closed form, degree bound, pivot flows), so a genuine
/// sink component of any size certifies and a κ-deficient one refutes
/// without touching 2^|C| subsets. Around C, seeded samples of C \ D
/// probe the bounded-removal family the structured strategy would sweep.
/// The RNG seed is FNV over the member ids: a pure function of the
/// component, so replays, cross-thread runs, and the incremental cache all
/// see the same candidate stream (and no ambient entropy enters — R2).
/// The sample stream is *generated* serially (the RNG is sequential), then
/// *evaluated* through the pool when one is usable — slots by sample
/// index, worker pads merged after the join, so the emitted candidates
/// match the serial interleaving exactly.
///
/// `memo` is the view's scratch on incremental evaluations (null on cold
/// and churn-suspended ones). It is used only when C is above the kernel
/// size: then every candidate is costed on the reference path (max-flow κ
/// on an induced graph), and a C or C \ D seen in an earlier revision is
/// answered from the split memo. A kernel-sized C is evaluated directly.
void enumerate_big_scc(const KnowledgeView& view, EvalScratch* memo,
                       const IdSet& scc, std::size_t removal_cap,
                       std::size_t samples, std::vector<SinkCandidate>& out) {
  std::optional<SplitKernel> own_kernel;
  if (scc.size() <= SplitKernel::kMaxMembers) own_kernel.emplace(view, scc);
  const SplitKernel* const kernel = own_kernel ? &*own_kernel : nullptr;
  EvalScratch* const split_memo = kernel == nullptr ? memo : nullptr;
  const EvalPads serial{split_memo, nullptr};
  collect_candidates_for(view, serial, kernel, scc, out);
  if (samples == 0) return;

  const auto& ids = scc.values();
  const std::size_t n = ids.size();
  const std::size_t cap = std::min(removal_cap, n - 1);

  std::uint64_t seed = kFnvOffsetBasis;
  for (ProcessId id : scc) seed = fnv1a_mix_u64(seed, id.raw());
  Rng rng(seed);

  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  std::vector<std::size_t> combo;
  std::vector<IdSet> sample_s1s;
  for (std::size_t d = 1; d <= cap; ++d) {
    std::set<std::vector<std::size_t>> seen;
    // A duplicate draw is wasted, not retried forever: the attempt budget
    // keeps the path strictly bounded.
    for (std::size_t attempt = 0;
         attempt < samples * 4 && seen.size() < samples; ++attempt) {
      // Partial Fisher–Yates: d distinct member indices.
      for (std::size_t k = 0; k < d; ++k) {
        const std::size_t j =
            k + static_cast<std::size_t>(rng.next_below(n - k));
        std::swap(pool[k], pool[j]);
      }
      combo.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(d));
      std::sort(combo.begin(), combo.end());
      if (!seen.insert(combo).second) continue;
      IdSet s1 = scc;
      for (std::size_t idx : combo) s1.erase(ids[idx]);
      sample_s1s.push_back(std::move(s1));
    }
  }

  WorkPool* wp = usable_work_pool();
  if (wp == nullptr || wp->workers() <= 1 || sample_s1s.size() <= 1) {
    for (const IdSet& s1 : sample_s1s) {
      collect_candidates_for(view, serial, kernel, s1, out);
    }
    return;
  }
  // Workers share the kernel, if any, read-only.
  std::vector<std::vector<SinkCandidate>> slots(sample_s1s.size());
  std::vector<EvalScratch> worker_pads(split_memo != nullptr ? wp->workers()
                                                             : 0);
  wp->run(sample_s1s.size(), 1,
          [&](std::size_t begin, std::size_t end, std::size_t worker) {
            const EvalPads pads{
                split_memo != nullptr ? &worker_pads[worker] : nullptr,
                split_memo};
            for (std::size_t j = begin; j < end; ++j) {
              collect_candidates_for(view, pads, kernel, sample_s1s[j],
                                     slots[j]);
            }
          });
  // emplace keeps the first value per key; duplicates across pads hold
  // identical values (pure functions of the view), so merge order only
  // needs to be *fixed*, not anything in particular.
  for (EvalScratch& pad : worker_pads) {
    for (auto& entry : pad.splits) {
      split_memo->splits.emplace(entry.first, std::move(entry.second));
    }
    split_memo->stats.split_hits += pad.stats.split_hits;
    split_memo->stats.split_misses += pad.stats.split_misses;
  }
  for (auto& slot : slots) {
    out.insert(out.end(), std::make_move_iterator(slot.begin()),
               std::make_move_iterator(slot.end()));
  }
}

std::string options_key(const char* name, const SearchOptions& options) {
  std::string key = name;
  key += "/cap=" + std::to_string(options.exhaustive_cap);
  key += "/rm=" + std::to_string(options.removal_cap);
  key += "/bs=" + std::to_string(options.big_scc_samples);
  // parallel_eval is deliberately absent: thread count must not change
  // results (the parallel==serial property suite asserts it), so it must
  // not split the candidate caches or the shared eval memo either.
  return key;
}

}  // namespace

SearchOptions SearchOptions::validated() const {
  SearchOptions out = *this;
  // A 64-bit mask enumerates at most 2^63 subsets; larger caps would shift
  // by >= 64 bits (UB). Clamping is safe: SCCs beyond 63 members could never
  // finish enumerating anyway.
  out.exhaustive_cap = std::min<std::size_t>(out.exhaustive_cap, 63);
  return out;
}

ExhaustiveSinkSearch::ExhaustiveSinkSearch(SearchOptions options)
    : options_(options.validated()),
      cache_key_(options_key("exhaustive", options_)) {}

StructuredSinkSearch::StructuredSinkSearch(SearchOptions options)
    : options_(options.validated()),
      cache_key_(options_key("structured", options_)) {}

std::vector<SinkCandidate> ExhaustiveSinkSearch::candidates(
    const KnowledgeView& view) const {
  // Strategy-level parallelism for direct library use; a pool installed by
  // the run engine (Scenario::parallel_eval) takes precedence.
  const WorkPoolScope scope(
      current_work_pool() == nullptr ? options_.parallel_eval : 0);
  const auto enumerate = [this](const KnowledgeView& v, EvalScratch* memo,
                                const IdSet& scc,
                                std::vector<SinkCandidate>& out) {
    // Observability: this lambda runs on the run's own thread (the
    // parallel drivers fan out its *inner* loops), so the span and the
    // SCC-size histogram are identical at every parallel_eval setting.
    const obs::ScopedSpan span("membership.scc_eval", scc.size());
    if (obs::MetricsRegistry* m = obs::current_metrics()) {
      m->histogram("eval.scc_size").record(scc.size());
    }
    if (scc.size() > options_.exhaustive_cap) {
      note_big_scc_fallback(scc.size(), options_.exhaustive_cap);
      const obs::ScopedSpan certify("membership.big_scc_certify", scc.size());
      enumerate_big_scc(v, memo, scc, options_.removal_cap,
                        options_.big_scc_samples, out);
      return;
    }
    enumerate_exhaustive(v, scc, out);
  };

  if (options_.incremental) {
    return incremental_candidates(view, cache_key_, options_.exhaustive_cap,
                                  enumerate);
  }
  return enumerate_sequence(view, options_.exhaustive_cap,
                            view.received_sccs(), enumerate);
}

std::vector<SinkCandidate> StructuredSinkSearch::candidates(
    const KnowledgeView& view) const {
  const WorkPoolScope scope(
      current_work_pool() == nullptr ? options_.parallel_eval : 0);
  const auto enumerate = [this](const KnowledgeView& v, EvalScratch* memo,
                                const IdSet& scc,
                                std::vector<SinkCandidate>& out) {
    // Run-thread only, like the exhaustive twin above (see its comment).
    const obs::ScopedSpan span("membership.scc_eval", scc.size());
    if (obs::MetricsRegistry* m = obs::current_metrics()) {
      m->histogram("eval.scc_size").record(scc.size());
    }
    if (scc.size() > kStructuredEnumerationCap) {
      note_big_scc_fallback(scc.size(), kStructuredEnumerationCap);
      const obs::ScopedSpan certify("membership.big_scc_certify", scc.size());
      enumerate_big_scc(v, memo, scc, options_.removal_cap,
                        options_.big_scc_samples, out);
      return;
    }
    enumerate_structured(v, scc, options_.removal_cap, out);
  };

  if (options_.incremental) {
    return incremental_candidates(view, cache_key_, kStructuredEnumerationCap,
                                  enumerate);
  }
  return enumerate_sequence(view, kStructuredEnumerationCap,
                            view.received_sccs(), enumerate);
}

std::unique_ptr<SinkSearch> make_default_search() {
  return std::make_unique<ExhaustiveSinkSearch>();
}

std::uint64_t big_scc_fallbacks() { return t_big_scc_fallbacks; }

void reset_big_scc_fallbacks() {
  t_big_scc_fallbacks = 0;
  t_big_scc_warned = false;
}

}  // namespace bftcup::protocol
