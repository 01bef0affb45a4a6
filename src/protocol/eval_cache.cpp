#include "protocol/eval_cache.hpp"

#include <bit>

#include "obs/span_tracer.hpp"

namespace bftcup::protocol {
namespace {

void append_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void append_id_set(Bytes& out, const IdSet& ids) {
  append_u64(out, ids.size());
  for (ProcessId id : ids) append_u64(out, id.raw());
}

EvalKey own_key(const EvalKeyView& view) {
  EvalKey key;
  key.strategy = view.strategy;
  key.param = view.param;
  key.view.assign(view.view.begin(), view.view.end());
  return key;
}

}  // namespace

const Bytes& view_canonical(const KnowledgeView& view) {
  EvalScratch& scratch = view.eval_scratch();
  if (scratch.canon_revision != view.revision()) {
    Bytes& out = scratch.canon;
    out.clear();
    // Length-framed, sorted-order serialization: injective on view
    // contents, so byte equality is view equality.
    append_id_set(out, view.known());
    const IdSet& owners = view.received();
    append_u64(out, owners.size());
    for (std::size_t i = 0; i < owners.size(); ++i) {
      append_u64(out, owners.values()[i].raw());
      append_id_set(out, view.pd_at(i));
    }
    scratch.canon_revision = view.revision();
  }
  return scratch.canon;
}

SharedEvalCache::ProbeDecision SharedEvalCache::admit(std::size_t view_size) {
  Bucket& bucket = buckets_[std::bit_width(view_size)];
  ++bucket.evals;
  // Scratch memos only run where recurrence is *proven* (a digest hit in
  // this bucket); warmup and retry probes are digest-only, so a purely
  // churning workload pays nothing beyond a handful of view hashes.
  if (bucket.hits > 0) return {true, true};
  if (bucket.probes < kProbeWarmup) return {true, false};
  // Closed bucket: a periodic digest-only retry keeps a late-converging or
  // cross-run recurring view family from being locked out forever.
  if (bucket.evals % kProbeRetry == 0) return {true, false};
  return {false, false};
}

void SharedEvalCache::record_probe(std::size_t view_size, bool hit) {
  Bucket& bucket = buckets_[std::bit_width(view_size)];
  ++bucket.probes;
  if (hit) ++bucket.hits;
}

const std::optional<SinkResult>* SharedEvalCache::find_sink(
    const EvalKeyView& key) const {
  // The cache is thread-confined, so the probe runs on the run thread and
  // the span stream is replay-stable at a fixed knob setting.
  const obs::ScopedSpan span("eval.cache_probe");
  const auto it = sink_.find(key);
  return it == sink_.end() ? nullptr : &it->second;
}

void SharedEvalCache::store_sink(const EvalKeyView& key,
                                 std::optional<SinkResult> result) {
  sink_.emplace(own_key(key), std::move(result));
}

const std::optional<CoreResult>* SharedEvalCache::find_core(
    const EvalKeyView& key) const {
  const obs::ScopedSpan span("eval.cache_probe");
  const auto it = core_.find(key);
  return it == core_.end() ? nullptr : &it->second;
}

void SharedEvalCache::store_core(const EvalKeyView& key,
                                 std::optional<CoreResult> result) {
  core_.emplace(own_key(key), std::move(result));
}

}  // namespace bftcup::protocol
