// Discovery-to-decision benchmark driver.
//
// One closed-loop client on one thread drives the public cup API
// (ScenarioRegistry, ScenarioBuilder, RunContext, run_scenario): it issues
// the next run only after the previous one returned. Every invocation does a
// fixed amount of work — the same multiset of (scenario, seed) runs for a
// given (workload, seed, seconds) — so percentiles and the peak RSS always
// describe the same population. The driver prints raw samples as one JSON
// object; perfbench/run.py turns them into the reported metrics.
//
//   cup_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <chrome-trace.json>]
//
// --trace 0 times the workload's runs untraced. --trace 1 takes the first
// passes (at least 150 runs, or all), runs them untraced, again under the
// driver's own spans, again with Scenario::metrics off, then times each
// layer's public calls on the workload's own inputs. Spans live in memory
// and are written at exit in the repo's Chrome trace format
// (obs::to_chrome_trace_json). No span site or knob inside src/ is used: the
// spans wrap calls from the outside.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "common/random.hpp"
#include "crypto/keys.hpp"
#include "crypto/signer.hpp"
#include "cup/run_context.hpp"
#include "cup/scenario_registry.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "msg/message.hpp"
#include "msg/wire.hpp"
#include "obs/trace_export.hpp"
#include "protocol/knowledge_view.hpp"
#include "protocol/sink_predicate.hpp"
#include "protocol/sink_search.hpp"
#include "sim/simulator.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace bftcup::perfbench {
namespace {

using cup::RunReport;
using cup::Scenario;

// --- workload sizes ----------------------------------------------------------
// Work per invocation is a pure function of --seconds (never time-boxed), so
// two runs with equal arguments execute identical multisets. The per-second
// rates are calibration constants measured on a 4-vCPU x86-64 KVM guest.

/// membership-cold: passes of 200 freshly generated topologies (~1 s each).
constexpr std::size_t kMembershipPassSize = 200;
constexpr double kMembershipPassesPerSecond = 1.0;
/// scale-committees: committee_of_committees at n processes on bench_scale's
/// fixed topology; each pass runs every simulation seed once.
constexpr std::size_t kScaleN = 3'000;
constexpr std::size_t kScaleSeeds = 2;
constexpr double kScalePassesPerSecond = 0.75;

/// Complete set-ups per invocation; setup_s is their median. Set-up is
/// milliseconds of input generation, so the median needs several.
constexpr std::size_t kSetups = 7;
/// --trace 1 measures whole passes until it has at least this many runs.
constexpr std::size_t kTracedRuns = 150;
/// Failure descriptions kept in the output (the count is always exact).
constexpr std::size_t kMaxFailureNotes = 20;

constexpr std::string_view kWorkloads[] = {"membership-cold",
                                           "scale-committees"};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_between(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

/// SplitMix64: derives every input seed from the workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t workload_seed,
                                        std::size_t k) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < k; ++i) {
    seeds.push_back(mix(mix(workload_seed) ^ i) % 1'000'000 + 1);
  }
  return seeds;
}

std::size_t passes_for(double per_second, unsigned seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(per_second * seconds)));
}

std::uint64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Restarts the kernel's RSS high-water mark at the current RSS, so that the
/// reported peak covers the timed runs only: how much of what set-up built
/// and freed the allocator keeps resident varies between identical processes
/// (a pooled-context sweep's process peak flipped between 46 and 52 MiB).
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  if (!clear) throw std::runtime_error("cannot reset the RSS high-water mark");
}

/// RSS high-water mark since the last reset_peak_rss().
std::uint64_t peak_rss_since_reset() {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::uint64_t kib = 0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kib) return kib * 1024;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- spans -------------------------------------------------------------------

/// The benchmark's own span recorder: name, start, end, parent, and the id
/// shared by the spans of one run (or one probe). Disabled, it records
/// nothing and its scopes cost one branch.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::int64_t parent;  ///< index into spans(), -1 at top level
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    std::uint64_t calls;  ///< public calls the span covers (per-call metrics)
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t id,
          std::uint64_t calls = 1)
        : log_(log.enabled_ ? &log : nullptr) {
      if (log_ == nullptr) return;
      index_ = static_cast<std::int64_t>(log_->spans_.size());
      const std::int64_t parent = log_->open_.empty() ? -1 : log_->open_.back();
      log_->spans_.push_back({name, id, parent, now_ns(), 0, calls});
      log_->open_.push_back(index_);
    }
    ~Scope() {
      if (log_ == nullptr) return;
      log_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
      log_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_calls(std::uint64_t calls) {
      if (log_ != nullptr) {
        log_->spans_[static_cast<std::size_t>(index_)].calls = calls;
      }
    }

   private:
    SpanLog* log_;
    std::int64_t index_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// The repo's Perfetto-loadable format: depth from the parent chain, the
  /// run/probe id in `arg`.
  [[nodiscard]] std::string chrome_json(std::string_view process) const {
    obs::SpanTrace trace;
    std::vector<std::uint32_t> depth(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto it = std::find(trace.names.begin(), trace.names.end(), s.name);
      const auto name_id = static_cast<std::uint32_t>(it - trace.names.begin());
      if (it == trace.names.end()) trace.names.emplace_back(s.name);
      if (s.parent >= 0) {
        depth[i] = depth[static_cast<std::size_t>(s.parent)] + 1;
      }
      obs::SpanRecord rec;
      rec.name_id = name_id;
      rec.depth = depth[i];
      rec.seq = i;
      rec.wall_begin_ns = s.begin_ns;
      rec.wall_end_ns = s.end_ns;
      rec.arg = s.id;
      trace.records.push_back(rec);
    }
    trace.started = spans_.size();
    return obs::to_chrome_trace_json(trace, process);
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

// --- inputs ------------------------------------------------------------------

struct Input {
  std::string label;
  std::uint64_t seed = 0;
  Scenario scenario;
  bool must_decide = false;
};

struct Plan {
  std::vector<Input> inputs;
  /// Input indices per pass; whole passes are the unit of tracing.
  std::vector<std::vector<std::size_t>> passes;
  /// Inputs whose graphs the layer probes run on (one per topology).
  std::vector<std::size_t> probe_inputs;
  std::size_t scale_n = 0;
};

/// A fresh topology per run: random_bft_cup (known f) and random_cupft
/// (unknown f) alternate, f in {1, 2}, 10 to 30 processes, default search.
Plan membership_plan(std::uint64_t seed, std::size_t passes) {
  Plan plan;
  Rng rng(mix(seed) ^ 0x6d656d62ULL);
  const std::size_t runs = passes * kMembershipPassSize;
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t total = 10 + rng.next_below(21);
    const std::size_t f = 1 + rng.next_below(2);
    const std::size_t sink = 3 * f + 1 + rng.next_below(3);
    const std::size_t rest = total > sink ? total - sink : 1;
    graph::generators::GeneratedSystem system;
    cup::Mode mode = cup::Mode::kAuth;
    if (r % 2 == 0) {
      graph::generators::BftCupParams params;
      params.f = f;
      params.byzantine_in_sink = f;
      params.sink_size = sink;
      params.non_sink = rest;
      system = graph::generators::random_bft_cup(params, rng);
    } else {
      graph::generators::CupftParams params;
      params.f = f;
      params.byzantine_in_core = f;
      params.core_size = sink;
      params.periphery = rest;
      system = graph::generators::random_cupft(params, rng);
      mode = cup::Mode::kCupft;
    }
    const std::uint64_t run_seed = rng.next_below(1'000'000) + 1;
    std::string label =
        std::string(r % 2 == 0 ? "random_bft_cup" : "random_cupft") + "/n" +
        std::to_string(system.graph.vertex_count()) + "-f" +
        std::to_string(f) + "#" + std::to_string(r);
    plan.inputs.push_back(
        {std::move(label), run_seed,
         cup::ScenarioBuilder(system).mode(mode).seed(run_seed).build(),
         false});
  }
  for (std::size_t p = 0; p < passes; ++p) {
    std::vector<std::size_t> pass;
    for (std::size_t i = 0; i < kMembershipPassSize; ++i) {
      pass.push_back(p * kMembershipPassSize + i);
    }
    plan.passes.push_back(std::move(pass));
  }
  for (std::size_t i = 0; i < kMembershipPassSize; ++i) {
    plan.probe_inputs.push_back(i);
  }
  return plan;
}

/// bench_scale's committee leg: its fixed topology for n, its structured
/// search settings, serial evaluation; the workload seed picks the
/// simulation seeds.
Plan scale_plan(std::uint64_t seed, std::size_t passes) {
  Plan plan;
  plan.scale_n = kScaleN;
  Rng rng(0xbf7c0bULL + kScaleN);
  graph::generators::HierarchyParams params;
  params.total = kScaleN;
  const graph::generators::GeneratedSystem system =
      graph::generators::committee_of_committees(params, rng);
  protocol::SearchOptions options;
  options.removal_cap = 1;
  options.big_scc_samples = 4;
  auto search = std::make_shared<protocol::StructuredSinkSearch>(options);
  for (std::uint64_t s : derive_seeds(seed, kScaleSeeds)) {
    plan.inputs.push_back(
        {"committee_of_committees/n" + std::to_string(kScaleN), s,
         cup::ScenarioBuilder(system)
             .mode(cup::Mode::kAuth)
             .seed(s)
             .search(search)
             .eval_cache(false)
             .build(),
         true});
  }
  for (std::size_t p = 0; p < passes; ++p) {
    std::vector<std::size_t> pass;
    for (std::size_t i = 0; i < plan.inputs.size(); ++i) pass.push_back(i);
    plan.passes.push_back(std::move(pass));
  }
  plan.probe_inputs.push_back(0);
  return plan;
}

Plan make_plan(std::string_view workload, std::uint64_t seed,
               unsigned seconds) {
  if (workload == "membership-cold") {
    return membership_plan(seed,
                           passes_for(kMembershipPassesPerSecond, seconds));
  }
  return scale_plan(seed, passes_for(kScalePassesPerSecond, seconds));
}

// --- runs and checks ---------------------------------------------------------

struct Sample {
  std::size_t input = 0;
  double ms = 0.0;
  std::string digest;
  bool agreement = true;
  bool validity = true;
  bool decided = true;
};

Sample summarize(std::size_t input, double ms, const RunReport& report) {
  return {input, ms, report.digest(), report.agreement, report.validity,
          report.all_correct_decided};
}

/// Work counts summed over a pass, read from each run's RunReport and its
/// metrics snapshot.
struct Counts {
  std::uint64_t runs = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t discovery_msgs = 0;
  std::uint64_t pbft_msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t evals = 0;
  std::uint64_t eval_hits = 0;
  std::uint64_t sig_verified = 0;
  std::uint64_t sig_cached = 0;
  std::uint64_t arena_peak_bytes = 0;  ///< max over runs
  std::array<std::uint64_t, msg::kMsgTypeCount> sent_by_type{};

  void add(const RunReport& r) {
    using msg::MsgType;
    const auto sent = [&r](MsgType t) {
      return r.sent_by_type[static_cast<std::size_t>(t)];
    };
    ++runs;
    sim_events += r.metrics.counter("sim.events");
    discovery_msgs += sent(MsgType::kGetPds) + sent(MsgType::kSetPds);
    for (MsgType t : {MsgType::kPbftPrePrepare, MsgType::kPbftPrepare,
                      MsgType::kPbftCommit, MsgType::kPbftViewChange,
                      MsgType::kPbftNewView, MsgType::kPbftDecide}) {
      pbft_msgs += sent(t);
    }
    bytes += r.bytes_sent;
    evals += r.evaluations;
    eval_hits += r.eval_cache_hits;
    sig_verified += r.signatures_verified;
    sig_cached += r.signatures_cached;
    arena_peak_bytes = std::max(arena_peak_bytes, r.arena_bytes_peak);
    for (std::size_t t = 0; t < msg::kMsgTypeCount; ++t) {
      sent_by_type[t] += r.sent_by_type[t];
    }
  }
};

/// Each run is a fresh run_scenario: both workloads start cold, as explorer
/// genomes and scale processes do.
///
/// The one client thread moves to the next allowed CPU every
/// pass.size() / CPUs runs, so each pass spends equal time on every CPU. On a
/// shared host the vCPUs run at different speeds at any moment, and a process
/// left where the scheduler first put it inherits its vCPU's speed: pinned
/// runs of one seed spread about half as much as unpinned ones.
class Runner {
 public:
  Runner(const Plan& plan, SpanLog& spans) : plan_(plan), spans_(spans) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
  }

  /// Runs `scenario` and stores its wall time in `ms`. When tracing, the
  /// span wraps exactly the timed call.
  RunReport run(const Scenario& scenario, std::uint64_t span_id, double& ms) {
    const SpanLog::Scope span(spans_, "cup.run", span_id);
    const std::uint64_t t0 = now_ns();
    RunReport report = cup::run_scenario(scenario);
    ms = ms_between(t0, now_ns());
    return report;
  }

  /// Runs one pass; appends a Sample per run and, when given, keeps the
  /// reports and sums their counts. Returns the pass wall time in ms.
  double run_pass(const std::vector<std::size_t>& pass, bool metrics,
                  std::vector<Sample>& samples,
                  std::vector<RunReport>* keep = nullptr,
                  Counts* counts = nullptr) {
    const std::uint64_t t0 = now_ns();
    const std::size_t stride =
        std::max<std::size_t>(1, pass.size() / std::max<std::size_t>(
                                                   1, cpus_.size()));
    for (std::size_t k = 0; k < pass.size(); ++k) {
      if (k % stride == 0) move_to_next_cpu();
      const std::size_t i = pass[k];
      const Input& input = plan_.inputs[i];
      std::optional<Scenario> metrics_off;
      if (!metrics) {
        metrics_off = input.scenario;
        metrics_off->metrics = false;
      }
      double ms = 0.0;
      RunReport report = run(metrics_off ? *metrics_off : input.scenario,
                             samples.size(), ms);
      samples.push_back(summarize(i, ms, report));
      if (counts != nullptr) counts->add(report);
      if (keep != nullptr) keep->push_back(std::move(report));
    }
    return ms_between(t0, now_ns());
  }

 private:
  void move_to_next_cpu() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) cpus_.clear();
  }

  const Plan& plan_;
  SpanLog& spans_;
  std::vector<int> cpus_;  ///< CPUs the process may run on
  std::size_t next_cpu_ = 0;
};

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void fail(std::string note) {
    ++failed;
    if (notes.size() < kMaxFailureNotes) notes.push_back(std::move(note));
  }
};

/// Every timed run must reproduce the digest of an untimed reference run of
/// the same (scenario, seed) on a fresh context, keep agreement and validity
/// (every input meets the paper's premises), and decide where required
/// (scale).
Verdict check_samples(const Plan& plan, const std::vector<Sample>& samples,
                      SpanLog& spans) {
  std::vector<std::optional<Sample>> reference(plan.inputs.size());
  {
    const SpanLog::Scope pass(spans, "pass.reference", 0);
    for (const Sample& s : samples) {
      if (reference[s.input]) continue;
      const SpanLog::Scope span(spans, "cup.reference_run", s.input);
      const std::uint64_t t0 = now_ns();
      const RunReport report = cup::run_scenario(plan.inputs[s.input].scenario);
      reference[s.input] = summarize(s.input, ms_between(t0, now_ns()), report);
    }
  }
  Verdict verdict;
  for (const Sample& s : samples) {
    ++verdict.attempted;
    const Input& input = plan.inputs[s.input];
    const std::string where = input.label + "@" + std::to_string(input.seed);
    if (s.digest != reference[s.input]->digest) {
      verdict.fail(where + ": digest differs from the fresh reference run");
    } else if (!(s.agreement && s.validity)) {
      verdict.fail(where + ": agreement or validity violated");
    } else if (input.must_decide && !s.decided) {
      verdict.fail(where + ": not every correct process decided");
    }
  }
  return verdict;
}

// --- layer probes ------------------------------------------------------------

/// Inert process for timing Simulator dispatch: it bounces a hop counter
/// back to the sender and runs no protocol.
class InertProcess final : public sim::Process {
 public:
  static constexpr Value kBounces = 3;

  InertProcess(ProcessId id, IdSet peers)
      : sim::Process(id), peers_(std::move(peers)) {}

  void on_start(sim::Context& ctx) override {
    msg::Message m;
    m.value = kBounces;
    for (ProcessId peer : peers_) ctx.send(peer, m);
  }

  void on_message(ProcessId from, const msg::Message& m,
                  sim::Context& ctx) override {
    if (m.value == 0) return;
    msg::Message reply;
    reply.value = m.value - 1;
    ctx.send(from, std::move(reply));
  }

 private:
  IdSet peers_;
};

/// Representative frames of each message type, built from a workload graph.
std::vector<msg::Message> message_templates(const graph::Digraph& g,
                                            crypto::KeyRegistry& keys) {
  using msg::MsgType;
  const IdSet vertices = g.vertices();
  const std::vector<ProcessId>& ids = vertices.values();
  const auto sig_of = [&keys](ProcessId id, const Bytes& payload) {
    return crypto::Signer(id, &keys).sign(payload);
  };
  std::vector<msg::Message> out(msg::kMsgTypeCount);
  for (std::size_t t = 0; t < msg::kMsgTypeCount; ++t) {
    out[t].type = static_cast<MsgType>(t);
  }
  auto& setpds = out[static_cast<std::size_t>(MsgType::kSetPds)];
  for (std::size_t i = 0; i < std::min<std::size_t>(ids.size(), 8); ++i) {
    msg::SignedPd spd{ids[i], g.out_neighbors(ids[i]), {}};
    spd.sig = sig_of(spd.owner, msg::SignedPd::payload(spd.owner, spd.pd));
    setpds.pds.push_back(std::move(spd));
  }
  const Value value = 1000 + ids.front().raw();
  out[static_cast<std::size_t>(MsgType::kDecidedVal)].value = value;
  out[static_cast<std::size_t>(MsgType::kDecidedVal)].sig =
      sig_of(ids.front(), msg::decided_val_payload(value));
  msg::QuorumCert cert;
  cert.value = value;
  for (std::size_t i = 0; i < std::min<std::size_t>(ids.size(), 3); ++i) {
    cert.shares.push_back(
        {ids[i], sig_of(ids[i], msg::pbft_payload(MsgType::kPbftCommit, 0,
                                                  value))});
  }
  for (MsgType t : {MsgType::kPbftPrePrepare, MsgType::kPbftPrepare,
                    MsgType::kPbftCommit, MsgType::kPbftViewChange,
                    MsgType::kPbftNewView, MsgType::kPbftDecide}) {
    msg::Message& m = out[static_cast<std::size_t>(t)];
    m.value = value;
    m.sig = sig_of(ids.front(), msg::pbft_payload(t, 0, value));
    if (t == MsgType::kPbftViewChange || t == MsgType::kPbftNewView ||
        t == MsgType::kPbftDecide) {
      m.view = 1;
      m.cert = cert;
    }
  }
  msg::Message& rrb = out[static_cast<std::size_t>(MsgType::kRrbForward)];
  rrb.origin = ids.front();
  rrb.origin_pd = g.out_neighbors(ids.front());
  const auto hops =
      static_cast<std::ptrdiff_t>(std::min<std::size_t>(ids.size(), 3));
  rrb.path.assign(ids.begin(), ids.begin() + hops);
  return out;
}

class Probes {
 public:
  Probes(const Plan& plan, std::uint64_t seed, SpanLog& spans, Verdict& verdict)
      : plan_(plan), seed_(seed), spans_(spans), verdict_(verdict) {}

  void run_all(const Counts& counts, const std::vector<RunReport>& reports) {
    graphs();
    crypto();
    codec(counts.sent_by_type);
    dispatch();
    run_overhead();
    digest(reports);
  }

  /// Folded probe results, printed so that no probed call can be elided.
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  void probe_fail(std::string note) { verdict_.fail("probe " + note); }

  /// SCC decomposition, κ / disjoint paths, and sink search per input graph.
  void graphs() {
    const std::unique_ptr<protocol::SinkSearch> fallback =
        protocol::make_default_search();
    for (std::size_t i : plan_.probe_inputs) {
      const Scenario& scenario = plan_.inputs[i].scenario;
      const graph::Digraph& g = scenario.graph;
      const SpanLog::Scope probe(spans_, "probe.graph", i);
      const std::size_t reps = std::max<std::size_t>(
          1, 4096 / (g.vertex_count() + g.edge_count() + 1));
      graph::SccResult sccs;
      {
        const SpanLog::Scope span(spans_, "graph.scc", i, reps);
        for (std::size_t r = 0; r < reps; ++r) {
          sccs = graph::strongly_connected_components(g);
        }
      }
      std::vector<graph::Digraph> components;
      for (const IdSet& members : sccs.members) {
        if (members.size() >= 2) components.push_back(g.induced(members));
      }
      const IdSet vertices = g.vertices();
      const std::vector<ProcessId>& ids = vertices.values();
      std::size_t kappa_sum = 0;
      {
        const SpanLog::Scope span(spans_, "graph.kappa", i);
        for (const graph::Digraph& c : components) {
          kappa_sum += graph::strong_connectivity(c);
        }
        for (std::size_t k = 1; k < std::min<std::size_t>(ids.size(), 9); ++k) {
          kappa_sum += graph::disjoint_path_count(g, ids[k], ids[0]);
        }
      }
      checksum_ += kappa_sum;
      const protocol::SinkSearch& search =
          scenario.search ? *scenario.search : *fallback;
      const protocol::KnowledgeView view =
          protocol::KnowledgeView::omniscient(g);
      std::size_t accepted = 0;
      {
        const SpanLog::Scope span(spans_, "protocol.sink_search", i);
        for (const protocol::SinkCandidate& c : search.candidates(view)) {
          if (protocol::is_sink(view, c.g, c.s1)) ++accepted;
        }
      }
      checksum_ += accepted;
    }
  }

  /// Signer::sign and memo-less Verifier::verify over the workload's
  /// SignedPd and PBFT payloads.
  void crypto() {
    constexpr std::size_t kMaxPayloads = 4096;
    constexpr std::size_t kTargetCalls = 20'000;
    crypto::KeyRegistry keys(seed_);
    std::vector<std::pair<ProcessId, Bytes>> payloads;
    for (std::size_t i : plan_.probe_inputs) {
      const graph::Digraph& g = plan_.inputs[i].scenario.graph;
      for (ProcessId id : g.vertices()) {
        if (payloads.size() >= kMaxPayloads) break;
        payloads.emplace_back(id,
                              msg::SignedPd::payload(id, g.out_neighbors(id)));
      }
      const ProcessId first = g.vertices().values().front();
      payloads.emplace_back(
          first, msg::pbft_payload(msg::MsgType::kPbftCommit, 0, 1000 + i));
    }
    for (const auto& [id, payload] : payloads) (void)keys.secret_for(id);
    const std::size_t rounds =
        std::max<std::size_t>(1, kTargetCalls / payloads.size());
    std::vector<crypto::Signature> sigs(payloads.size());
    const SpanLog::Scope probe(spans_, "probe.crypto", 0);
    {
      const SpanLog::Scope span(spans_, "crypto.sign", 0,
                                rounds * payloads.size());
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t k = 0; k < payloads.size(); ++k) {
          sigs[k] = crypto::Signer(payloads[k].first, &keys).sign(
              payloads[k].second);
        }
      }
    }
    const crypto::Verifier verifier(&keys);
    std::size_t valid = 0;
    {
      const SpanLog::Scope span(spans_, "crypto.verify", 0,
                                rounds * payloads.size());
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t k = 0; k < payloads.size(); ++k) {
          if (verifier.verify(payloads[k].first, payloads[k].second, sigs[k])) {
            ++valid;
          }
        }
      }
    }
    if (valid != rounds * payloads.size()) {
      probe_fail("crypto: a freshly made signature did not verify");
    }
  }

  /// encode_frame / decode_frame over a message mix weighted by the traced
  /// pass's sent_by_type.
  void codec(const std::array<std::uint64_t, msg::kMsgTypeCount>& sent) {
    constexpr std::size_t kFrames = 4096;
    crypto::KeyRegistry keys(seed_);
    const std::vector<msg::Message> templates = message_templates(
        plan_.inputs[plan_.probe_inputs.front()].scenario.graph, keys);
    std::uint64_t total = 0;
    for (std::uint64_t c : sent) total += c;
    std::vector<const msg::Message*> mix;
    for (std::size_t t = 0; t < msg::kMsgTypeCount && total > 0; ++t) {
      if (sent[t] == 0) continue;
      const auto n = std::max<std::uint64_t>(1, sent[t] * kFrames / total);
      for (std::uint64_t k = 0; k < n; ++k) mix.push_back(&templates[t]);
    }
    std::vector<Bytes> frames(mix.size());
    const SpanLog::Scope probe(spans_, "probe.codec", 0);
    {
      const SpanLog::Scope span(spans_, "msg.encode", 0, mix.size());
      for (std::size_t k = 0; k < mix.size(); ++k) {
        frames[k] = msg::encode_frame(*mix[k]);
      }
    }
    std::vector<std::optional<msg::Message>> decoded(mix.size());
    {
      const SpanLog::Scope span(spans_, "msg.decode", 0, mix.size());
      for (std::size_t k = 0; k < mix.size(); ++k) {
        decoded[k] = msg::decode_frame(frames[k]);
      }
    }
    for (std::size_t k = 0; k < mix.size(); ++k) {
      if (!decoded[k] || msg::encode_frame(*decoded[k]) != frames[k]) {
        probe_fail("codec: a frame did not round-trip");
        break;
      }
    }
  }

  /// Simulator dispatch per event with inert processes over each topology.
  void dispatch() {
    for (std::size_t i : plan_.probe_inputs) {
      const graph::Digraph& g = plan_.inputs[i].scenario.graph;
      sim::Simulator::Options options;
      options.seed = seed_ + i;
      sim::Simulator simulator(options);
      for (ProcessId id : g.vertices()) {
        simulator.add_process(
            std::make_unique<InertProcess>(id, g.out_neighbors(id)));
      }
      SpanLog::Scope span(spans_, "sim.dispatch", i);
      simulator.run();
      span.set_calls(std::max<std::uint64_t>(
          1, simulator.trace().messages_delivered()));
      if (simulator.trace().messages_delivered() !=
          g.edge_count() * (InertProcess::kBounces + 1)) {
        probe_fail("sim: inert dispatch lost or invented deliveries");
      }
    }
  }

  /// RunContext::run overhead on the smallest paper scenario.
  void run_overhead() {
    constexpr std::size_t kWarm = 16;
    constexpr std::size_t kCalls = 256;
    const Scenario scenario = cup::ScenarioRegistry::paper().make(
        "table1/sync/known-n-known-f", seed_);
    const std::string expected = cup::run_scenario(scenario).digest();
    cup::RunContext context;
    for (std::size_t k = 0; k < kWarm; ++k) (void)context.run(scenario);
    {
      const SpanLog::Scope span(spans_, "cup.run_overhead", 0, kCalls);
      for (std::size_t k = 0; k < kCalls; ++k) (void)context.run(scenario);
    }
    if (context.run(scenario).digest() != expected) {
      probe_fail("run engine: pooled digest differs from a fresh run");
    }
  }

  void digest(const std::vector<RunReport>& reports) {
    std::size_t chars = 0;
    const SpanLog::Scope span(spans_, "cup.digest", 0, reports.size());
    for (const RunReport& r : reports) chars += r.digest().size();
    checksum_ += chars;
  }

  const Plan& plan_;
  std::uint64_t seed_;
  SpanLog& spans_;
  Verdict& verdict_;
  std::uint64_t checksum_ = 0;
};

// --- output ------------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string json_list(const std::vector<T>& items, F&& item) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += item(items[i]);
  }
  return out + "]";
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + std::string(flag));
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload) ==
      std::end(kWorkloads)) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (args.seconds == 0) throw std::invalid_argument("--seconds must be >= 1");
  return args;
}

int run(const Args& args) {
  if (!optimized_build() || sanitized_build()) {
    throw std::runtime_error(
        "refusing to time a build without optimisation or with sanitizers");
  }
  SpanLog spans;
  spans.set_enabled(args.trace);

  // Set-up, repeated kSetups times: registry build (first time only) and
  // input generation. The last set-up is kept.
  std::vector<double> setup_s;
  std::optional<Plan> plan;
  for (std::size_t s = 0; s < kSetups; ++s) {
    plan.reset();
    const SpanLog::Scope span(spans, "setup", s);
    const std::uint64_t t0 = now_ns();
    if (s == 0) {
      const SpanLog::Scope registry(spans, "cup.registry_build", 0);
      (void)cup::ScenarioRegistry::paper();
    }
    {
      const SpanLog::Scope generate(spans, "graph.generate", s);
      plan = make_plan(args.workload, args.seed, args.seconds);
    }
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  Runner runner(*plan, spans);
  reset_peak_rss();
  const std::uint64_t rss_before = current_rss_bytes();
  std::size_t n_max = 0;
  for (const Input& input : plan->inputs) {
    n_max = std::max(n_max, input.scenario.graph.vertex_count());
  }

  std::vector<Sample> samples;
  std::string extra;
  if (!args.trace) {
    for (const std::vector<std::size_t>& pass : plan->passes) {
      runner.run_pass(pass, true, samples);
    }
  } else {
    std::vector<std::size_t> pass;
    for (const std::vector<std::size_t>& p : plan->passes) {
      if (pass.size() >= kTracedRuns) break;
      pass.insert(pass.end(), p.begin(), p.end());
    }
    spans.set_enabled(false);
    const double untraced_ms = runner.run_pass(pass, true, samples);
    spans.set_enabled(true);
    std::vector<RunReport> reports;
    Counts counts;
    double traced_ms = 0.0;
    {
      const SpanLog::Scope span(spans, "pass.traced", 0);
      traced_ms = runner.run_pass(pass, true, samples, &reports, &counts);
    }
    double metrics_off_ms = 0.0;
    {
      const SpanLog::Scope span(spans, "pass.metrics_off", 0);
      metrics_off_ms = runner.run_pass(pass, false, samples);
    }
    const std::uint64_t peak_after_runs = peak_rss_since_reset();
    Verdict probe_verdict;
    Probes probes(*plan, args.seed, spans, probe_verdict);
    probes.run_all(counts, reports);
    extra += ",\"probe_failed\":" + std::to_string(probe_verdict.failed) +
             ",\"probe_failures\":" +
             json_list(probe_verdict.notes, json_string) +
             ",\"probe_checksum\":" + std::to_string(probes.checksum());
    extra += ",\"passes_ms\":{\"untraced\":" + json_number(untraced_ms) +
             ",\"traced\":" + json_number(traced_ms) +
             ",\"metrics_off\":" + json_number(metrics_off_ms) + "}";
    extra += ",\"rss_per_node_basis\":{\"peak\":" +
             std::to_string(peak_after_runs) + ",\"before\":" +
             std::to_string(rss_before) + "}";
    extra += ",\"counts\":{\"runs\":" + std::to_string(counts.runs) +
             ",\"sim_events\":" + std::to_string(counts.sim_events) +
             ",\"discovery_msgs\":" + std::to_string(counts.discovery_msgs) +
             ",\"pbft_msgs\":" + std::to_string(counts.pbft_msgs) +
             ",\"bytes\":" + std::to_string(counts.bytes) +
             ",\"evals\":" + std::to_string(counts.evals) +
             ",\"eval_hits\":" + std::to_string(counts.eval_hits) +
             ",\"sig_verified\":" + std::to_string(counts.sig_verified) +
             ",\"sig_cached\":" + std::to_string(counts.sig_cached) +
             ",\"arena_peak_bytes\":" +
             std::to_string(counts.arena_peak_bytes) +
             "}";
  }
  const std::uint64_t peak = peak_rss_since_reset();

  const Verdict verdict = check_samples(*plan, samples, spans);

  if (args.trace) {
    const auto span_json = [](const SpanLog::Span& s) {
      return "[" + json_string(s.name) + "," + std::to_string(s.id) + "," +
             std::to_string(s.parent) + "," + std::to_string(s.begin_ns) + "," +
             std::to_string(s.end_ns) + "," + std::to_string(s.calls) + "]";
    };
    extra += ",\"spans\":" + json_list(spans.spans(), span_json);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << spans.chrome_json("cup_perfbench " + args.workload);
      if (!out) throw std::runtime_error("cannot write " + args.trace_out);
    }
  }

  std::vector<double> run_ms;
  for (const Sample& s : samples) run_ms.push_back(s.ms);
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%u,\"trace\":%d,"
      "\"build\":{\"type\":%s,\"flags\":%s,\"compiler\":%s,\"optimized\":%s,"
      "\"sanitized\":%s},\"inputs\":%zu,\"passes\":%zu,\"n_max\":%zu,"
      "\"scale_n\":%zu,\"setup_s\":%s,\"run_ms\":%s,\"peak_rss_bytes\":%llu,"
      "\"attempted\":%llu,\"failed\":%llu,\"failures\":%s%s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(),
      json_string(__VERSION__).c_str(), optimized_build() ? "true" : "false",
      sanitized_build() ? "true" : "false", plan->inputs.size(),
      plan->passes.size(), n_max, plan->scale_n,
      json_list(setup_s, json_number).c_str(),
      json_list(run_ms, json_number).c_str(),
      static_cast<unsigned long long>(peak),
      static_cast<unsigned long long>(verdict.attempted),
      static_cast<unsigned long long>(verdict.failed),
      json_list(verdict.notes, json_string).c_str(), extra.c_str());
  return 0;
}

}  // namespace
}  // namespace bftcup::perfbench

int main(int argc, char** argv) {
  try {
    return bftcup::perfbench::run(bftcup::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cup_perfbench: %s\n", e.what());
    return 2;
  }
}
