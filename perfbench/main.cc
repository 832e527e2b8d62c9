// perfbench: the repository benchmark (see BENCHMARK.md).
//
//   perfbench --workload derive|inproc_hot|inproc_churn|wire_point
//             --seed N --seconds S --trace 0|1 [--source-id ID] [--out DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a separate traced
// run and prints the per-layer metrics. The last stdout line is the result
// JSON; lines before it starting with "# " describe the machine and the run.

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/agent_source.h"
#include "core/model_io.h"
#include "crew.h"
#include "harness.h"
#include "runtime/rmw_probe.h"
#include "serving.h"
#include "wire.h"

namespace perfbench {
namespace {

using core::QueryClassId;
using core::StateAlgorithm;

constexpr int kSetupRepeats = 3;

// Per workload: what one op_p50_us / op_tail_us sample is, the fixed
// op_tail_us percentile, and every thread the run starts (main included).
// On wire_point the samples and ops_per_s come from CPU clocks (see
// WireWindow and SetEndToEnd).
struct WorkloadSpec {
  const char* name;
  const char* sample;
  double tail_p;
  int threads;
  bool cpu_based;
};
constexpr WorkloadSpec kSpecs[] = {
    {"derive", "one op, timed on its own", 0.75, 1, false},
    {"inproc_hot", "a block of 64 ops, its time / 64", 0.99, 3, false},
    {"inproc_churn", "a block of 4 ops, its time / 4", 0.90, 4, false},
    {"wire_point", "a 250 ms slice, server CPU per frame in it", 0.75, 3,
     true},
};

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
  std::string out_dir = ".bench_out";
};

// Ordered "key": value pairs for the "# " detail lines.
class Detail {
 public:
  void Num(const std::string& key, double v) { Raw(key, JsonNumber(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, JsonString(v));
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
  }
  std::string Json() const { return "{" + body_ + "}"; }
  bool empty() const { return body_.empty(); }

 private:
  std::string body_;
};

// What one measured window produced.
struct Window {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // CPU charged to the system under test
  std::vector<double> latency_us;
  double steal_frac = 0.0;
  uint64_t rmw = 0;  // shared RMWs on the caller threads
  bool rmw_counted = false;  // the window's callers are this process's threads
};

// Everything a workload reports after its windows.
struct Outcome {
  Quality quality;
  uint64_t extra_attempted = 0;  // scored ops outside the window
  uint64_t extra_failed = 0;
  std::vector<std::string> violations;
  MetricSet layers;  // per-layer values the workload itself measured
  Detail detail;
};

double Median(std::vector<double> v) { return PickPercentile(std::move(v), 0.5).value; }

// Mean duration of the named spans, in ns (0 when none).
double SpanMeanNs(const std::map<std::string, SpanTotals>& totals,
                  const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.count);
}

runtime::RuntimeStatsSnapshot Delta(const runtime::RuntimeStatsSnapshot& a,
                                    const runtime::RuntimeStatsSnapshot& b) {
  runtime::RuntimeStatsSnapshot d;
  for (const auto& field : runtime::StatsCounterFields()) {
    d.*field.field = b.*field.field - a.*field.field;
  }
  return d;
}

void CheckConservation(const runtime::RuntimeStatsSnapshot& d,
                       uint64_t uncached, Outcome& out) {
  if (d.requests != d.estimate_cache_hits + d.estimate_cache_misses + uncached) {
    out.violations.push_back(
        "runtime stats do not conserve: requests " +
        std::to_string(d.requests) + " != hits " +
        std::to_string(d.estimate_cache_hits) + " + misses " +
        std::to_string(d.estimate_cache_misses) + " + uncached " +
        std::to_string(uncached));
  }
}

double HitFrac(const runtime::RuntimeStatsSnapshot& d) {
  const uint64_t looked = d.estimate_cache_hits + d.estimate_cache_misses;
  return looked == 0 ? 0.0
                     : static_cast<double>(d.estimate_cache_hits) /
                           static_cast<double>(looked);
}

// Scores the held-out set in process (explicit probing costs). With
// `check_kernel`, each answer must match the served model's kernel.
Quality ScoreInProcess(ServingStack& stack, bool check_kernel, Outcome& out) {
  Quality q;
  const auto& heldout = stack.inputs().heldout;
  for (size_t i = 0; i < heldout.size(); ++i) {
    const runtime::EstimateResponse r =
        stack.service().Estimate(heldout[i].request);
    const bool ok = check_kernel
                        ? AnswerMatchesKernel(stack.heldout()[i], r)
                        : r.ok() && std::isfinite(r.estimate_seconds);
    ++out.extra_attempted;
    if (!ok) {
      ++out.extra_failed;
      continue;
    }
    q.Add(r.estimate_seconds, heldout[i].observed_cost);
  }
  return q;
}

// Served quality must equal the in-process Validate of the same models.
void CheckReferenceQuality(const ServingStack& stack, const Quality& served,
                           Outcome& out) {
  if (!(served == stack.reference_quality())) {
    out.violations.push_back("served quality differs from Validate's");
  }
}

// Derivation counts; they repeat exactly for a fixed seed.
void SetCoreCounts(const CoreTally& tally, MetricSet& layers) {
  const double models = static_cast<double>(std::max<uint64_t>(tally.models, 1));
  layers.Set("core.draws_per_model", static_cast<double>(tally.draws) / models,
             "count");
  layers.Set("core.topup_draws", static_cast<double>(tally.topups) / models,
             "count");
  layers.Set("core.states_mean", static_cast<double>(tally.states) / models,
             "count");
}

// ---- Workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the first timed op: stack, threads, warm-up. The
  // run's inputs exist before set-up starts.
  virtual void Setup(SpanLog& log) = 0;
  // One measured window.
  virtual Window Measure(double seconds, bool traced, SpanLog& log) = 0;
  // After the last window: joins the workload's threads, then scores and
  // checks.
  virtual void Finish(Outcome& out) = 0;
  // The serving stack (null for derive).
  virtual ServingStack* stack() = 0;
};

// derive: one thread cycles a fixed list of derivations end to end. The
// list (class, site, algorithm, training seed) is the same in every run, so
// every run prices the same work; --seed draws each item's held-out queries.
struct DeriveItem {
  QueryClassId cls;
  const char* profile;
  StateAlgorithm algo;
  uint64_t seed;
};

std::vector<DeriveItem> DeriveItems() {
  std::vector<DeriveItem> items;
  uint64_t seed = 101;
  // Two unary classes to one join class: the join derivations cost about
  // three times as much, and this mix keeps the median op inside the unary
  // cluster and the p75 inside the join cluster instead of on the gap.
  for (QueryClassId cls :
       {QueryClassId::kUnarySeqScan, QueryClassId::kUnaryNonClusteredIndex,
        QueryClassId::kJoinNoIndex}) {
    for (const char* profile : {"alpha", "beta"}) {
      for (StateAlgorithm algo :
           {StateAlgorithm::kIupma, StateAlgorithm::kIcma}) {
        items.push_back(DeriveItem{cls, profile, algo, seed});
        seed += 10;
      }
    }
  }
  return items;
}

// Held-out queries per derive item, observed on a ground-truth site built
// like the item's own.
std::vector<core::ObservationSet> DeriveTests(uint64_t seed) {
  constexpr int kHeldOutPerItem = 200;
  std::vector<core::ObservationSet> tests;
  for (const DeriveItem& item : DeriveItems()) {
    mdbs::LocalDbs truth(SiteConfig(item.profile, item.seed));
    core::AgentObservationSource source(&truth, item.cls,
                                        seed * 1000 + tests.size());
    tests.push_back(core::DrawObservations(source, kHeldOutPerItem));
  }
  return tests;
}

class DeriveWorkload : public Workload {
 public:
  DeriveWorkload(const Options& o, const std::vector<core::ObservationSet>& tests)
      : options_(o), items_(DeriveItems()), tests_(tests) {}

  void Setup(SpanLog& log) override {
    // Warm-up: one untimed pass; every timed pass must derive the same
    // models.
    for (size_t i = 0; i < items_.size(); ++i) {
      digests_.push_back(RunItem(i, log, op_++, nullptr));
    }
  }

  Window Measure(double seconds, bool traced, SpanLog& log) override {
    (void)traced;
    Window w;
    const CpuTicks ticks0 = ReadCpuTicks();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    // Whole passes over the list, so every window prices the same mix.
    do {
      for (size_t i = 0; i < items_.size(); ++i) {
        Quality q;
        const int64_t s = NowNs();
        const uint64_t digest = RunItem(i, log, op_++, &q);
        w.latency_us.push_back(1e-3 * static_cast<double>(NowNs() - s));
        ++w.ops;
        if (passes_ == 0) {
          quality_.scored += q.scored;
          quality_.very_good += q.very_good;
          quality_.good += q.good;
        }
        if (digests_[i] != digest) {
          ++w.failed;
          violations_.push_back("derive item " + std::to_string(i) +
                                " produced a different model on a later pass");
        }
      }
      ++passes_;
    } while (NowNs() - t0 < static_cast<int64_t>(seconds * 1e9));
    w.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
    w.cpu_s = ProcessCpuSeconds() - cpu0;
    w.steal_frac = StealFraction(ticks0, ReadCpuTicks());
    return w;
  }

  void Finish(Outcome& out) override {
    out.quality = quality_;
    out.violations = violations_;
    uint64_t digest = 0;
    for (uint64_t d : digests_) digest = digest * 1099511628211ull ^ d;
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    out.detail.Str("model_digest", hex);
    // The list is fixed, so every run of the same code must derive the same
    // models: compare with an earlier run of this source in the checkout.
    mkdir(options_.out_dir.c_str(), 0755);
    std::string id = options_.source_id;
    for (char& c : id) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '-';
    }
    const std::string path = options_.out_dir + "/derive-digest-" + id + ".txt";
    std::ifstream in(path);
    std::string previous;
    if (in >> previous) {
      if (previous != hex) {
        out.violations.push_back("derive model digest " + std::string(hex) +
                                 " differs from an earlier run's " + previous);
      }
    } else {
      std::ofstream(path) << hex << "\n";
    }
    SetCoreCounts(tally_, out.layers);
  }

  ServingStack* stack() override { return nullptr; }

 private:
  // Fresh site, derivation, held-out validation. Returns the model digest.
  uint64_t RunItem(size_t i, SpanLog& log, uint64_t op, Quality* quality) {
    const DeriveItem& item = items_[i];
    ScopedSpan span(log, "derive.op", op);
    std::unique_ptr<mdbs::LocalDbs> site;
    {
      ScopedSpan build(log, "engine.site_build", op, span.index());
      site = std::make_unique<mdbs::LocalDbs>(
          SiteConfig(item.profile, item.seed));
    }
    const core::BuildReport report =
        DeriveModel(*site, item.cls, item.algo, item.seed + 1, log, op, tally_);
    core::ValidationReport v;
    {
      ScopedSpan validate(log, "core.validate", op, span.index());
      v = core::Validate(report.model, tests_[i]);
    }
    if (quality != nullptr) *quality = QualityOf(v);
    return Digest(core::SerializeCostModel(report.model));
  }

  const Options options_;
  const std::vector<DeriveItem> items_;
  const std::vector<core::ObservationSet>& tests_;
  std::vector<uint64_t> digests_;  // warm-up pass, per item
  uint64_t passes_ = 0;            // timed passes
  uint64_t op_ = 1;
  Quality quality_;
  CoreTally tally_;
  std::vector<std::string> violations_;
};

// Shared by the in-process serving workloads: per-thread op latencies and
// shared-RMW tallies, merged after each window.
struct ThreadTally {
  std::vector<double> latency_us;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t rmw = 0;
  SpanLog log;
};

// Runs a crew window and merges the per-thread tallies.
Window CrewWindow(Crew& crew, std::vector<ThreadTally>& tallies,
                  double seconds, bool traced, SpanLog& log) {
  for (ThreadTally& t : tallies) t = ThreadTally{{}, 0, 0, 0, SpanLog(traced)};
  Window w;
  const CpuTicks ticks0 = ReadCpuTicks();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  Phase phase;
  phase.traced = traced;
  crew.RunFor(phase, seconds);
  w.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  w.steal_frac = StealFraction(ticks0, ReadCpuTicks());
  for (ThreadTally& t : tallies) {
    w.ops += t.ops;
    w.failed += t.failed;
    w.rmw += t.rmw;
    w.rmw_counted = true;
    w.latency_us.insert(w.latency_us.end(), t.latency_us.begin(),
                        t.latency_us.end());
    std::vector<double>().swap(t.latency_us);
    log.Append(t.log);
  }
  return w;
}

// inproc_hot: two callers, closed loop, 256-request working set that the
// per-thread estimate cache holds entirely.
class HotWorkload : public Workload {
 public:
  static constexpr size_t kWorkingSet = 256;
  static constexpr size_t kBlock = 64;
  static constexpr int kCallers = 2;

  static ServingOptions Serving() {
    ServingOptions so;
    so.requests_per_key = kWorkingSet / kNumKeys;
    return so;
  }

  explicit HotWorkload(const ServingInputs& inputs) : inputs_(inputs) {}

  void Setup(SpanLog& log) override {
    stack_ = std::make_unique<ServingStack>(Serving(), inputs_, log, tally_);
    // The tracked probe is fixed for the run, so every answer is known.
    for (const CheckedRequest& t : stack_->requests()) {
      const double probe =
          stack_->service().CurrentProbe(t.request->site).probing_cost;
      expected_.push_back(
          {t.kernel->Evaluate(t.request->features, probe), probe});
    }
    before_ = stack_->service().Stats();
    tallies_.resize(kCallers);
    crew_ = std::make_unique<Crew>(
        kCallers, [this](int tid, const Phase& p) { Body(tid, p); });
    Phase warm;
    warm.warm = true;
    crew_->Run(warm);
  }

  Window Measure(double seconds, bool traced, SpanLog& log) override {
    const runtime::RuntimeStatsSnapshot s0 = stack_->service().Stats();
    Window w = CrewWindow(*crew_, tallies_, seconds, traced, log);
    const runtime::RuntimeStatsSnapshot d =
        Delta(s0, stack_->service().Stats());
    hit_frac_ = HitFrac(d);
    return w;
  }

  void Finish(Outcome& out) override {
    crew_.reset();
    out.quality = ScoreInProcess(*stack_, true, out);
    CheckReferenceQuality(*stack_, out.quality, out);
    const runtime::RuntimeStatsSnapshot d =
        Delta(before_, stack_->service().Stats());
    CheckConservation(d, out.extra_attempted, out);
    out.layers.Set("runtime.cache_hit_frac", hit_frac_, "fraction");
    SetCoreCounts(tally_, out.layers);
  }

  ServingStack* stack() override { return stack_.get(); }

 private:
  void Body(int tid, const Phase& phase) {
    ThreadTally& t = tallies_[static_cast<size_t>(tid)];
    runtime::EstimationService& service = stack_->service();
    const auto& requests = stack_->requests();
    size_t i = static_cast<size_t>(tid) * (kWorkingSet / kCallers);
    if (phase.warm) {
      for (size_t k = 0; k < 8 * kWorkingSet; ++k) {
        service.Estimate(*requests[k % kWorkingSet].request);
      }
      return;
    }
    const uint64_t rmw0 = runtime::RmwProbe::Current();
    uint64_t blocks = 0;
    while (!phase.stop->load(std::memory_order_relaxed)) {
      const bool span = phase.traced && blocks % kSpanSampleEvery == 0;
      const int64_t s = NowNs();
      for (size_t k = 0; k < kBlock; ++k) {
        const runtime::EstimateResponse r =
            service.Estimate(*requests[i].request);
        if (!r.ok() || r.estimate_seconds != expected_[i].first ||
            r.probing_cost != expected_[i].second) {
          ++t.failed;
        }
        i = (i + 1) % kWorkingSet;
      }
      const int64_t e = NowNs();
      if (span) t.log.Add("runtime.estimate_x64", blocks, -1, s, e);
      t.latency_us.push_back(1e-3 * static_cast<double>(e - s) / kBlock);
      t.ops += kBlock;
      ++blocks;
    }
    t.rmw = runtime::RmwProbe::Current() - rmw0;
  }

  const ServingInputs& inputs_;
  CoreTally tally_;
  std::unique_ptr<ServingStack> stack_;
  std::vector<std::pair<double, double>> expected_;  // (estimate, probe)
  runtime::RuntimeStatsSnapshot before_;
  std::vector<ThreadTally> tallies_;
  double hit_frac_ = 0.0;
  std::unique_ptr<Crew> crew_;  // last: its threads use the members above
};

// inproc_churn: two planners place distinct observed queries over 8 sites
// by expected cost and report each observed cost back; a regime thread
// moves site contention (ProbeNow) and drains the adaptation tier.
class ChurnWorkload : public Workload {
 public:
  static constexpr size_t kBlock = 4;
  static constexpr int kPlanners = 2;
  static constexpr int kRegime = kPlanners;  // thread id of the regime thread

  static ServingOptions Serving() {
    ServingOptions so;
    so.adaptation = true;
    so.feedback_per_key = 256;
    return so;
  }

  ChurnWorkload(const Options& o, const ServingInputs& inputs)
      : options_(o), inputs_(inputs) {}

  void Setup(SpanLog& log) override {
    stack_ = std::make_unique<ServingStack>(Serving(), inputs_, log, tally_);
    mscm::Rng rng(options_.seed ^ 0x5151);
    for (size_t k = 0; k < stack_->sites().size(); ++k) {
      shipping_.push_back(rng.Uniform(0.0, 0.5));
    }
    before_ = stack_->service().Stats();
    adapt_before_ = stack_->adaptation()->Stats();
    tallies_.resize(kPlanners + 1);
    crew_ = std::make_unique<Crew>(
        kPlanners + 1, [this](int tid, const Phase& p) { Body(tid, p); });
    Phase warm;
    warm.warm = true;
    crew_->Run(warm);
  }

  Window Measure(double seconds, bool traced, SpanLog& log) override {
    const runtime::RuntimeStatsSnapshot s0 = stack_->service().Stats();
    const runtime::AdaptationStats a0 = stack_->adaptation()->Stats();
    Window w = CrewWindow(*crew_, tallies_, seconds, traced, log);
    const runtime::RuntimeStatsSnapshot d =
        Delta(s0, stack_->service().Stats());
    const runtime::AdaptationStats a1 = stack_->adaptation()->Stats();
    hit_frac_ = HitFrac(d);
    rls_per_s_ =
        static_cast<double>(a1.adaptations_published - a0.adaptations_published) /
        w.wall_s;
    swaps_per_s_ = static_cast<double>(d.catalog_swaps + d.adaptations_applied) /
                   w.wall_s;
    const uint64_t offered = (a1.accepted - a0.accepted) +
                             (a1.dropped - a0.dropped);
    drop_frac_ = offered == 0 ? 0.0
                              : static_cast<double>(a1.dropped - a0.dropped) /
                                    static_cast<double>(offered);
    return w;
  }

  void Finish(Outcome& out) override {
    crew_.reset();
    runtime::AdaptationController& adaptation = *stack_->adaptation();
    adaptation.DrainOnce();
    // Models have adapted, so answers are checked for sanity, not against
    // the derived kernels.
    out.quality = ScoreInProcess(*stack_, false, out);
    const runtime::AdaptationStats a = adaptation.Stats();
    if (a.ignored != adapt_before_.ignored) {
      out.violations.push_back("feedback reports could not be priced");
    }
    if (a.accepted != a.drained) {
      out.violations.push_back("feedback reports left undrained");
    }
    const runtime::RuntimeStatsSnapshot d =
        Delta(before_, stack_->service().Stats());
    // Explicit-probe estimates bypass the cache: scored held-out queries and
    // every drained report (each carries its observed probing cost).
    CheckConservation(
        d, out.extra_attempted + (a.drained - adapt_before_.drained), out);
    out.layers.Set("runtime.cache_hit_frac", hit_frac_, "fraction");
    out.layers.Set("runtime.rls_applies_per_s", rls_per_s_, "1/s");
    out.layers.Set("runtime.catalog_swaps_per_s", swaps_per_s_, "1/s");
    out.layers.Set("runtime.feedback_drop_frac", drop_frac_, "fraction");
    SetCoreCounts(tally_, out.layers);
  }

  ServingStack* stack() override { return stack_.get(); }

 private:
  void Body(int tid, const Phase& phase) {
    if (tid == kRegime) {
      Regime(phase);
    } else {
      Plan(tid, phase);
    }
  }

  void Plan(int tid, const Phase& phase) {
    ThreadTally& t = tallies_[static_cast<size_t>(tid)];
    runtime::EstimationService& service = stack_->service();
    runtime::AdaptationController& adaptation = *stack_->adaptation();
    const auto& queries = inputs_.feedback;
    const auto& sites = stack_->sites();
    runtime::PlacementOptions options;
    options.ranking.policy = core::PlacementPolicy::kExpectedCost;
    std::vector<runtime::PlacementCandidate> candidates(sites.size());
    for (size_t k = 0; k < sites.size(); ++k) {
      candidates[k].request.site = sites[k];
      candidates[k].shipping_seconds = shipping_[k];
    }
    size_t j = static_cast<size_t>(tid) + next_query_[tid];
    std::vector<double> features;
    SpanLog unsampled;
    const uint64_t rmw0 = runtime::RmwProbe::Current();
    uint64_t op = 0;
    const size_t limit = phase.warm ? 64 : SIZE_MAX;
    while (op < limit && (phase.warm || !phase.stop->load(std::memory_order_relaxed))) {
      const int64_t s = NowNs();
      for (size_t k = 0; k < kBlock; ++k, ++op, j += kPlanners) {
        const HeldOut& q = queries[j % queries.size()];
        SpanLog& sampled = op % kSpanSampleEvery == 0 ? t.log : unsampled;
        // Each pass over the observed queries nudges their features by a
        // relative 1e-9 per pass, so every placement asks a new question.
        features = q.request.features;
        const double nudge = 1.0 + 1e-9 * static_cast<double>(j / queries.size());
        for (double& f : features) f *= nudge;
        size_t home = 0;
        for (size_t c = 0; c < sites.size(); ++c) {
          candidates[c].request.class_id = q.request.class_id;
          candidates[c].request.features = features;
          if (sites[c] == q.request.site) home = c;
        }
        runtime::PlacementResult result;
        {
          ScopedSpan span(sampled, "runtime.choose_placement", j);
          result = service.ChoosePlacement(candidates, options);
        }
        bool ok = result.chosen >= 0 &&
                  result.responses.size() == candidates.size();
        for (const runtime::EstimateResponse& r : result.responses) {
          ok = ok && r.ok() && std::isfinite(r.estimate_seconds);
        }
        if (!ok) {
          ++t.failed;
          continue;
        }
        runtime::FeedbackReport report;
        report.site = q.request.site;
        report.class_id = q.request.class_id;
        report.features = features;
        report.actual_cost = q.observed_cost;
        report.probing_cost = q.request.probing_cost;
        report.model_generation = result.responses[home].model_generation;
        ScopedSpan span(sampled, "runtime.record", j);
        adaptation.Record(report);
      }
      const int64_t e = NowNs();
      if (!phase.warm) {
        t.latency_us.push_back(1e-3 * static_cast<double>(e - s) / kBlock);
        t.ops += kBlock;
      }
    }
    next_query_[tid] = j - static_cast<size_t>(tid);
    t.rmw = runtime::RmwProbe::Current() - rmw0;
  }

  void Regime(const Phase& phase) {
    ThreadTally& t = tallies_[kRegime];
    runtime::AdaptationController& adaptation = *stack_->adaptation();
    const size_t n = stack_->sites().size();
    // Every 5 ms: move one site's load and probe it, then drain feedback.
    do {
      const size_t k = next_site_++ % n;
      {
        ScopedSpan span(t.log, "runtime.probe_now", next_site_);
        if (!stack_->SetLoadAndProbe(k, regime_rng_.Uniform(15.0, 120.0))) {
          ++t.failed;
        }
      }
      {
        ScopedSpan span(t.log, "runtime.drain", next_site_);
        adaptation.DrainOnce();
      }
      if (phase.warm) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } while (!phase.stop->load(std::memory_order_relaxed));
  }

  const Options options_;
  const ServingInputs& inputs_;
  CoreTally tally_;
  std::unique_ptr<ServingStack> stack_;
  std::vector<double> shipping_;
  size_t next_query_[kPlanners] = {};
  size_t next_site_ = 0;
  mscm::Rng regime_rng_{0x7e91};
  runtime::RuntimeStatsSnapshot before_;
  runtime::AdaptationStats adapt_before_;
  std::vector<ThreadTally> tallies_;
  double hit_frac_ = 0.0;
  double rls_per_s_ = 0.0;
  double swaps_per_s_ = 0.0;
  double drop_frac_ = 0.0;
  std::unique_ptr<Crew> crew_;  // last: its threads use the members above
};

// Runs a generator window and turns the tally into a Window. Its op samples
// are server CPU per frame in 250 ms slices, not wall round trips: a round
// trip chains three wakeups, and any vCPU the host steals stalls it.
Window WireWindow(WireGenerator& gen,
                  const std::vector<CheckedRequest>& requests, double seconds,
                  SpanLog& log, WireTally* tally_out) {
  Window w;
  const CpuTicks ticks0 = ReadCpuTicks();
  const double cpu0 = ProcessCpuSeconds();
  WireTally tally = gen.Run(requests, seconds, log);
  const double cpu = ProcessCpuSeconds() - cpu0;
  w.steal_frac = StealFraction(ticks0, ReadCpuTicks());
  w.ops = tally.answered_ok + tally.failed;
  w.failed = tally.failed;
  w.wall_s = tally.wall_s;
  // The generator's own CPU is the harness's, not the server's.
  w.cpu_s = cpu - tally.generator_cpu_s;
  w.latency_us = std::move(tally.slice_server_cpu_us);
  *tally_out = std::move(tally);
  return w;
}

void SetWireLayers(const WireTally& t, MetricSet& layers) {
  const double frames = static_cast<double>(std::max<uint64_t>(t.responses, 1));
  layers.Set("net.round_trip_us", Median(t.round_trip_us), "us");
  layers.Set("net.bytes_per_frame",
             static_cast<double>(t.bytes_sent + t.bytes_received) / frames,
             "bytes");
  layers.Set("net.responses_per_wakeup",
             static_cast<double>(t.responses) /
                 static_cast<double>(std::max<uint64_t>(t.wakeups, 1)),
             "count");
  layers.Set("net.generator_cpu_us_per_frame", 1e6 * t.generator_cpu_s / frames,
             "us");
  layers.Set("net.error_frames", static_cast<double>(t.error_frames), "count");
}

// wire_point: one generator thread, four loopback connections, one frame
// outstanding each; distinct requests outrun the server's estimate cache.
class WireWorkload : public Workload {
 public:
  static constexpr int kConnections = 4;
  static constexpr size_t kDistinct = 32768;

  static ServingOptions Serving() {
    ServingOptions so;
    so.service_workers = 1;
    so.server = true;
    so.requests_per_key = kDistinct / kNumKeys;
    return so;
  }

  explicit WireWorkload(const ServingInputs& inputs) : inputs_(inputs) {}

  void Setup(SpanLog& log) override {
    stack_ = std::make_unique<ServingStack>(Serving(), inputs_, log, tally_);
    before_ = stack_->service().Stats();
    gen_ = std::make_unique<WireGenerator>(stack_->server()->port(),
                                           kConnections);
    SpanLog off;
    warm_frames_ = gen_->Run(stack_->requests(), 0.3, off).sent;
  }

  Window Measure(double seconds, bool traced, SpanLog& log) override {
    (void)traced;
    const runtime::RuntimeStatsSnapshot s0 = stack_->service().Stats();
    const net::NetServerStatsSnapshot n0 = stack_->server()->Stats();
    WireTally tally;
    Window w = WireWindow(*gen_, stack_->requests(), seconds, log, &tally);
    hit_frac_ = HitFrac(Delta(s0, stack_->service().Stats()));
    shed_ = stack_->server()->Stats().overload_shed - n0.overload_shed;
    window_frames_ += tally.sent;
    SetWireLayers(tally, wire_layers_);
    if (wire_detail_.empty()) {
      // Printed, not listed: the wall rate and round trips follow host steal.
      wire_detail_.Num("wall_frames_per_s",
                       static_cast<double>(tally.responses) / tally.wall_s);
      for (const auto& [name, p] : {std::pair{"round_trip_p50_us", 0.50},
                                    std::pair{"round_trip_p90_us", 0.90},
                                    std::pair{"round_trip_p99_us", 0.99}}) {
        wire_detail_.Num(name, PickPercentile(tally.round_trip_us, p).value);
      }
    }
    return w;
  }

  void Finish(Outcome& out) override {
    std::vector<runtime::EstimateResponse> answers;
    SpanLog off;
    const WireTally scored = gen_->Run(stack_->heldout(), 0.0, off, &answers);
    out.extra_attempted += scored.sent;
    out.extra_failed += scored.failed;
    for (size_t i = 0; i < answers.size(); ++i) {
      if (answers[i].ok()) {
        out.quality.Add(answers[i].estimate_seconds,
                        inputs_.heldout[i].observed_cost);
      }
    }
    CheckReferenceQuality(*stack_, out.quality, out);
    const net::NetServerStatsSnapshot n = stack_->server()->Stats();
    if (n.requests_dispatched != n.requests_completed) {
      out.violations.push_back("net dispatched " +
                               std::to_string(n.requests_dispatched) +
                               " != completed " +
                               std::to_string(n.requests_completed));
    }
    if (n.dropped_responses != 0) {
      out.violations.push_back("net dropped " +
                               std::to_string(n.dropped_responses) +
                               " responses");
    }
    const uint64_t frames = warm_frames_ + window_frames_ + scored.sent;
    if (n.estimates != frames) {
      out.violations.push_back("server saw " + std::to_string(n.estimates) +
                               " estimates for " + std::to_string(frames) +
                               " frames sent");
    }
    CheckConservation(Delta(before_, stack_->service().Stats()),
                      scored.sent, out);
    out.layers.Set("runtime.cache_hit_frac", hit_frac_, "fraction");
    for (const auto& [name, value_unit] : wire_layers_.entries()) {
      out.layers.Set(name, value_unit.first, value_unit.second);
    }
    out.layers.Set("net.overload_shed", static_cast<double>(shed_), "count");
    SetCoreCounts(tally_, out.layers);
    out.detail.Raw("wire", wire_detail_.Json());
  }

  ServingStack* stack() override { return stack_.get(); }

 private:
  const ServingInputs& inputs_;
  CoreTally tally_;
  std::unique_ptr<ServingStack> stack_;
  runtime::RuntimeStatsSnapshot before_;
  std::unique_ptr<WireGenerator> gen_;
  uint64_t warm_frames_ = 0;
  MetricSet wire_layers_;  // of the last window
  Detail wire_detail_;     // of the first window
  uint64_t window_frames_ = 0;
  uint64_t shed_ = 0;
  double hit_frac_ = 0.0;
};

// A run's inputs, generated from --seed once, before any set-up is timed.
struct RunInputs {
  ServingInputs serving;
  std::vector<core::ObservationSet> derive_tests;
};

RunInputs MakeInputs(const Options& o) {
  RunInputs in;
  const std::string name = o.spec->name;
  if (name == "derive") {
    in.derive_tests = DeriveTests(o.seed);
  } else if (name == "inproc_hot") {
    in.serving = MakeServingInputs(HotWorkload::Serving(), o.seed);
  } else if (name == "inproc_churn") {
    in.serving = MakeServingInputs(ChurnWorkload::Serving(), o.seed);
  } else {
    in.serving = MakeServingInputs(WireWorkload::Serving(), o.seed);
  }
  return in;
}

std::unique_ptr<Workload> MakeWorkload(const Options& o, const RunInputs& in) {
  const std::string name = o.spec->name;
  if (name == "derive") {
    return std::make_unique<DeriveWorkload>(o, in.derive_tests);
  }
  if (name == "inproc_hot") return std::make_unique<HotWorkload>(in.serving);
  if (name == "inproc_churn") {
    return std::make_unique<ChurnWorkload>(o, in.serving);
  }
  return std::make_unique<WireWorkload>(in.serving);
}

// ---- Ladder -----------------------------------------------------------------

// Makes `value` observable so a timed loop cannot be folded or hoisted.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// The request path as a ladder, measured on one thread after the workload's
// own threads have stopped: compiled kernel -> cached estimate -> uncached
// estimate -> placement over all sites -> wire frame. Also times the
// control-plane calls a workload may not make itself.
void RunLadder(ServingStack& stack, SpanLog& log, MetricSet& layers,
               Detail& detail) {
  runtime::EstimationService& service = stack.service();
  const auto& heldout = stack.inputs().heldout;
  const size_t n = std::min<size_t>(heldout.size(), 256);

  // Tracked-probe copies of held-out queries from every catalog key: a hot
  // working set.
  std::vector<runtime::EstimateRequest> hot;
  std::vector<const core::CompiledEquations*> kernels;
  std::vector<double> probes;
  for (size_t i = 0; i < n; ++i) {
    runtime::EstimateRequest r = heldout[i * heldout.size() / n].request;
    r.probing_cost = -1.0;
    kernels.push_back(stack.Kernel(r.site, r.class_id));
    probes.push_back(service.CurrentProbe(r.site).probing_cost);
    hot.push_back(std::move(r));
  }
  // Distinct requests: more than the estimate cache holds.
  std::vector<runtime::EstimateRequest> distinct;
  std::vector<CheckedRequest> wire;
  for (size_t i = 0; i < 8192; ++i) {
    runtime::EstimateRequest r = hot[i % n];
    for (double& f : r.features) f *= 1.0 + 1e-6 * static_cast<double>(i + 1);
    distinct.push_back(std::move(r));
  }
  for (const runtime::EstimateRequest& r : distinct) {
    wire.push_back({&r, stack.Kernel(r.site, r.class_id)});
  }

  auto time_ns = [&](const char* name, size_t count, auto&& body) {
    const int64_t s = NowNs();
    body();
    const int64_t e = NowNs();
    log.Add(name, 0, -1, s, e);
    return static_cast<double>(e - s) / static_cast<double>(count);
  };

  const int64_t ladder_start = NowNs();
  const runtime::RuntimeStatsSnapshot ladder_stats0 = service.Stats();
  const size_t reps = 200;
  const double kernel_ns = time_ns("ladder.kernel", reps * n, [&] {
    for (size_t r = 0; r < reps; ++r) {
      for (size_t i = 0; i < n; ++i) {
        KeepAlive(kernels[i]->Evaluate(hot[i].features, probes[i]));
      }
    }
  });
  for (const auto& r : hot) KeepAlive(service.Estimate(r).estimate_seconds);
  const uint64_t rmw0 = runtime::RmwProbe::Current();
  const runtime::RuntimeStatsSnapshot s0 = service.Stats();
  const double hit_ns = time_ns("ladder.hit", reps * n, [&] {
    for (size_t r = 0; r < reps; ++r) {
      for (const auto& q : hot) KeepAlive(service.Estimate(q).estimate_seconds);
    }
  });
  const double rmw_per_op =
      static_cast<double>(runtime::RmwProbe::Current() - rmw0) /
      static_cast<double>(reps * n);
  const double miss_ns = time_ns("ladder.miss", distinct.size(), [&] {
    for (const auto& q : distinct) {
      KeepAlive(service.Estimate(q).estimate_seconds);
    }
  });
  const double ladder_hit_frac = HitFrac(Delta(s0, service.Stats()));

  const auto& sites = stack.sites();
  std::vector<runtime::PlacementCandidate> candidates(sites.size());
  runtime::PlacementOptions options;
  options.ranking.policy = core::PlacementPolicy::kExpectedCost;
  const size_t placements = 512;
  const double placement_ns = time_ns("ladder.placement", placements, [&] {
    for (size_t p = 0; p < placements; ++p) {
      for (size_t k = 0; k < sites.size(); ++k) {
        candidates[k].request = distinct[(p * 7 + k) % distinct.size()];
        candidates[k].request.site = sites[k];
      }
      KeepAlive(service.ChoosePlacement(candidates, options).chosen);
    }
  });

  std::unique_ptr<runtime::AdaptationController> own_adaptation;
  runtime::AdaptationController* adaptation = stack.adaptation();
  if (adaptation == nullptr) {
    own_adaptation =
        std::make_unique<runtime::AdaptationController>(&service, nullptr);
    adaptation = own_adaptation.get();
  }
  const runtime::AdaptationStats adapt0 = adaptation->Stats();
  const size_t records = 512;
  const double record_ns = time_ns("ladder.record", records, [&] {
    for (size_t i = 0; i < records; ++i) {
      const HeldOut& h = heldout[i % heldout.size()];
      runtime::FeedbackReport report;
      report.site = h.request.site;
      report.class_id = h.request.class_id;
      report.features = h.request.features;
      report.actual_cost = h.observed_cost;
      report.probing_cost = h.request.probing_cost;
      adaptation->Record(report);
    }
  });
  {
    ScopedSpan span(log, "runtime.drain", 0);
    adaptation->DrainOnce();
  }
  const runtime::AdaptationStats adapt1 = adaptation->Stats();
  const size_t probe_rounds = 4;
  const double probe_ns = time_ns("ladder.probe_now", probe_rounds * sites.size(), [&] {
    for (size_t r = 0; r < probe_rounds; ++r) {
      for (size_t k = 0; k < sites.size(); ++k) {
        stack.SetLoadAndProbe(k, stack.load(k));
      }
    }
  });
  const size_t stats_calls = 64;
  const double stats_ns = time_ns("ladder.stats", stats_calls, [&] {
    for (size_t i = 0; i < stats_calls; ++i) {
      KeepAlive(service.Stats().requests);
    }
  });

  std::unique_ptr<net::EstimateServer> own_server;
  net::EstimateServer* server = stack.server();
  if (server == nullptr) {
    net::EstimateServerConfig config;
    config.io_threads = 1;
    own_server = std::make_unique<net::EstimateServer>(&service, config);
    std::string error;
    MSCM_CHECK_MSG(own_server->Start(&error), error.c_str());
    server = own_server.get();
  }
  WireTally wire_tally;
  {
    WireGenerator gen(server->port(), 4);
    SpanLog wire_log(true);
    wire_tally = gen.Run(wire, 0.5, wire_log);
    const auto totals = wire_log.Totals();
    layers.Set("net.encode_ns", SpanMeanNs(totals, "net.encode"), "ns");
    layers.Set("net.decode_ns", SpanMeanNs(totals, "net.decode"), "ns");
    log.Append(wire_log);
  }
  if (own_server != nullptr) own_server->Stop();
  const double wire_ns = 1e3 * Median(wire_tally.round_trip_us);

  layers.Set("core.kernel_ns", kernel_ns, "ns");
  layers.Set("runtime.estimate_ns", miss_ns, "ns");
  layers.Set("runtime.cache_hit_frac", ladder_hit_frac, "fraction");
  layers.Set("runtime.shared_rmw_per_op", rmw_per_op, "count");
  layers.Set("runtime.choose_placement_us", 1e-3 * placement_ns, "us");
  layers.Set("runtime.record_ns", record_ns, "ns");
  layers.Set("runtime.probe_now_us", 1e-3 * probe_ns, "us");
  layers.Set("runtime.stats_us", 1e-3 * stats_ns, "us");
  const double ladder_s = 1e-9 * static_cast<double>(NowNs() - ladder_start);
  const runtime::RuntimeStatsSnapshot swaps = Delta(ladder_stats0, service.Stats());
  layers.Set("runtime.rls_applies_per_s",
             static_cast<double>(adapt1.adaptations_published -
                                 adapt0.adaptations_published) /
                 ladder_s,
             "1/s");
  layers.Set("runtime.catalog_swaps_per_s",
             static_cast<double>(swaps.catalog_swaps + swaps.adaptations_applied) /
                 ladder_s,
             "1/s");
  const uint64_t offered =
      (adapt1.accepted - adapt0.accepted) + (adapt1.dropped - adapt0.dropped);
  layers.Set("runtime.feedback_drop_frac",
             static_cast<double>(adapt1.dropped - adapt0.dropped) /
                 static_cast<double>(std::max<uint64_t>(offered, 1)),
             "fraction");
  SetWireLayers(wire_tally, layers);
  layers.Set("net.overload_shed", static_cast<double>(wire_tally.overloaded),
             "count");
  layers.Set("ladder.hit_over_kernel_x", hit_ns / kernel_ns, "x");
  layers.Set("ladder.miss_over_hit_x", miss_ns / hit_ns, "x");
  layers.Set("ladder.placement_per_candidate_over_estimate_x",
             placement_ns / static_cast<double>(sites.size()) / miss_ns, "x");
  layers.Set("ladder.wire_over_inproc_x", wire_ns / miss_ns, "x");

  Detail rungs;
  rungs.Raw("kernel", "{\"ns_per_op\": " + JsonNumber(kernel_ns) + "}");
  rungs.Raw("hit", "{\"ns_per_op\": " + JsonNumber(hit_ns) +
                       ", \"base\": \"kernel\"}");
  rungs.Raw("miss", "{\"ns_per_op\": " + JsonNumber(miss_ns) +
                        ", \"base\": \"hit\"}");
  rungs.Raw("placement_per_candidate",
            "{\"ns_per_op\": " +
                JsonNumber(placement_ns / static_cast<double>(sites.size())) +
                ", \"base\": \"miss\"}");
  rungs.Raw("wire_frame", "{\"ns_per_op\": " + JsonNumber(wire_ns) +
                              ", \"base\": \"miss\"}");
  detail.Raw("ladder", rungs.Json());
}

// ---- Run --------------------------------------------------------------------

// Time-based end-to-end metrics of one window. On wire_point ops_per_s is
// capacity: frames per second of server CPU (1e6 / cpu_us_per_op), because
// the wall rate follows host steal; the wall rate is printed in the detail.
void SetEndToEnd(const Options& o, const Window& w, MetricSet& m) {
  const double cpu_us = CpuUsPerOp(w.cpu_s, 0.0, w.ops);
  m.Set("ops_per_s",
        o.spec->cpu_based ? 1e6 / cpu_us
                              : static_cast<double>(w.ops) / w.wall_s,
        "1/s");
  m.Set("cpu_us_per_op", cpu_us, "us");
  m.Set("op_p50_us", PickPercentile(w.latency_us, 0.5).value, "us");
  m.Set("op_tail_us", PickPercentile(w.latency_us, o.spec->tail_p).value, "us");
}

// Per-layer metrics of a traced run: spans from set-up and the traced
// window, the workload's own counters, and the ladder for every layer the
// workload does not exercise itself.
void SetLayers(const Options& o, Workload& workload, const SpanLog& setup_log,
               SpanLog& window_log, const Window& traced_w, Outcome& out) {
  MetricSet& layers = out.layers;
  SpanLog off;
  MetricSet ladder;
  CoreTally ladder_tally;
  std::unique_ptr<ServingStack> own_stack;
  ServingStack* stack = workload.stack();
  ServingOptions so;
  so.heldout_per_key = 64;
  const ServingInputs ladder_inputs =
      stack == nullptr ? MakeServingInputs(so, o.seed) : ServingInputs{};
  if (stack == nullptr) {
    own_stack = std::make_unique<ServingStack>(so, ladder_inputs, off,
                                               ladder_tally);
    stack = own_stack.get();
  }
  RunLadder(*stack, window_log, ladder, out.detail);
  layers.Set("core.catalog_parse_ms", stack->catalog_parse_ms(), "ms");
  own_stack.reset();

  SpanLog all(true);
  all.Append(setup_log);
  all.Append(window_log);
  const auto totals = all.Totals();
  auto from_spans = [&](const char* metric, const char* span, double scale,
                        const char* unit) {
    const double v = SpanMeanNs(totals, span);
    if (v > 0.0 && !layers.Has(metric)) layers.Set(metric, v * scale, unit);
  };
  from_spans("core.derive_ms", "core.derive", 1e-6, "ms");
  from_spans("core.draw_us", "core.draw", 1e-3, "us");
  from_spans("core.states_ms", "core.states", 1e-6, "ms");
  from_spans("core.select_ms", "core.select", 1e-6, "ms");
  from_spans("stats.fit_us", "stats.fit", 1e-3, "us");
  from_spans("core.validate_ms", "core.validate", 1e-6, "ms");
  from_spans("runtime.choose_placement_us", "runtime.choose_placement", 1e-3,
             "us");
  from_spans("runtime.record_ns", "runtime.record", 1.0, "ns");
  from_spans("runtime.probe_now_us", "runtime.probe_now", 1e-3, "us");
  from_spans("runtime.estimate_ns", "runtime.estimate_x64", 1.0 / 64, "ns");
  if (std::string(o.spec->name) == "wire_point") {
    from_spans("net.encode_ns", "net.encode", 1.0, "ns");
    from_spans("net.decode_ns", "net.decode", 1.0, "ns");
  }
  if (traced_w.rmw_counted) {
    layers.Set("runtime.shared_rmw_per_op",
               static_cast<double>(traced_w.rmw) /
                   static_cast<double>(traced_w.ops),
               "count");
  }
  for (const auto& [name, value_unit] : ladder.entries()) {
    if (!layers.Has(name)) {
      layers.Set(name, value_unit.first, value_unit.second);
    }
  }
  layers.Set("host.steal_frac", traced_w.steal_frac, "fraction");

  mkdir(o.out_dir.c_str(), 0755);
  const std::string path = o.out_dir + "/spans-" + o.spec->name + "-seed" +
                           std::to_string(o.seed) + ".jsonl";
  if (!all.WriteJsonl(path)) {
    out.violations.push_back("could not write spans to " + path);
  }
  out.detail.Str("spans", path);
}

int Run(const Options& o) {
  SpanLog off;
  std::vector<double> setup_s;
  const RunInputs inputs = MakeInputs(o);
  std::unique_ptr<Workload> workload;
  SpanLog setup_log(o.trace);
  // Set-up is repeated; the median is reported and the last one is kept.
  for (int r = 0; r < kSetupRepeats; ++r) {
    workload.reset();
    workload = MakeWorkload(o, inputs);
    const int64_t t0 = NowNs();
    workload->Setup(r + 1 == kSetupRepeats ? setup_log : off);
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - t0));
  }

  Window w;
  Window traced_w;
  SpanLog window_log(true);
  MetricSet plain;
  MetricSet traced;
  if (!o.trace) {
    w = workload->Measure(o.seconds, false, off);
  } else {
    // Untraced then traced halves: their difference is the tracing overhead.
    w = workload->Measure(o.seconds / 2, false, off);
    traced_w = workload->Measure(o.seconds / 2, true, window_log);
    SetEndToEnd(o, traced_w, traced);
  }
  SetEndToEnd(o, w, plain);
  const PercentilePick tail = PickPercentile(w.latency_us, o.spec->tail_p);
  const size_t samples = w.latency_us.size();
  // The harness's own sample buffers are not the system's heap.
  std::vector<double>().swap(w.latency_us);
  std::vector<double>().swap(traced_w.latency_us);
  const double heap_mb = HeapInUseMb();

  Outcome out;
  workload->Finish(out);
  const uint64_t attempted = w.ops + traced_w.ops + out.extra_attempted;
  const uint64_t failed = w.failed + traced_w.failed + out.extra_failed;
  if (!o.trace && tail.beyond < kMinBeyondTail) {
    out.violations.push_back("op_tail_us has only " +
                             std::to_string(tail.beyond) +
                             " samples beyond its percentile");
  }
  if (out.quality.scored == 0) out.violations.push_back("nothing was scored");

  MetricSet metrics;
  if (!o.trace) {
    const double scored = static_cast<double>(out.quality.scored);
    metrics.Set("setup_s", Median(setup_s), "s");
    for (const auto& [name, value_unit] : plain.entries()) {
      metrics.Set(name, value_unit.first, value_unit.second);
    }
    metrics.Set("ok_frac",
                static_cast<double>(attempted - failed) /
                    static_cast<double>(attempted),
                "fraction");
    metrics.Set("very_good_frac",
                static_cast<double>(out.quality.very_good) / scored,
                "fraction");
    metrics.Set("good_frac", static_cast<double>(out.quality.good) / scored,
                "fraction");
    metrics.Set("heap_mb", heap_mb, "MiB");
  } else {
    Detail overhead;
    for (const auto& [name, value_unit] : plain.entries()) {
      overhead.Num(name, TracingOverhead(value_unit.first, traced.Get(name),
                                         name != "ops_per_s"));
    }
    out.detail.Raw("tracing_overhead", overhead.Json());
    out.layers.Set("trace.overhead_frac",
                   TracingOverhead(plain.Get("cpu_us_per_op"),
                                   traced.Get("cpu_us_per_op"), true),
                   "fraction");
    SetLayers(o, *workload, setup_log, window_log, traced_w, out);
    metrics = out.layers;
  }
  workload.reset();

  const Machine machine = DescribeMachine();
  Detail m;
  m.Num("nproc", machine.nproc);
  m.Str("cpu_model", machine.cpu_model);
  m.Str("compiler", machine.compiler);
  m.Str("build_type", machine.build_type);
  m.Str("commit", o.source_id);
  m.Num("seed", static_cast<double>(o.seed));
  m.Str("workload", o.spec->name);
  m.Num("threads", o.spec->threads);
  m.Num("host.steal_frac", o.trace ? traced_w.steal_frac : w.steal_frac);
  std::printf("# machine %s\n", m.Json().c_str());

  Detail run;
  run.Num("window_s", w.wall_s + traced_w.wall_s);
  std::string setups;
  for (double v : setup_s) setups += (setups.empty() ? "" : ", ") + JsonNumber(v);
  run.Raw("setup_s_samples", "[" + setups + "]");
  run.Str("op_sample", o.spec->sample);
  run.Num("op_tail_percentile", o.spec->tail_p);
  run.Num("op_samples", static_cast<double>(samples));
  run.Num("op_tail_beyond", static_cast<double>(tail.beyond));
  run.Num("scored", static_cast<double>(out.quality.scored));
  std::printf("# run %s\n", run.Json().c_str());
  std::printf("# detail %s\n", out.detail.Json().c_str());
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "perfbench: VIOLATION: %s\n", v.c_str());
  }
  const bool correct = out.violations.empty() && failed == 0;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload derive|inproc_hot|inproc_churn|"
               "wire_point --seed N --seconds S --trace 0|1 "
               "[--source-id ID] [--out DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadSpec& s : kSpecs) {
        if (value == s.name) o.spec = &s;
      }
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--source-id") {
      o.source_id = value;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (o.spec == nullptr || !(o.seconds > 0.0) || argc % 2 == 0) return Usage();
  return Run(o);
}
