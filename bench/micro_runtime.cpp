// Microbench for the online estimation service (src/runtime): the rows and
// duels no other program measures. Per-rung ns/op on the paper-derived
// catalog (kernel, cache hit, miss, placement, wire frame) comes from
// `perfbench --trace 1` (its ladder.* metrics); this bench measures how the
// service holds up as readers, a writer and a refresh daemon share it, what
// degraded serving costs, and the placement and drift-recovery duels.
//
// Rows (a fresh service each, estimate cache off, over one 40960-request
// workload cut into 512-request chunks before any clock runs):
//   single  x1   — one reader, one Estimate() call per request
//   batch   xN   — N readers (1, 2, 4, 8), one EstimateBatch() per chunk
//   batch   x8+w — 8 readers while a writer re-registers models (CoW swaps)
//   batch   x8+r — 8 readers while a refresh daemon, fed a stream of
//                  drifting feedback, continuously re-derives and swaps
//   degraded x1  — single x1 against sites whose probe circuit breakers are
//                  open: every response is priced from the last known state
//                  and flagged degraded. It runs right after single x1 in
//                  every round; the derived degraded_overhead_x is the
//                  median over rounds of degraded x1 / single x1 in CPU per
//                  request (a descheduled window cannot invert it); >= 1.0
//                  means degraded serving costs more.
//   termwalk x1  — raw-model hot loop through the retired per-term walk
//                  (CostModel::EstimateTermWalk), no service or cache
//   compiled x1  — the same raw-model hot loop through the compiled
//                  per-state table (CostModel::Estimate); the derived
//                  compiled_hot_loop_speedup_x is compiled / termwalk
//
// Duels (deterministic, counted in trials and observations):
//   boundary jitter placement — a placement duel on a probing cost that
//                  jitters around a state boundary: the point-estimate
//                  ranking flips between a cheap-state and expensive-state
//                  read of the jitter site (picking it ~half the time
//                  although its expected cost is worse), while the
//                  expected-cost ranking prices the served distribution's
//                  soft state membership and correctly avoids it. Emits
//                  placement_wrong_site_{point,expected}_rate and
//                  placement_regret_{point,expected}_x (realized cost vs a
//                  per-trial oracle).
//   drift-recovery duel — the environment's cost law jumps 3x and the RLS
//                  fast tier races a full-rederive-only baseline back to a
//                  10% serving error, scored in observations consumed.
//                  Emits adaptation_convergence_ratio_x (gated >= 3 in
//                  --smoke) and adaptation_probe_savings_x.
//
// Timing: every row runs kReps windows, in rounds over the rows so that
// drift in the host (and the healthy/degraded pair) hits every row alike,
// and reports the median requests/s with the min and max beside it. In a
// window each reader warms up on one pass over its chunks, waits at a start
// barrier (the calling thread is reader 0, so N readers are N threads), then
// serves chunks until a shared deadline — 50 ms with --smoke, 500 ms
// otherwise — and counts its own requests. Each reader also reads its CPU
// clock (CLOCK_THREAD_CPUTIME_ID) around its window, so a row reports
//   cpu_ns_per_request     — summed reader CPU / requests: what a request
//                            costs, whatever the host's scheduler does;
//   overlap                — summed reader CPU / (readers x window): 1.0 when
//                            every reader ran the whole window; a shared VM
//                            can read ~0.25 at x4 (the readers took turns on
//                            one CPU), which no code change can mend;
//   shared_rmw_per_request — the RmwProbe tally of shared atomic
//                            read-modify-writes, summed over readers (max
//                            over reps).
// Wall-clock thread scaling (thread_scaling_*_x, next to its overlap) is a
// report, not a gate: it measures whether the host runs the readers at once.
// Threads beyond the machine's cores cannot add speedup, so rows record an
// `oversubscribed` flag and the honest figures use the largest batch thread
// count that fits the machine.
//
// Emits BENCH_runtime.json. `--smoke` runs CI-sized windows, skips the JSON
// write, and fails (exit 1) if any of these hold: single x1 or batch x1
// performed a shared atomic RMW, the paired degraded overhead fell below
// 0.8x (orientation check), expected-cost placement did not strictly beat
// point-estimate placement on wrong-site rate in the boundary-jitter duel,
// placement_expected_cost_wins stayed zero, the drift-recovery duel failed
// to converge or its RLS-vs-rederive observation ratio fell below 3x, or
// (on a multi-core machine) a request cost more than 1.5x the CPU at the
// honest thread count than at batch x1 (median over rounds of the ratio).

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/text_table.h"
#include "core/cost_model.h"
#include "core/explanatory.h"
#include "core/observation_source.h"
#include "runtime/adaptation.h"
#include "runtime/estimation_service.h"
#include "runtime/model_refresh.h"
#include "runtime/rmw_probe.h"

namespace {

using namespace mscm;
using Clock = std::chrono::steady_clock;

constexpr size_t kBatch = 512;
constexpr size_t kChunks = 80;  // 40960 requests, 10 chunks per reader at x8
constexpr int kReps = 5;

// A fitted 4-state model over 3 selected variables with synthetic
// coefficients — the estimate path (state lookup + design row + dot
// product) is identical to a paper-derived model's.
core::CostModel MakeModel(core::QueryClassId cls, uint64_t seed) {
  const size_t n_features = core::VariableSet::ForClass(cls).size();
  constexpr int kStates = 4;
  core::ObservationSet obs;
  Rng rng(seed);
  for (int s = 0; s < kStates; ++s) {
    for (int i = 0; i < 50; ++i) {
      core::Observation o;
      o.probing_cost = s + 0.5;
      o.features.assign(n_features, 0.0);
      for (size_t j = 0; j < 3; ++j) o.features[j] = rng.Uniform(1.0, 10.0);
      o.cost = (s + 1.0) * (0.5 * o.features[0] + 0.2 * o.features[1] +
                            0.1 * o.features[2]);
      obs.push_back(std::move(o));
    }
  }
  return core::FitCostModel(
      cls, obs, {0, 1, 2},
      core::ContentionStates::FromBoundaries({1.0, 2.0, 3.0}),
      core::QualitativeForm::kGeneral);
}

// What a refresh daemon samples mid-bench: a cheap synthetic environment
// (no simulated site) so the re-derivation cost is regression + swap, and
// the bench isolates the *runtime* interference of refresh churn.
class BenchSource : public core::ObservationSource {
 public:
  explicit BenchSource(uint64_t seed) : rng_(seed) {}

  core::Observation Draw() override {
    core::Observation o;
    o.probing_cost = rng_.Uniform(0.0, 4.0);
    o.features.assign(
        core::VariableSet::ForClass(core::QueryClassId::kUnarySeqScan).size(),
        0.0);
    for (size_t j = 0; j < 3; ++j) o.features[j] = rng_.Uniform(1.0, 10.0);
    o.cost = 1.5 * o.features[0] + 0.6 * o.features[1] + 0.3 * o.features[2];
    return o;
  }

 private:
  Rng rng_;
};

struct Scenario {
  enum class Path { kService, kTermWalk, kCompiled };
  std::string name;
  int threads = 1;
  bool batched = false;
  bool with_writer = false;
  bool with_refresh = false;
  bool degraded = false;  // trip every site's breaker before the run
  Path path = Path::kService;
};

// One timed window of a row.
struct Result {
  double qps = 0.0;
  double cpu_ns_per_request = 0.0;
  double overlap = 0.0;
  double rmw_per_request = 0.0;
  double refreshes = 0.0;  // models re-derived + swapped during the run
};

struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

struct Row {
  Scenario scenario;
  std::vector<Result> reps = {};

  Spread Of(double Result::*field) const {
    std::vector<double> values;
    for (const Result& r : reps) values.push_back(r.*field);
    std::sort(values.begin(), values.end());
    return {values.front(), values[values.size() / 2], values.back()};
  }
};

// Median over rounds of a's CPU per request over b's in the same round:
// both rows of a round ran within a fraction of a second of each other, so
// a slow spell on the host lands on both sides of the ratio.
double PairedCpuRatio(const Row& a, const Row& b) {
  std::vector<double> ratios;
  for (size_t r = 0; r < a.reps.size(); ++r) {
    ratios.push_back(a.reps[r].cpu_ns_per_request /
                     b.reps[r].cpu_ns_per_request);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

using Chunk = std::vector<runtime::EstimateRequest>;

std::vector<Chunk> MakeWorkload() {
  const std::vector<std::string> sites = {"alpha", "beta"};
  const std::vector<core::QueryClassId> classes = {
      core::QueryClassId::kUnarySeqScan, core::QueryClassId::kJoinNoIndex};
  Rng rng(17);
  std::vector<Chunk> chunks(kChunks);
  for (size_t i = 0; i < kChunks * kBatch; ++i) {
    runtime::EstimateRequest request;
    request.site = sites[i % sites.size()];
    request.class_id = classes[(i / 2) % classes.size()];
    request.features.assign(
        core::VariableSet::ForClass(request.class_id).size(), 0.0);
    for (size_t j = 0; j < 3; ++j) {
      request.features[j] = rng.Uniform(1.0, 10.0);
    }
    chunks[i / kBatch].push_back(std::move(request));
  }
  return chunks;
}

std::unique_ptr<runtime::EstimationService> MakeService(bool degraded) {
  runtime::EstimationServiceConfig config;
  config.probe_ttl = std::chrono::hours(1);
  config.worker_threads = 0;  // reader threads are the parallelism measured
  if (degraded) {
    config.breaker.failure_threshold = 1;
    config.breaker.open_duration = std::chrono::hours(1);  // stays open
  }
  auto service = std::make_unique<runtime::EstimationService>(config);
  uint64_t seed = 1;
  for (const std::string& site : {std::string("alpha"), std::string("beta")}) {
    service->RegisterModel(
        site, MakeModel(core::QueryClassId::kUnarySeqScan, seed++));
    service->RegisterModel(
        site, MakeModel(core::QueryClassId::kJoinNoIndex, seed++));
    auto fail = std::make_shared<std::atomic<bool>>(false);
    service->RegisterSite(
        site, [fail, value = 0.5 + 0.7 * static_cast<double>(seed)] {
          // A NaN probe cost is a probe failure.
          return fail->load(std::memory_order_relaxed) ? std::nan("") : value;
        });
    service->ProbeNow(site);
    if (degraded) {
      // One failed probe past the threshold: the breaker opens and every
      // estimate serves the cached pre-failure state, flagged degraded.
      fail->store(true);
      service->ProbeNow(site);
    }
  }
  return service;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Runs `threads` readers through one timed window. serve(t, k) has reader t
// do its k-th step and returns the requests it priced; steps [0, warm_steps)
// are the reader's warm-up, before the start barrier. The window runs from
// the go signal to the last reader's own finish, so neither thread creation
// nor teardown is timed; each reader checks the shared deadline after every
// step, and serves at least one, so no row divides by zero requests.
template <typename Serve>
Result TimeWindow(int threads, Clock::duration window, size_t warm_steps,
                  Serve serve) {
  struct Tally {
    uint64_t requests = 0;
    uint64_t rmw = 0;
    double cpu_seconds = 0.0;
    Clock::time_point finished;
  };
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  std::latch ready(threads);
  std::atomic<bool> go{false};
  Clock::time_point started;
  Clock::time_point deadline;
  auto reader = [&](int t) {
    size_t k = 0;
    for (; k < warm_steps; ++k) serve(t, k);
    ready.count_down();
    if (t == 0) {
      ready.wait();
      started = Clock::now();
      deadline = started + window;
      go.store(true, std::memory_order_release);
    } else {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    const double cpu_before = ThreadCpuSeconds();
    const uint64_t rmw_before = runtime::RmwProbe::Current();
    uint64_t requests = 0;
    do {
      requests += serve(t, k++);
    } while (Clock::now() < deadline);
    Tally& tally = tallies[static_cast<size_t>(t)];
    tally.rmw = runtime::RmwProbe::Current() - rmw_before;
    tally.cpu_seconds = ThreadCpuSeconds() - cpu_before;
    tally.requests = requests;
    tally.finished = Clock::now();
  };
  std::vector<std::thread> readers;
  for (int t = 1; t < threads; ++t) readers.emplace_back(reader, t);
  reader(0);
  for (std::thread& r : readers) r.join();

  Tally total;
  for (const Tally& tally : tallies) {
    total.requests += tally.requests;
    total.rmw += tally.rmw;
    total.cpu_seconds += tally.cpu_seconds;
    total.finished = std::max(total.finished, tally.finished);
  }
  const double seconds =
      std::chrono::duration<double>(total.finished - started).count();
  const auto requests = static_cast<double>(total.requests);
  Result result;
  result.qps = requests / seconds;
  result.cpu_ns_per_request = 1e9 * total.cpu_seconds / requests;
  result.overlap = total.cpu_seconds / (threads * seconds);
  result.rmw_per_request = static_cast<double>(total.rmw) / requests;
  return result;
}

Result RunService(const Scenario& scenario, const std::vector<Chunk>& chunks,
                  Clock::duration window) {
  auto service = MakeService(scenario.degraded);

  std::atomic<bool> writer_stop{false};
  std::thread writer;
  if (scenario.with_writer) {
    writer = std::thread([&service, &writer_stop] {
      uint64_t seed = 1000;
      while (!writer_stop.load(std::memory_order_relaxed)) {
        service->RegisterModel(
            "alpha", MakeModel(core::QueryClassId::kUnarySeqScan, seed++));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // Refresh churn: a reporter thread feeds feedback whose observed costs
  // always disagree with the model, so the daemon trips, re-derives and
  // swaps continuously while the readers run.
  BenchSource refresh_source(99);
  std::unique_ptr<runtime::ModelRefreshDaemon> daemon;
  std::atomic<bool> reporter_stop{false};
  std::thread reporter;
  if (scenario.with_refresh) {
    runtime::ModelRefreshConfig refresh_config;
    refresh_config.min_reports = 8;
    refresh_config.drift_window = 8;
    refresh_config.error_threshold = 0.5;
    refresh_config.refresh_cooldown = std::chrono::nanoseconds(0);
    refresh_config.rederive.build.algorithm =
        core::StateAlgorithm::kSingleState;
    refresh_config.rederive.build.sample_size = 40;
    daemon = std::make_unique<runtime::ModelRefreshDaemon>(service.get(),
                                                           refresh_config);
    daemon->Watch("alpha", core::QueryClassId::kUnarySeqScan,
                  &refresh_source);
    reporter = std::thread([&daemon, &reporter_stop] {
      Rng rng(7);
      std::vector<double> features(
          core::VariableSet::ForClass(core::QueryClassId::kUnarySeqScan)
              .size(),
          0.0);
      while (!reporter_stop.load(std::memory_order_relaxed)) {
        for (size_t j = 0; j < 3; ++j) features[j] = rng.Uniform(1.0, 10.0);
        // Deliberately off the model by far more than the threshold.
        daemon->ReportObserved("alpha", core::QueryClassId::kUnarySeqScan,
                               features, 5.0 * features[0]);
      }
    });
  }

  // Reader t serves chunks t, t + threads, t + 2 * threads, ... in a cycle;
  // its warm-up is one pass over them.
  const auto threads = static_cast<size_t>(scenario.threads);
  const size_t own_chunks = chunks.size() / threads;
  Result result = TimeWindow(
      scenario.threads, window, own_chunks, [&](int t, size_t k) {
        const Chunk& chunk =
            chunks[static_cast<size_t>(t) + (k % own_chunks) * threads];
        if (scenario.batched) {
          service->EstimateBatch(chunk);
        } else {
          for (const runtime::EstimateRequest& r : chunk) service->Estimate(r);
        }
        return chunk.size();
      });

  if (scenario.with_writer) {
    writer_stop.store(true);
    writer.join();
  }
  if (scenario.with_refresh) {
    reporter_stop.store(true);
    reporter.join();
    result.refreshes =
        static_cast<double>(daemon->Stats().refreshes_succeeded);
    daemon.reset();  // drains any in-flight refresh before the service dies
  }
  return result;
}

// Raw-model hot loop: a 256-request working set priced directly against one
// CostModel — no service, snapshot or cache — isolating the serving
// representation itself (compiled per-state table vs the retired per-term
// walk). Probing costs cycle through all four states so the state lookup is
// exercised, not branch-predicted away.
struct RawWorkload {
  std::vector<std::vector<double>> features;
  std::vector<double> probes;
};

RawWorkload MakeRawWorkload() {
  constexpr size_t kWorkingSet = 256;
  const size_t width =
      core::VariableSet::ForClass(core::QueryClassId::kUnarySeqScan).size();
  Rng rng(23);
  RawWorkload workload;
  for (size_t i = 0; i < kWorkingSet; ++i) {
    std::vector<double> f(width, 0.0);
    for (size_t j = 0; j < 3; ++j) f[j] = rng.Uniform(1.0, 10.0);
    workload.features.push_back(std::move(f));
    workload.probes.push_back(0.5 + static_cast<double>(i % 4));
  }
  return workload;
}

// One step is four passes over the working set, so the deadline check
// between steps stays well under 1% of a step.
Result RunRaw(const Scenario& scenario, const core::CostModel& model,
              const RawWorkload& workload, Clock::duration window) {
  const bool compiled = scenario.path == Scenario::Path::kCompiled;
  const size_t set = workload.features.size();
  double sink = 0.0;
  const Result result = TimeWindow(1, window, 64, [&](int, size_t) {
    for (size_t pass = 0; pass < 4; ++pass) {
      if (compiled) {
        for (size_t k = 0; k < set; ++k) {
          sink += model.Estimate(workload.features[k], workload.probes[k]);
        }
      } else {
        for (size_t k = 0; k < set; ++k) {
          sink += model.EstimateTermWalk(workload.features[k],
                                         workload.probes[k]);
        }
      }
    }
    return 4 * set;
  });
  if (!(sink >= 0.0)) std::printf("sink %f\n", sink);  // keep the loops live
  return result;
}

// ---- Boundary-jitter placement duel ---------------------------------------
//
// Two candidate sites for the same query. "steady" always costs 1.0.
// "jitter" is a two-state site (boundary at probing cost 1.0) costing 0.5
// uncontended and 4.0 contended, whose probing cost jitters within ±2% of
// the boundary — well inside the served distribution's soft-membership band.
// Its true expected cost (~2.25) is far worse than steady's 1.0, but a
// point estimate reads whichever single state the probe happens to land in,
// so point-estimate placement picks the jitter site on roughly half the
// trials. Expected-cost placement prices the blended distribution (mean
// >= 1.1 on either side of the boundary) and avoids it.
//
// "Wrong site" = picked the site whose true expected cost is higher.
// regret_x = realized cost of the policy's picks over a per-trial oracle
// that sees the contention state the query actually ran under.
struct JitterOutcome {
  uint64_t trials = 0;
  double wrong_point_rate = 0.0;
  double wrong_expected_rate = 0.0;
  double regret_point_x = 0.0;
  double regret_expected_x = 0.0;
  uint64_t expected_cost_wins = 0;  // service counter after the duel
};

// A model whose cost is constant within each state: the per-state fit is
// exact (slopes ~0, intercept = the state's cost), so the duel isolates the
// ranking policy rather than regression noise.
core::CostModel MakeConstantStateModel(const std::vector<double>& boundaries,
                                       const std::vector<double>& state_costs,
                                       uint64_t seed) {
  const auto cls = core::QueryClassId::kUnarySeqScan;
  const size_t width = core::VariableSet::ForClass(cls).size();
  core::ObservationSet obs;
  Rng rng(seed);
  for (size_t s = 0; s < state_costs.size(); ++s) {
    for (int i = 0; i < 50; ++i) {
      core::Observation o;
      o.probing_cost = static_cast<double>(s) + 0.5;
      o.features.assign(width, 0.0);
      for (size_t j = 0; j < 3; ++j) o.features[j] = rng.Uniform(1.0, 10.0);
      o.cost = state_costs[s];
      obs.push_back(std::move(o));
    }
  }
  return core::FitCostModel(cls, obs, {0, 1, 2},
                            core::ContentionStates::FromBoundaries(boundaries),
                            core::QualitativeForm::kGeneral);
}

JitterOutcome RunJitterPlacement(size_t trials) {
  runtime::EstimationServiceConfig config;
  config.worker_threads = 0;
  auto service = std::make_unique<runtime::EstimationService>(config);
  service->RegisterModel("steady", MakeConstantStateModel({}, {1.0}, 71));
  service->RegisterModel("jitter",
                         MakeConstantStateModel({1.0}, {0.5, 4.0}, 72));

  const size_t width =
      core::VariableSet::ForClass(core::QueryClassId::kUnarySeqScan).size();
  Rng rng(29);
  std::vector<runtime::PlacementCandidate> candidates(2);
  for (auto& candidate : candidates) {
    candidate.request.class_id = core::QueryClassId::kUnarySeqScan;
    candidate.request.features.assign(width, 0.0);
    for (size_t j = 0; j < 3; ++j) {
      candidate.request.features[j] = rng.Uniform(1.0, 10.0);
    }
    candidate.shipping_seconds = 0.0;
  }
  candidates[0].request.site = "steady";
  candidates[0].request.probing_cost = 0.5;
  candidates[1].request.site = "jitter";

  const runtime::PlacementOptions point_options;  // kPointEstimate default
  runtime::PlacementOptions expected_options;
  expected_options.ranking.policy = core::PlacementPolicy::kExpectedCost;

  JitterOutcome outcome;
  outcome.trials = trials;
  uint64_t wrong_point = 0;
  uint64_t wrong_expected = 0;
  double realized_point = 0.0;
  double realized_expected = 0.0;
  double realized_oracle = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    // The probe the planner sees and the contention the query actually runs
    // under are independent draws from the same ±2% band — the probe is
    // information about the future, not a copy of it.
    candidates[1].request.probing_cost = 1.0 + rng.Uniform(-0.02, 0.02);
    const double actual = 1.0 + rng.Uniform(-0.02, 0.02);
    const double jitter_realized = actual <= 1.0 ? 0.5 : 4.0;

    const runtime::PlacementResult point =
        service->ChoosePlacement(candidates, point_options);
    const runtime::PlacementResult expected =
        service->ChoosePlacement(candidates, expected_options);

    wrong_point += point.chosen == 1 ? 1 : 0;
    wrong_expected += expected.chosen == 1 ? 1 : 0;
    realized_point += point.chosen == 1 ? jitter_realized : 1.0;
    realized_expected += expected.chosen == 1 ? jitter_realized : 1.0;
    realized_oracle += std::min(jitter_realized, 1.0);
  }
  const double n_trials = static_cast<double>(trials);
  outcome.wrong_point_rate = static_cast<double>(wrong_point) / n_trials;
  outcome.wrong_expected_rate = static_cast<double>(wrong_expected) / n_trials;
  outcome.regret_point_x = realized_point / realized_oracle;
  outcome.regret_expected_x = realized_expected / realized_oracle;
  outcome.expected_cost_wins = service->Stats().placement_expected_cost_wins;
  return outcome;
}

// ---- Drift-recovery duel: RLS fast tier vs full-rederive-only --------------
//
// The environment's cost law jumps to 3x what the served model was fitted
// for. Two independent services race to bring the serving estimate back
// within 10% of the new truth, and the score is *observations consumed* —
// wall clock would mostly measure sleep intervals, while observation count
// is the quantity the paper's maintenance loop actually pays for:
//
//   RLS arm       — an AdaptationController fed one feedback report per
//                   served query (piggybacked on traffic; zero dedicated
//                   probing observations). Convergence cost = reports folded.
//   rederive arm  — a ModelRefreshDaemon watching the key the PR-6 way:
//                   feedback only *triggers* the refresh (min_reports with
//                   the error threshold), after which the daemon draws
//                   sample_size fresh observations from the site to refit.
//                   Convergence cost = trigger reports + sampled draws.
//
// adaptation_convergence_ratio_x = rederive cost / RLS cost (want >= 3).
// adaptation_probe_savings_x     = dedicated probing observations the
//                                  rederive arm drew per convergence vs the
//                                  RLS arm's (floored at 1; the RLS arm
//                                  draws none by construction).
struct AdaptationDuelOutcome {
  uint64_t rls_observations = 0;
  uint64_t rederive_observations = 0;
  uint64_t rederive_probe_draws = 0;
  bool rls_converged = false;
  bool rederive_converged = false;
  double convergence_ratio_x = 0.0;
  double probe_savings_x = 0.0;
};

// The post-drift environment at contention state 0 (probing cost 0.5):
// exactly 3x the law MakeModel fitted.
double DriftedTruth(const std::vector<double>& f) {
  return 3.0 * (0.5 * f[0] + 0.2 * f[1] + 0.1 * f[2]);
}

// An ObservationSource for the rederive arm that counts every draw — each
// one stands for a dedicated probing observation against the live site.
class CountingDriftSource : public core::ObservationSource {
 public:
  explicit CountingDriftSource(uint64_t seed) : rng_(seed) {}

  core::Observation Draw() override {
    ++draws_;
    core::Observation o;
    o.probing_cost = 0.5;
    o.features.assign(
        core::VariableSet::ForClass(core::QueryClassId::kUnarySeqScan).size(),
        0.0);
    for (size_t j = 0; j < 3; ++j) o.features[j] = rng_.Uniform(1.0, 10.0);
    o.cost = DriftedTruth(o.features);
    return o;
  }

  uint64_t draws() const { return draws_; }

 private:
  Rng rng_;
  uint64_t draws_ = 0;
};

// Both arms serve one site whose probe is pinned at 0.5 (state 0): the
// rederive arm's trigger path prices reports against the *cached* probe, so
// an uncontrolled probe would land in a different state than the drifted
// law was generated for and the error signal would read garbage.
std::unique_ptr<runtime::EstimationService> MakeDuelService() {
  runtime::EstimationServiceConfig config;
  config.probe_ttl = std::chrono::hours(1);
  config.worker_threads = 0;  // refreshes run inline
  auto service = std::make_unique<runtime::EstimationService>(config);
  service->RegisterModel("alpha",
                         MakeModel(core::QueryClassId::kUnarySeqScan, 1));
  service->RegisterSite("alpha", [] { return 0.5; });
  service->ProbeNow("alpha");
  return service;
}

AdaptationDuelOutcome RunAdaptationDuel() {
  const auto cls = core::QueryClassId::kUnarySeqScan;
  const size_t width = core::VariableSet::ForClass(cls).size();

  // The fixed query both arms are judged on, priced at state 0.
  runtime::EstimateRequest check;
  check.site = "alpha";
  check.class_id = cls;
  check.features.assign(width, 0.0);
  check.features[0] = 5.0;
  check.features[1] = 5.0;
  check.features[2] = 5.0;
  check.probing_cost = 0.5;
  const double truth = DriftedTruth(check.features);

  const auto converged = [&](runtime::EstimationService& service) {
    const runtime::EstimateResponse r = service.Estimate(check);
    return r.ok() && std::abs(r.estimate_seconds - truth) / truth <= 0.10;
  };

  constexpr uint64_t kObservationCap = 4096;
  AdaptationDuelOutcome outcome;

  {  // RLS arm: reports piggybacked on served traffic, drained inline.
    auto service = MakeDuelService();
    runtime::AdaptationConfig config;
    config.min_updates_to_publish = 4;
    config.stall_window = kObservationCap;  // the duel measures the fast
    config.min_samples_for_drift = kObservationCap;  // tier alone
    runtime::AdaptationController controller(service.get(), nullptr, config);
    Rng rng(311);
    runtime::FeedbackReport report;
    report.site = "alpha";
    report.class_id = cls;
    report.probing_cost = 0.5;
    report.features.assign(width, 0.0);
    while (outcome.rls_observations < kObservationCap) {
      for (size_t j = 0; j < 3; ++j) {
        report.features[j] = rng.Uniform(1.0, 10.0);
      }
      report.actual_cost = DriftedTruth(report.features);
      // A real client prices the query first and echoes the generation the
      // estimate came from; unstamped reports would read as stale lineage
      // once the fast tier starts publishing.
      runtime::EstimateRequest priced;
      priced.site = "alpha";
      priced.class_id = cls;
      priced.features = report.features;
      priced.probing_cost = 0.5;
      report.model_generation = service->Estimate(priced).model_generation;
      controller.Record(report);
      controller.DrainOnce();
      ++outcome.rls_observations;
      if (converged(*service)) {
        outcome.rls_converged = true;
        break;
      }
    }
  }

  {  // Rederive arm: feedback only triggers; the refit re-samples the site.
    auto service = MakeDuelService();
    runtime::ModelRefreshConfig refresh_config;
    refresh_config.min_reports = 8;
    refresh_config.drift_window = 8;
    refresh_config.error_threshold = 0.5;
    refresh_config.refresh_cooldown = std::chrono::nanoseconds(0);
    refresh_config.rederive.build.algorithm =
        core::StateAlgorithm::kSingleState;
    refresh_config.rederive.build.sample_size = 40;
    runtime::ModelRefreshDaemon daemon(service.get(), refresh_config);
    CountingDriftSource source(313);
    daemon.Watch("alpha", cls, &source);
    Rng rng(311);
    std::vector<double> features(width, 0.0);
    uint64_t reports = 0;
    while (reports < kObservationCap) {
      for (size_t j = 0; j < 3; ++j) features[j] = rng.Uniform(1.0, 10.0);
      // Refreshes run inline here (zero worker threads), so convergence can
      // be checked right after the report that tripped the refresh.
      daemon.ReportObserved("alpha", cls, features, DriftedTruth(features));
      ++reports;
      if (converged(*service)) {
        outcome.rederive_converged = true;
        break;
      }
    }
    outcome.rederive_probe_draws = source.draws();
    outcome.rederive_observations = reports + source.draws();
  }

  if (outcome.rls_observations > 0) {
    outcome.convergence_ratio_x =
        static_cast<double>(outcome.rederive_observations) /
        static_cast<double>(outcome.rls_observations);
  }
  // The RLS arm draws zero dedicated probing observations by construction;
  // floor its cost at one observation so the savings stay a finite ratio.
  outcome.probe_savings_x = static_cast<double>(outcome.rederive_probe_draws);
  return outcome;
}


}  // namespace

int main(int argc, char** argv) {
  using namespace mscm;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const Clock::duration window =
      smoke ? std::chrono::milliseconds(50) : std::chrono::milliseconds(500);
  const std::vector<Chunk> chunks = MakeWorkload();
  const core::CostModel raw_model =
      MakeModel(core::QueryClassId::kUnarySeqScan, 1);
  const RawWorkload raw_workload = MakeRawWorkload();

  using Path = Scenario::Path;
  std::vector<Row> rows = {
      {{"single x1", 1}},
      {{"degraded x1", 1, false, false, false, /*degraded=*/true}},
      {{"batch x1", 1, /*batched=*/true}},
      {{"batch x2", 2, true}},
      {{"batch x4", 4, true}},
      {{"batch x8", 8, true}},
      {{"batch x8 + writer", 8, true, /*with_writer=*/true}},
      {{"batch x8 + refresh", 8, true, false, /*with_refresh=*/true}},
      {{"termwalk x1", 1, false, false, false, false, Path::kTermWalk}},
      {{"compiled x1", 1, false, false, false, false, Path::kCompiled}},
  };
  const Row& single = rows[0];
  const Row& degraded = rows[1];
  const Row& batch1 = rows[2];
  const Row& batch8 = rows[5];
  const Row& termwalk = rows[8];
  const Row& compiled = rows[9];

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned effective_hw = hw == 0 ? 1 : hw;

  std::printf("micro_runtime: %zu-request workload, batch size %zu, %d reps "
              "of %lld ms per row, %u hardware threads%s\n\n",
              kChunks * kBatch, kBatch, kReps,
              static_cast<long long>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(window)
                      .count()),
              effective_hw, smoke ? " [smoke]" : "");

  for (int rep = 0; rep < kReps; ++rep) {
    for (Row& row : rows) {
      row.reps.push_back(
          row.scenario.path == Path::kService
              ? RunService(row.scenario, chunks, window)
              : RunRaw(row.scenario, raw_model, raw_workload, window));
    }
  }

  TextTable table({"scenario", "requests/s", "min", "max", "cpu ns/req",
                   "overlap", "rmw/req", "refreshes"});
  for (const Row& row : rows) {
    const Spread qps = row.Of(&Result::qps);
    const bool oversub =
        static_cast<unsigned>(row.scenario.threads) > effective_hw;
    table.AddRow({row.scenario.name + (oversub ? " *" : ""),
                  Format("%.0f", qps.median), Format("%.0f", qps.min),
                  Format("%.0f", qps.max),
                  Format("%.1f", row.Of(&Result::cpu_ns_per_request).median),
                  Format("%.2f", row.Of(&Result::overlap).median),
                  Format("%.3f", row.Of(&Result::rmw_per_request).max),
                  Format("%.0f", row.Of(&Result::refreshes).median)});
  }
  std::printf("%s\n", table.Render().c_str());
  if (8u > effective_hw) {
    std::printf("* oversubscribed: more reader threads than the machine's %u "
                "hardware thread%s — throughput is a contention measurement, "
                "not scaling\n\n",
                effective_hw, effective_hw == 1 ? "" : "s");
  }

  // The boundary-jitter placement duel (point estimate vs expected cost on
  // a probing cost straddling a state boundary).
  const JitterOutcome jitter = RunJitterPlacement(smoke ? 400 : 4000);

  // The drift-recovery duel (RLS fast tier vs full-rederive-only) — counted
  // in observations, so the same size in smoke and full mode.
  const AdaptationDuelOutcome duel = RunAdaptationDuel();

  const auto median_qps = [](const Row& row) {
    return row.Of(&Result::qps).median;
  };
  const double batch_amortization = median_qps(batch1) / median_qps(single);
  const double degraded_overhead = PairedCpuRatio(degraded, single);
  const double compiled_speedup = median_qps(compiled) / median_qps(termwalk);
  const double single_rmw = single.Of(&Result::rmw_per_request).max;
  const double batch1_rmw = batch1.Of(&Result::rmw_per_request).max;

  // Honest scaling: the largest measured batch thread count that fits the
  // machine (batch x1/x2/x4/x8 sit at rows[2..5]). With one hardware thread
  // this degenerates to batch x1 by construction — which is the honest
  // answer: this box cannot measure scale-out.
  const bool scaling_oversubscribed = 8u > effective_hw;
  const Row* honest = &batch1;
  for (size_t i = 3; i <= 5; ++i) {
    if (static_cast<unsigned>(rows[i].scenario.threads) <= effective_hw) {
      honest = &rows[i];
    }
  }
  const int honest_threads = honest->scenario.threads;
  const double honest_scaling = median_qps(*honest) / median_qps(batch1);
  const double honest_overlap = honest->Of(&Result::overlap).median;
  const double honest_cpu_growth = PairedCpuRatio(*honest, batch1);

  std::printf("batch amortization (batch x1 / single x1): %.2fx\n",
              batch_amortization);
  std::printf("thread scaling (batch x8 / batch x1):      %.2fx%s\n",
              median_qps(batch8) / median_qps(batch1),
              scaling_oversubscribed ? "  [oversubscribed — see *]" : "");
  std::printf("thread scaling honest (batch x%d / x1):     %.2fx "
              "(overlap %.2f)\n",
              honest_threads, honest_scaling, honest_overlap);
  std::printf("cpu per request (batch x%d / x1):           %.2fx (want <= "
              "1.5)\n",
              honest_threads, honest_cpu_growth);
  std::printf("compiled hot loop (compiled / termwalk):   %.2fx\n",
              compiled_speedup);
  std::printf("degraded serving (paired, cpu per request):%.2fx overhead\n",
              degraded_overhead);
  std::printf("uncached single/batch RMWs per request:    %.3f / %.3f "
              "(want 0)\n",
              single_rmw, batch1_rmw);
  std::printf("placement wrong-site rate point/expected:  %.3f / %.3f "
              "(%llu trials)\n",
              jitter.wrong_point_rate, jitter.wrong_expected_rate,
              static_cast<unsigned long long>(jitter.trials));
  std::printf("placement regret vs oracle point/expected: %.2fx / %.2fx "
              "(expected-cost wins: %llu)\n",
              jitter.regret_point_x, jitter.regret_expected_x,
              static_cast<unsigned long long>(jitter.expected_cost_wins));
  std::printf("drift recovery RLS/rederive observations:  %llu / %llu "
              "(ratio %.1fx, probe savings %.0fx)\n",
              static_cast<unsigned long long>(duel.rls_observations),
              static_cast<unsigned long long>(duel.rederive_observations),
              duel.convergence_ratio_x, duel.probe_savings_x);

  if (smoke) {
    bool fail = false;
    // The uncached rungs: a miss reads its site's seqlocked cell under the
    // epoch-published view, so it performs loads only.
    for (const Row* row : {&single, &batch1}) {
      const double rmw = row->Of(&Result::rmw_per_request).max;
      if (rmw != 0.0) {
        std::printf("\nSMOKE FAIL: uncached %s performed %.3f shared atomic "
                    "RMWs per request; the seqlocked site cell and the "
                    "epoch-read view should make it exactly 0\n",
                    row->scenario.name.c_str(), rmw);
        fail = true;
      }
    }
    if (!(degraded_overhead >= 0.8)) {
      std::printf("\nSMOKE FAIL: degraded_overhead_x %.3f — the degraded / "
                  "healthy cost ratio should sit near or above 1.0; well below "
                  "means the ratio inverted or the paired measurement "
                  "broke\n",
                  degraded_overhead);
      fail = true;
    }
    if (!(jitter.wrong_expected_rate < jitter.wrong_point_rate)) {
      std::printf("\nSMOKE FAIL: expected-cost placement picked the wrong "
                  "site at %.3f, not below the point-estimate rate %.3f — "
                  "distribution ranking is not beating the point estimate "
                  "under boundary jitter\n",
                  jitter.wrong_expected_rate, jitter.wrong_point_rate);
      fail = true;
    }
    if (jitter.expected_cost_wins == 0) {
      std::printf("\nSMOKE FAIL: placement_expected_cost_wins stayed 0 over "
                  "the jitter duel — the expected-cost ranking never "
                  "diverged from the point argmin\n");
      fail = true;
    }
    if (!duel.rls_converged || !duel.rederive_converged) {
      std::printf("\nSMOKE FAIL: drift-recovery duel did not converge "
                  "(RLS %s, rederive %s) — an adaptation tier cannot track "
                  "a 3x coefficient drift\n",
                  duel.rls_converged ? "ok" : "STUCK",
                  duel.rederive_converged ? "ok" : "STUCK");
      fail = true;
    }
    if (!(duel.convergence_ratio_x >= 3.0)) {
      std::printf("\nSMOKE FAIL: adaptation_convergence_ratio_x %.2f < 3.0 — "
                  "the RLS fast tier should recover from parametric drift "
                  "with at least 3x fewer observations than a full "
                  "re-derivation\n",
                  duel.convergence_ratio_x);
      fail = true;
    }
    if (effective_hw > 1 && !(honest_cpu_growth <= 1.5)) {
      std::printf("\nSMOKE FAIL: a request at batch x%d cost %.2fx the CPU "
                  "it costs at batch x1 on a %u-thread machine — readers "
                  "sharing the service made each request dearer (shared "
                  "cache lines on the estimate path)\n",
                  honest_threads, honest_cpu_growth, effective_hw);
      fail = true;
    }
    if (fail) return 1;
    std::printf("\nsmoke ok: uncached single/batch served with zero shared "
                "atomic RMWs, cpu per request x%d/x1 %.2fx, degraded "
                "overhead %.2fx, expected-cost wrong-site %.3f < point "
                "%.3f, drift recovery %.1fx fewer observations via RLS\n",
                honest_threads, honest_cpu_growth, degraded_overhead,
                jitter.wrong_expected_rate, jitter.wrong_point_rate,
                duel.convergence_ratio_x);
    return 0;  // no JSON in smoke mode — numbers from a tiny run mislead
  }

  FILE* json = std::fopen("BENCH_runtime.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"micro_runtime\",\n");
    std::fprintf(json, "  %s,\n", bench::MachineJsonFields().c_str());
    std::fprintf(json,
                 "  \"workload_requests\": %zu,\n  \"batch_size\": %zu,\n",
                 kChunks * kBatch, kBatch);
    std::fprintf(json, "  \"reps\": %d,\n  \"window_seconds\": %.3f,\n",
                 kReps, std::chrono::duration<double>(window).count());
    std::fprintf(json, "  \"scenarios\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const Scenario& s = row.scenario;
      const Spread qps = row.Of(&Result::qps);
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"threads\": %d, \"batched\": %s, "
                   "\"writer\": %s, \"refresh\": %s, \"degraded\": %s, "
                   "\"oversubscribed\": %s, \"qps\": %.0f, "
                   "\"qps_min\": %.0f, \"qps_max\": %.0f, "
                   "\"cpu_ns_per_request\": %.2f, \"overlap\": %.3f, "
                   "\"shared_rmw_per_request\": %.3f, "
                   "\"refreshes\": %.0f}%s\n",
                   s.name.c_str(), s.threads, s.batched ? "true" : "false",
                   s.with_writer ? "true" : "false",
                   s.with_refresh ? "true" : "false",
                   s.degraded ? "true" : "false",
                   static_cast<unsigned>(s.threads) > effective_hw ? "true"
                                                                   : "false",
                   qps.median, qps.min, qps.max,
                   row.Of(&Result::cpu_ns_per_request).median,
                   row.Of(&Result::overlap).median,
                   row.Of(&Result::rmw_per_request).max,
                   row.Of(&Result::refreshes).median,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"batch_amortization_x\": %.3f,\n",
                 batch_amortization);
    std::fprintf(json, "  \"thread_scaling_8t_x\": %.3f,\n",
                 median_qps(batch8) / median_qps(batch1));
    std::fprintf(json, "  \"thread_scaling_8t_oversubscribed\": %s,\n",
                 scaling_oversubscribed ? "true" : "false");
    std::fprintf(json, "  \"thread_scaling_honest_threads\": %d,\n",
                 honest_threads);
    std::fprintf(json, "  \"thread_scaling_honest_x\": %.3f,\n",
                 honest_scaling);
    std::fprintf(json, "  \"thread_scaling_honest_overlap\": %.3f,\n",
                 honest_overlap);
    std::fprintf(json, "  \"cpu_per_request_honest_over_x1\": %.3f,\n",
                 honest_cpu_growth);
    std::fprintf(json, "  \"compiled_hot_loop_speedup_x\": %.3f,\n",
                 compiled_speedup);
    std::fprintf(json, "  \"degraded_overhead_x\": %.3f,\n",
                 degraded_overhead);
    std::fprintf(json, "  \"placement_trials\": %llu,\n",
                 static_cast<unsigned long long>(jitter.trials));
    std::fprintf(json, "  \"placement_wrong_site_point_rate\": %.4f,\n",
                 jitter.wrong_point_rate);
    std::fprintf(json, "  \"placement_wrong_site_expected_rate\": %.4f,\n",
                 jitter.wrong_expected_rate);
    std::fprintf(json, "  \"placement_regret_point_x\": %.3f,\n",
                 jitter.regret_point_x);
    std::fprintf(json, "  \"placement_regret_expected_x\": %.3f,\n",
                 jitter.regret_expected_x);
    std::fprintf(json, "  \"placement_expected_cost_wins\": %llu,\n",
                 static_cast<unsigned long long>(jitter.expected_cost_wins));
    std::fprintf(json, "  \"adaptation_rls_observations\": %llu,\n",
                 static_cast<unsigned long long>(duel.rls_observations));
    std::fprintf(json, "  \"adaptation_rederive_observations\": %llu,\n",
                 static_cast<unsigned long long>(duel.rederive_observations));
    std::fprintf(json, "  \"adaptation_rederive_probe_draws\": %llu,\n",
                 static_cast<unsigned long long>(duel.rederive_probe_draws));
    std::fprintf(json, "  \"adaptation_convergence_ratio_x\": %.3f,\n",
                 duel.convergence_ratio_x);
    std::fprintf(json, "  \"adaptation_probe_savings_x\": %.3f\n",
                 duel.probe_savings_x);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_runtime.json\n");
  }
  return 0;
}
