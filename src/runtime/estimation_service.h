// The online cost-estimation service: the paper's derived multi-states cost
// models (§4) served as a concurrent, low-latency runtime component of a
// global query optimizer.
//
// Many client threads ask "what would a query of class C with feature
// vector x cost at site S right now?". The service answers from
//   (1) one epoch-published read view holding an immutable catalog
//       snapshot of derived cost models (readers never lock; a control-plane
//       change copy-on-writes the catalog into a new view and publishes it
//       once) — estimates evaluate each model's compiled per-state equation
//       table (core::CompiledEquations via GlobalCatalog::FindCompiled),
//       never the derivation-side DesignLayout — and
//   (2) per-site ContentionTrackers whose background probers keep a cached
//       (contention state, probing cost) per site, so no probing query runs
//       on the estimation path.
// Responses carry the contention state used, and a `stale_probe` flag when
// the cached probe has outlived its TTL (last-known-state fallback).
//
// EstimateBatch() prices many requests in one call — the federated-join
// planner prices every candidate placement of every component query at
// once — amortizing snapshot acquisition and per-site probe lookups over
// the batch and optionally fanning chunks out on a worker pool.

#ifndef MSCM_RUNTIME_ESTIMATION_SERVICE_H_
#define MSCM_RUNTIME_ESTIMATION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/catalog.h"
#include "core/cost_distribution.h"
#include "runtime/clock.h"
#include "runtime/contention_tracker.h"
#include "runtime/epoch.h"
#include "runtime/estimate_cache.h"
#include "runtime/estimate_types.h"
#include "runtime/runtime_stats.h"
#include "runtime/thread_pool.h"

namespace mscm::mdbs {
class MdbsAgent;
}  // namespace mscm::mdbs

namespace mscm::runtime {

struct EstimationServiceConfig {
  // Cached probes older than this are still served, flagged stale.
  std::chrono::nanoseconds probe_ttl = std::chrono::seconds(5);
  // Background probe period per site; zero = probe only via ProbeNow().
  std::chrono::nanoseconds probe_interval{0};
  // Worker threads for EstimateBatch fan-out: 0 = run batches on the
  // calling thread, < 0 = one per hardware thread.
  int worker_threads = 0;
  // Minimum batch items per fan-out chunk.
  size_t batch_grain = 64;
  // Per-site adaptive probing cadence bounds (see ContentionTrackerConfig);
  // both positive enables adaptation, starting from probe_interval.
  std::chrono::nanoseconds min_probe_interval{0};
  std::chrono::nanoseconds max_probe_interval{0};
  // Per-site probe deadline: a probe still running after this long is
  // abandoned and counted as a failure (see ContentionTrackerConfig). Zero
  // disables.
  std::chrono::nanoseconds probe_timeout{0};
  // Retry backoff base after a failed background probe (see
  // ContentionTrackerConfig::failure_retry). Zero disables.
  std::chrono::nanoseconds probe_failure_retry{0};
  // Per-site probe circuit breaker (failure_threshold 0 disables): after a
  // run of consecutive probe failures the site enters degraded — probing is
  // suppressed, estimates serve from the last known state with
  // degraded=true, and the refresh daemon holds its re-derivations.
  CircuitBreakerConfig breaker;
  // State-keyed response memo (see estimate_cache.h); capacity_per_thread 0
  // disables.
  EstimateCacheConfig cache;
  // Soft state-membership band for the near_boundary_sites gauge and the
  // default placement ranking: a site whose published probing cost sits
  // within band_fraction * |boundary| of a partition boundary is "near" it
  // (see core::CompiledEquations::EvaluateDistribution).
  double boundary_band_fraction = 0.1;
  Clock* clock = Clock::System();
};

// EstimateStatus / EstimateRequest / EstimateResponse live in
// runtime/estimate_types.h (shared with the estimate cache).

// A candidate placement: where could this component query run, and what
// would shipping its result home cost under current link conditions?
struct PlacementCandidate {
  EstimateRequest request;
  double shipping_seconds = 0.0;
};

// How ChoosePlacement ranks candidates (see core::PlacementRanking): the
// default is the legacy point-estimate argmin; kExpectedCost and
// kRiskAdjusted rank the served cost distributions instead, penalizing
// stale/degraded candidates by widening their intervals.
struct PlacementOptions {
  core::PlacementRanking ranking;
};

struct PlacementResult {
  int chosen = -1;  // index of cheapest candidate; -1 if none estimable
  core::PlacementPolicy policy = core::PlacementPolicy::kPointEstimate;
  std::vector<EstimateResponse> responses;
  std::vector<double> total_seconds;  // local estimate + shipping
  // Served cost distribution per candidate (stale/degraded stamped from the
  // response flags; zeroed where the candidate was not estimable).
  std::vector<core::CostDistribution> distributions;
  // Ranking score under the requested policy (infinity where not
  // estimable); `chosen` is its argmin.
  std::vector<double> scores;
};

class EstimationService {
 public:
  explicit EstimationService(EstimationServiceConfig config = {});
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  // ---- Control plane (catalog + sites) ------------------------------------

  // Registers (or replaces) the model for (site, model.class_id()) by
  // publishing a new catalog snapshot. Also refreshes the site tracker's
  // state partition and clears any stale-model flag for the key. Safe to
  // call while estimates are being served; registrations serialize on the
  // control mutex, so a registration can never slip between RegisterSite's
  // tracker publication and its state-mapper wiring.
  void RegisterModel(const std::string& site, core::CostModel model);

  // Publishes a streaming-adaptation of the already-registered model for
  // (site, model.class_id()) — the fast tier of the two-tier adaptation
  // path. Unlike RegisterModel this preserves the catalog revision (all
  // rows except `changed_states` are bit-identical, so surviving estimate
  // cache entries for other states stay value-correct) and invalidates the
  // cache only at (site, state) grain. Fails (returns false, publishes
  // nothing) when no model is registered for the key or the registered
  // model's generation no longer equals `expected_generation` — the
  // lost-race guard against a concurrent full re-derivation or another
  // adaptation landing first.
  bool ApplyAdaptedModel(const std::string& site, core::CostModel model,
                         uint64_t expected_generation,
                         const std::vector<int>& changed_states);

  // As RegisterModel, but publishes only while the site is still live —
  // it has a registered tracker or at least one registered model. Returns
  // false (publishing nothing) otherwise. Asynchronous re-deriders (the
  // ModelRefreshDaemon) use this so a re-derivation that finishes after
  // UnregisterSite cannot resurrect the retired site's catalog entry.
  bool RegisterModelIfActive(const std::string& site, core::CostModel model);

  // Registers a site with an arbitrary probe (see ContentionTracker). If
  // the service config has a probe interval, the background prober starts
  // immediately. Re-registering a site replaces its tracker. The tracker's
  // state partition is wired from the site's most recently registered model
  // (deterministic, regardless of how many classes are registered).
  void RegisterSite(const std::string& site, ContentionTracker::ProbeFn probe);

  // Convenience: register a site probed through its MDBS agent.
  void RegisterSite(mdbs::MdbsAgent* agent);

  // Retires a site: stops and unpublishes its tracker, drops every
  // (site, class) model from the catalog (a revision-bumping snapshot swap,
  // so cached responses priced under the old catalog can never hit again),
  // clears the site's stale-model flags and eagerly evicts its cached
  // estimates. In-flight estimates drain safely — an epoch guard pins the
  // read view they read, which holds the tracker and the catalog snapshot;
  // cache entries point at the site's cell, which lives as long as the
  // service (a later RegisterSite keeps the name's id and cell). The
  // retired tracker's probe/breaker counters are folded into the service
  // totals so Stats() stays monotone across churn. Idempotent; unknown sites
  // are a no-op. See DESIGN §7 "Site lifecycle" for the full contract.
  void UnregisterSite(const std::string& site);

  // Graceful-shutdown hook: stops every site's background prober and blocks
  // until in-flight probes finish (or are abandoned at their deadline).
  // Estimates keep serving from the last cached readings. Idempotent; the
  // destructor calls it. Ordered teardown of a serving stack is
  //   server drain → refresh daemon stop → StopProbing() → service dtor
  // (the dtor's ThreadPool join is last — see net/server.h).
  void StopProbing();

  // Synchronous probe of one site; false if unknown site or probe failure.
  bool ProbeNow(const std::string& site);

  // Current cached reading for a site (default ProbeReading if unknown).
  ProbeReading CurrentProbe(const std::string& site) const;

  // Whether the site's probe circuit breaker is not closed (estimates for
  // the site are served degraded). False for unknown sites. Lock-free.
  bool IsSiteDegraded(const std::string& site) const;

  // The site's breaker state (kClosed for unknown sites). Lock-free.
  CircuitBreaker::State SiteBreakerState(const std::string& site) const;

  // Marks (or unmarks) the (site, class) model as stale: responses for the
  // key carry stale_model=true until a new model is registered or the flag
  // is cleared. Set by the ModelRefreshDaemon when drift trips; registering
  // a model for the key clears it automatically.
  void SetModelStale(const std::string& site, core::QueryClassId class_id,
                     bool stale);
  bool IsModelStale(const std::string& site,
                    core::QueryClassId class_id) const;

  // ---- Data plane (estimates) ---------------------------------------------

  EstimateResponse Estimate(const EstimateRequest& request) const;

  // Prices every request against one catalog snapshot, fetching each
  // distinct site's cached probe once and fanning chunks out on the worker
  // pool (when configured). responses[i] answers requests[i].
  std::vector<EstimateResponse> EstimateBatch(
      const std::vector<EstimateRequest>& requests) const;

  // Prices all candidate placements of a component query in one batch and
  // picks the cheapest total (local estimate + result shipping).
  PlacementResult ChoosePlacement(
      const std::vector<PlacementCandidate>& candidates) const;

  // As above, ranking under `options` (least-expected-cost / risk-adjusted
  // placement). With default options the chosen index matches the legacy
  // overload exactly; distributions and scores are served either way.
  PlacementResult ChoosePlacement(
      const std::vector<PlacementCandidate>& candidates,
      const PlacementOptions& options) const;

  // ---- Introspection ------------------------------------------------------

  RuntimeStatsSnapshot Stats() const;

  // An immutable catalog snapshot: Find() pointers stay valid while it is
  // held, however many registrations land meanwhile.
  using Snapshot = std::shared_ptr<const core::GlobalCatalog>;

  // The current catalog snapshot. Never null.
  Snapshot CatalogSnapshot() const { return view_.load()->catalog; }

  size_t num_worker_threads() const { return pool_.num_threads(); }

  // The service's worker pool — shared with the ModelRefreshDaemon so
  // background re-derivations ride the same threads as batch fan-out.
  // With zero workers, submitted tasks run inline on the caller.
  ThreadPool& worker_pool() const { return pool_; }

 private:
  // Dense per-service handle of a site name: assigned the first time the
  // name is registered (as a site or through a model), never reused, and
  // kept across re-registration and retirement.
  using SiteId = uint32_t;
  // kJoinIndex is the last QueryClassId.
  static constexpr size_t kNumClasses =
      static_cast<size_t>(core::QueryClassId::kJoinIndex) + 1;

  // Everything a request needs about one site after its one name→id lookup.
  struct SiteEntry {
    std::string name;
    SiteCell* cell = nullptr;                    // service-owned, stable
    std::shared_ptr<ContentionTracker> tracker;  // null when none registered
    // Serving form and stale-model flag per query class (null: no model).
    const core::CompiledEquations* equations[kNumClasses] = {};
    bool stale_model[kNumClasses] = {};
    // Class of the most recently registered model (-1: none): the partition
    // RegisterSite wires into a new tracker.
    int newest_class = -1;
  };

  // The flat read view of the control plane, indexed by SiteId. Rebuilt and
  // epoch-published under control_mutex_ by every control-plane change; the
  // estimate paths read it raw under an EpochGuard (zero shared RMWs), cold
  // callers through the shared_ptr load. The catalog is copy-on-write: an
  // edit copies it into the view being built, so a published view's catalog
  // never changes.
  struct ReadView {
    // Pins every `equations` pointer. Never null.
    Snapshot catalog = std::make_shared<const core::GlobalCatalog>();
    // The estimate cache's epoch: bumped by every catalog edit except an
    // adaptation row swap (see ApplyAdaptedModel).
    uint64_t revision = 0;
    std::unordered_map<std::string, SiteId> ids;
    std::vector<SiteEntry> sites;

    const SiteEntry* Find(const std::string& site) const {
      const auto it = ids.find(site);
      return it == ids.end() ? nullptr : &sites[it->second];
    }
  };

  // One site's reading, taken once per request or once per batch, with the
  // cell state version loaded before it (what a cache insert validates
  // against). `reading.has_value` is false when the site has no tracker.
  struct SiteRead {
    const SiteEntry* site = nullptr;  // null: unknown site
    ProbeReading reading;
    uint64_t state_version = 0;
    bool taken = false;
  };

  // Counter deltas accumulated on the stack during a request or chunk and
  // flushed to the sharded counters once — the hot path performs no atomic
  // RMW per estimate beyond the flush.
  struct LocalCounts {
    uint64_t requests = 0;
    uint64_t probe_cache_hits = 0;
    uint64_t probe_cache_stale = 0;
    uint64_t probe_cache_misses = 0;
    uint64_t no_model = 0;
    uint64_t stale_model_served = 0;
    uint64_t invalid_requests = 0;
    // Responses priced from a degraded site (breaker open or half-open).
    uint64_t degraded_served = 0;
    // Estimate-cache hits bump only this (not requests): the hit path pays
    // exactly one per-thread counter store — no shared atomic RMW.
    // Aggregation folds hits back into requests.
    uint64_t estimate_cache_hits = 0;
    uint64_t estimate_cache_misses = 0;
  };

  void FlushCounts(const LocalCounts& counts) const;

  // The site's serving form for `class_id`, or null.
  static const core::CompiledEquations* EquationsFor(
      const SiteEntry* site, core::QueryClassId class_id);

  // The site's tracker, or nullptr (cold: a shared_ptr view load).
  std::shared_ptr<ContentionTracker> FindTracker(const std::string& site) const;

  // The service clock's reading, reusing `steady_now` for the system clock.
  Clock::TimePoint ClockNow(
      std::chrono::steady_clock::time_point steady_now) const;

  // Reads the site's cell (loads only) with staleness evaluated at `now`.
  static SiteRead ReadSite(const SiteEntry* site, Clock::TimePoint now);

  // Resolves the probe for a request: explicit value, or the site's cached
  // reading (counting hit/stale/miss into `counts`).
  bool ResolveProbe(const EstimateRequest& request,
                    const ProbeReading& cached_reading,
                    EstimateResponse& response, LocalCounts& counts) const;

  // Prices one request against its site entry and reading.
  EstimateResponse Price(const SiteRead& read, const EstimateRequest& request,
                         LocalCounts& counts) const;

  // Caches `response` under catalog revision `epoch` and key hash `hash` if
  // it is cacheable: served OK from a fresh tracker reading.
  void MaybeCacheResponse(uint64_t epoch, uint64_t hash, const SiteRead& read,
                          const EstimateRequest& request,
                          const EstimateResponse& response) const;

  // The batch path behind EstimateBatch and ChoosePlacement: prices
  // request_at(0..n) into responses[0..n] against one view and one reading
  // per distinct site. When `equations` is non-null it receives each
  // request's resolved serving form (valid under the caller's EpochGuard).
  template <typename RequestAt>
  void PriceBatch(size_t n, const RequestAt& request_at,
                  EstimateResponse* responses,
                  const core::CompiledEquations** equations) const;

  // Control-plane view editing; callers hold control_mutex_. EditViewLocked
  // copies the published view; EditCatalog swaps a private copy of the
  // copy's catalog in and returns it for editing (the caller decides whether
  // the edit bumps the revision); SiteLocked returns the copy's entry for
  // `site`, assigning its id and cell on first sight; PublishViewLocked
  // re-resolves every entry's equations against the copy's catalog and
  // publishes its revision, then the copy.
  std::shared_ptr<ReadView> EditViewLocked() const;
  static core::GlobalCatalog& EditCatalog(ReadView& view);
  SiteEntry& SiteLocked(ReadView& view, const std::string& site);
  void PublishViewLocked(std::shared_ptr<ReadView> view);

  // RegisterModel's body; caller must hold control_mutex_. `states` and
  // `class_id` are captured from `model` before it moves.
  void RegisterModelLocked(const std::string& site, core::CostModel model,
                           const core::ContentionStates& states,
                           core::QueryClassId class_id);

  const EstimationServiceConfig config_;
  mutable EstimateCache cache_;

  // Serializes the control plane: model registration, site registration and
  // stale-flag flips. Estimates never take it — they read the published
  // view. Holding one mutex across a whole RegisterSite/RegisterModel is
  // what closes the tracker-publication vs. mapper-wiring race.
  mutable std::mutex control_mutex_;
  // One cell per SiteId, freed only with the service: cache entries and
  // trackers point at them (control_mutex_ guards the vector, not the cells).
  std::vector<std::unique_ptr<SiteCell>> cells_;
  EpochPublished<ReadView> view_;
  // The revision of the view being published, stored just before it: the
  // cache hit path validates entries against it with one relaxed load,
  // without pinning the view.
  std::atomic<uint64_t> revision_{0};

  // Terminal counter totals of trackers that were replaced (RegisterSite)
  // or retired (UnregisterSite). Stats() adds these to the live trackers'
  // counts so probe/breaker counters never regress across site churn.
  // Guarded by retired_mutex_ (its own mutex so Stats() never contends
  // with — or deadlocks against — control-plane calls that join probers
  // while holding control_mutex_).
  //
  // Atomicity contract: a tracker's unpublication from view_ and the
  // fold of its counts into retired_ happen under ONE retired_mutex_ hold,
  // and Stats() reads the view and retired_ under that same mutex — so at
  // every observable instant a tracker's history is counted in exactly one
  // of the two. (Unpublish-then-fold made the tracker's whole history
  // vanish from a Stats() racing the gap; fold-then-unpublish would double
  // count it. Both read as counter regressions to a monotonicity
  // watchdog.) Counts a still-draining probe adds between the fold and
  // Stop() are folded afterwards as a delta.
  struct RetiredTrackerTotals {
    uint64_t probes = 0;
    uint64_t failures = 0;
    uint64_t discards = 0;
    uint64_t timeouts = 0;
    uint64_t suppressed = 0;
    uint64_t breaker_opens = 0;
  };
  // A tracker's terminal counter values, in retired-totals form (probes
  // includes failures, matching the Stats() aggregation).
  static RetiredTrackerTotals CaptureTrackerTotals(
      const ContentionTracker& tracker);
  // Field-wise now - then; `then` must be an earlier capture of the same
  // tracker.
  static RetiredTrackerTotals TotalsDelta(const RetiredTrackerTotals& now,
                                          const RetiredTrackerTotals& then);
  // Caller must hold retired_mutex_.
  void AddRetiredTotalsLocked(const RetiredTrackerTotals& totals);

  mutable std::mutex retired_mutex_;
  RetiredTrackerTotals retired_;
  uint64_t sites_retired_ = 0;

  // Process-unique identity for this service instance. The hit-latency
  // sampler keeps its window state in a function-scope thread_local; tagging
  // that state with this id (never the `this` pointer — allocators reuse
  // addresses) keeps a window partially filled against one service from
  // completing early against another, which would record a full-period
  // weighted sample backed by fewer real hits and push the histogram count
  // past the request count.
  const uint64_t instance_id_;

  mutable ThreadPool pool_;
  mutable RuntimeCounters counters_;
  mutable LatencyHistogram estimate_latency_;
  mutable LatencyHistogram probe_latency_;
};

}  // namespace mscm::runtime

#endif  // MSCM_RUNTIME_ESTIMATION_SERVICE_H_
