#include "runtime/estimation_service.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "mdbs/agent.h"
#include "runtime/rmw_probe.h"

namespace mscm::runtime {

namespace {

// A request must be priceable before it touches any shared structure: a
// non-finite feature would poison the estimate (and the estimate cache,
// which keys on the feature vector), a NaN probing cost would silently fall
// through the `>= 0` explicit-probe check into the cached-probe path, and a
// +inf probing cost would map to the top state and price garbage.
bool RequestIsValid(const EstimateRequest& request) {
  for (const double f : request.features) {
    if (!std::isfinite(f)) return false;
  }
  if (std::isnan(request.probing_cost)) return false;
  if (request.probing_cost >= 0.0 && !std::isfinite(request.probing_cost)) {
    return false;
  }
  return true;  // any finite negative value means "use the cached probe"
}

// Cache hits record latency on a 1-in-N sample (RecordN weights the sample
// by the period, so the histogram's count still reflects every hit). An
// unsampled hit path stays exactly as cheap as before — no clock reads —
// and a sampled one adds two clock reads plus a per-thread histogram
// stripe store: still zero shared atomic RMWs. Without this, the estimate
// latency histogram held only cold-miss samples, so a *faster* cached
// configuration reported *higher* p50/p99 than the uncached one.
//
// The sample period counts *hits*, not lookup attempts: the soak's
// conservation checker caught the attempt-counting variant weighting each
// sampled hit by the period even when most attempts in the window missed
// (and had already recorded their own latency), pushing the histogram
// count past the request count — up to ~2x on adversarial hit/miss
// interleavings. Counting hits keeps count(estimate_latency) <= requests,
// short by at most one unflushed window per thread.
constexpr uint64_t kHitLatencySamplePeriod = 64;

// Source of per-service identities for the hit sampler's thread-local
// window state (see instance_id_ in the header). Monotonic, never reused.
std::atomic<uint64_t> next_service_instance_id{1};

}  // namespace

const char* ToString(EstimateStatus s) {
  switch (s) {
    case EstimateStatus::kOk:
      return "ok";
    case EstimateStatus::kNoModel:
      return "no-model";
    case EstimateStatus::kNoProbe:
      return "no-probe";
    case EstimateStatus::kInvalidRequest:
      return "invalid-request";
  }
  return "?";
}

EstimationService::EstimationService(EstimationServiceConfig config)
    : config_(config),
      cache_(config.cache),
      view_(std::make_shared<const ReadView>()),
      instance_id_(
          next_service_instance_id.fetch_add(1, std::memory_order_relaxed)),
      pool_(config.worker_threads) {}

EstimationService::~EstimationService() { StopProbing(); }

void EstimationService::StopProbing() {
  // Stop every prober before members unwind; replaced and retired trackers
  // were stopped when they left the view.
  const auto view = view_.load();
  for (const SiteEntry& entry : view->sites) {
    if (entry.tracker != nullptr) entry.tracker->Stop();
  }
}

std::shared_ptr<EstimationService::ReadView>
EstimationService::EditViewLocked() const {
  return std::make_shared<ReadView>(*view_.load());
}

core::GlobalCatalog& EstimationService::EditCatalog(ReadView& view) {
  auto copy = std::make_shared<core::GlobalCatalog>(*view.catalog);
  core::GlobalCatalog& catalog = *copy;
  view.catalog = std::move(copy);
  return catalog;
}

EstimationService::SiteEntry& EstimationService::SiteLocked(
    ReadView& view, const std::string& site) {
  const auto [it, inserted] =
      view.ids.emplace(site, static_cast<SiteId>(view.sites.size()));
  if (inserted) {
    cells_.push_back(std::make_unique<SiteCell>());
    SiteEntry& entry = view.sites.emplace_back();
    entry.name = site;
    entry.cell = cells_.back().get();
  }
  return view.sites[it->second];
}

void EstimationService::PublishViewLocked(std::shared_ptr<ReadView> view) {
  for (SiteEntry& entry : view->sites) {
    for (size_t c = 0; c < kNumClasses; ++c) {
      entry.equations[c] = view->catalog->FindCompiled(
          entry.name, static_cast<core::QueryClassId>(c));
    }
  }
  // The revision goes out before the view: a thread that prices a miss under
  // the new view then validates its later hits against the new revision, so
  // it can never be answered from an older catalog afterwards.
  revision_.store(view->revision, std::memory_order_relaxed);
  view_.Publish(std::move(view));
}

void EstimationService::RegisterModel(const std::string& site,
                                      core::CostModel model) {
  // Capture the partition before the model moves into the catalog; the
  // tracker's informational state field follows the newest model per site.
  const core::ContentionStates states = model.states();
  const core::QueryClassId class_id = model.class_id();
  std::lock_guard<std::mutex> lock(control_mutex_);
  RegisterModelLocked(site, std::move(model), states, class_id);
}

bool EstimationService::RegisterModelIfActive(const std::string& site,
                                              core::CostModel model) {
  const core::ContentionStates states = model.states();
  const core::QueryClassId class_id = model.class_id();
  std::lock_guard<std::mutex> lock(control_mutex_);
  // "Live" = the site still has a tracker or at least one registered model.
  // UnregisterSite removes both under this same mutex, so the check and the
  // publication are atomic against retirement.
  const auto current = view_.load();
  const SiteEntry* entry = current->Find(site);
  if (entry == nullptr ||
      (entry->tracker == nullptr && entry->newest_class < 0)) {
    return false;
  }
  RegisterModelLocked(site, std::move(model), states, class_id);
  return true;
}

void EstimationService::RegisterModelLocked(
    const std::string& site, core::CostModel model,
    const core::ContentionStates& states, core::QueryClassId class_id) {
  auto view = EditViewLocked();
  EditCatalog(*view).Register(site, std::move(model));
  ++view->revision;
  {
    auto& shard = counters_.Local();
    shard.Add(shard.catalog_swaps);
  }
  SiteEntry& entry = SiteLocked(*view, site);
  entry.newest_class = static_cast<int>(class_id);
  // A freshly registered model is by definition not stale.
  if (static_cast<size_t>(class_id) < kNumClasses) {
    entry.stale_model[static_cast<size_t>(class_id)] = false;
  }
  if (entry.tracker != nullptr) {
    entry.tracker->SetStateMapper(
        [states](double cost) { return states.StateOf(cost); });
    entry.tracker->SetStateBoundaries(states.boundaries());
  }
  SiteCell& cell = *entry.cell;
  PublishViewLocked(std::move(view));
  // Entries priced under the previous catalog revision can never hit again
  // (the lookup epoch moved); evict the re-registered site's eagerly.
  EstimateCache::InvalidateSite(cell);
}

bool EstimationService::ApplyAdaptedModel(const std::string& site,
                                          core::CostModel model,
                                          uint64_t expected_generation,
                                          const std::vector<int>& changed_states) {
  const core::QueryClassId class_id = model.class_id();
  std::lock_guard<std::mutex> lock(control_mutex_);
  // Lost-race guard: the adaptation was derived against a specific lineage.
  // If a full re-derivation (generation reset to 0) or another adaptation
  // landed since, publishing this one would silently roll the model back.
  {
    const auto published = view_.load();
    const core::CostModel* current = published->catalog->Find(site, class_id);
    if (current == nullptr ||
        current->generation() != expected_generation) {
      return false;
    }
  }
  // Published under the current revision: every row except the swapped
  // states' is bit-identical, so surviving cache entries stay value-correct,
  // and the swapped states' entries are invalidated at (site, state) grain
  // below. Only an edit with that property may skip the revision bump.
  auto view = EditViewLocked();
  EditCatalog(*view).Register(site, std::move(model));
  {
    auto& shard = counters_.Local();
    shard.Add(shard.adaptations_applied);
  }
  SiteCell& cell = *SiteLocked(*view, site).cell;
  PublishViewLocked(std::move(view));
  // Only the swapped states' rows changed; every other state's cached
  // responses stay bit-correct under the preserved revision.
  for (const int state : changed_states) {
    EstimateCache::InvalidateSiteState(cell, state);
  }
  return true;
}

void EstimationService::RegisterSite(const std::string& site,
                                     ContentionTracker::ProbeFn probe) {
  ContentionTrackerConfig tracker_config;
  tracker_config.site = site;
  tracker_config.ttl = config_.probe_ttl;
  tracker_config.probe_interval = config_.probe_interval;
  tracker_config.min_probe_interval = config_.min_probe_interval;
  tracker_config.max_probe_interval = config_.max_probe_interval;
  tracker_config.probe_timeout = config_.probe_timeout;
  tracker_config.failure_retry = config_.probe_failure_retry;
  tracker_config.breaker = config_.breaker;
  tracker_config.clock = config_.clock;

  std::lock_guard<std::mutex> lock(control_mutex_);
  auto view = EditViewLocked();
  SiteEntry& entry = SiteLocked(*view, site);
  SiteCell& cell = *entry.cell;
  // The new tracker takes the site's cell over: the replaced tracker's
  // reading is reset and its later probes are discarded.
  tracker_config.cell = &cell;
  auto tracker = std::make_shared<ContentionTracker>(
      std::move(tracker_config), std::move(probe), &probe_latency_);
  const std::shared_ptr<ContentionTracker> replaced =
      std::exchange(entry.tracker, tracker);

  // Wire the partition of the site's most recently registered model before
  // the tracker is published — deterministic, unlike iterating the
  // catalog's (site, class) map, whose last entry depends on class-id order
  // rather than registration order. RegisterModel holds the same mutex, so
  // no registration can land in between.
  if (entry.newest_class >= 0) {
    if (const core::CostModel* model = view->catalog->Find(
            site, static_cast<core::QueryClassId>(entry.newest_class))) {
      const core::ContentionStates states = model->states();
      tracker->SetStateMapper(
          [states](double cost) { return states.StateOf(cost); });
      tracker->SetStateBoundaries(states.boundaries());
    }
  }

  RetiredTrackerTotals replaced_captured;
  if (replaced != nullptr) {
    // Replacing unpublishes the old tracker: swap and fold its counts
    // under one retired_mutex_ hold (see the RetiredTrackerTotals
    // atomicity contract), or a racing Stats() momentarily loses — or
    // double-counts — the old tracker's history.
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    PublishViewLocked(std::move(view));
    replaced_captured = CaptureTrackerTotals(*replaced);
    AddRetiredTotalsLocked(replaced_captured);
  } else {
    PublishViewLocked(std::move(view));
  }

  tracker->Start();

  // A replaced tracker may live on for a while in views in-flight readers
  // still pin, so stop its prober eagerly here; its terminal counters fold
  // into the retired totals so Stats() never regresses across a
  // re-registration.
  if (replaced != nullptr) {
    replaced->Stop();
    // In-flight probe completions between the fold and the join, as above.
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    AddRetiredTotalsLocked(
        TotalsDelta(CaptureTrackerTotals(*replaced), replaced_captured));
  }
  EstimateCache::InvalidateSite(cell);
}

void EstimationService::RegisterSite(mdbs::MdbsAgent* agent) {
  RegisterSite(agent->name(), agent->ProbeFn());
}

void EstimationService::UnregisterSite(const std::string& site) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  const auto published = view_.load();
  const SiteEntry* current = published->Find(site);
  if (current == nullptr) return;

  // Drop every (site, class) model. The catalog swap bumps the revision,
  // so cached responses priced under the old catalog can never revalidate —
  // the eager InvalidateSite below just reclaims the slots sooner.
  auto view = EditViewLocked();
  bool had_models = false;
  for (const core::CompiledEquations* equations : current->equations) {
    had_models = had_models || equations != nullptr;
  }
  if (had_models) {
    EditCatalog(*view).Unregister(site);
    ++view->revision;
    auto& shard = counters_.Local();
    shard.Add(shard.catalog_swaps);
  }

  // Unpublish the tracker and the models in one view: new estimates stop
  // finding either immediately, while in-flight ones keep the view they
  // pinned. Clearing the stale-model flags keeps the stale_models gauge
  // from leaking retired keys (a racing SetModelStale for the site after
  // this point is rejected by its no-model guard).
  SiteEntry& entry = SiteLocked(*view, site);
  SiteCell& cell = *entry.cell;
  const std::shared_ptr<ContentionTracker> retired =
      std::exchange(entry.tracker, nullptr);
  const bool had_class = std::exchange(entry.newest_class, -1) >= 0;
  std::fill(std::begin(entry.stale_model), std::end(entry.stale_model), false);
  RetiredTrackerTotals captured;
  {
    // Unpublish and fold under one retired_mutex_ hold (see the
    // RetiredTrackerTotals atomicity contract): a Stats() racing this
    // block sees the tracker's history either live in the view or already
    // in the retired totals — never in neither, never in both.
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    PublishViewLocked(std::move(view));
    if (retired != nullptr) {
      captured = CaptureTrackerTotals(*retired);
      AddRetiredTotalsLocked(captured);
    }
  }

  if (retired != nullptr) {
    // Stop() joins the background prober (and abandons a probe past its
    // deadline) — same blocking contract as the replace path above. Probes
    // that were still in flight at unpublication complete during the join;
    // fold whatever they added after the capture.
    retired->Stop();
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    AddRetiredTotalsLocked(TotalsDelta(CaptureTrackerTotals(*retired), captured));
  }
  if (retired != nullptr || had_models || had_class) {
    std::lock_guard<std::mutex> retired_lock(retired_mutex_);
    ++sites_retired_;
  }
  EstimateCache::InvalidateSite(cell);
}

bool EstimationService::ProbeNow(const std::string& site) {
  auto tracker = FindTracker(site);
  if (tracker == nullptr) return false;
  return tracker->ProbeOnce();
}

ProbeReading EstimationService::CurrentProbe(const std::string& site) const {
  auto tracker = FindTracker(site);
  return tracker == nullptr ? ProbeReading{} : tracker->Current();
}

bool EstimationService::IsSiteDegraded(const std::string& site) const {
  auto tracker = FindTracker(site);
  return tracker != nullptr && tracker->degraded();
}

CircuitBreaker::State EstimationService::SiteBreakerState(
    const std::string& site) const {
  auto tracker = FindTracker(site);
  return tracker == nullptr ? CircuitBreaker::State::kClosed
                            : tracker->breaker().state();
}

void EstimationService::SetModelStale(const std::string& site,
                                      core::QueryClassId class_id,
                                      bool stale) {
  const auto c = static_cast<size_t>(class_id);
  std::lock_guard<std::mutex> lock(control_mutex_);
  const auto published = view_.load();
  const SiteEntry* current = published->Find(site);
  if (current == nullptr || c >= kNumClasses ||
      current->stale_model[c] == stale) {
    return;
  }
  // Only a registered model can be stale: without this guard a refresh
  // daemon racing UnregisterSite could re-flag a just-retired key and leak
  // it in the stale_models gauge forever.
  if (stale && current->equations[c] == nullptr) return;
  auto view = EditViewLocked();
  SiteEntry& entry = SiteLocked(*view, site);
  entry.stale_model[c] = stale;
  SiteCell& cell = *entry.cell;
  PublishViewLocked(std::move(view));
  // Cached responses embed the stale_model flag; a flip retires them.
  EstimateCache::InvalidateSite(cell);
}

bool EstimationService::IsModelStale(const std::string& site,
                                     core::QueryClassId class_id) const {
  const auto c = static_cast<size_t>(class_id);
  const auto view = view_.load();
  const SiteEntry* entry = view->Find(site);
  return entry != nullptr && c < kNumClasses && entry->stale_model[c];
}

EstimationService::RetiredTrackerTotals EstimationService::CaptureTrackerTotals(
    const ContentionTracker& tracker) {
  RetiredTrackerTotals totals;
  totals.probes = tracker.probes() + tracker.failures();
  totals.failures = tracker.failures();
  totals.discards = tracker.discarded();
  totals.timeouts = tracker.timeouts();
  totals.suppressed = tracker.suppressed();
  totals.breaker_opens = tracker.breaker().opens();
  return totals;
}

EstimationService::RetiredTrackerTotals EstimationService::TotalsDelta(
    const RetiredTrackerTotals& now, const RetiredTrackerTotals& then) {
  RetiredTrackerTotals delta;
  delta.probes = now.probes - then.probes;
  delta.failures = now.failures - then.failures;
  delta.discards = now.discards - then.discards;
  delta.timeouts = now.timeouts - then.timeouts;
  delta.suppressed = now.suppressed - then.suppressed;
  delta.breaker_opens = now.breaker_opens - then.breaker_opens;
  return delta;
}

void EstimationService::AddRetiredTotalsLocked(
    const RetiredTrackerTotals& totals) {
  retired_.probes += totals.probes;
  retired_.failures += totals.failures;
  retired_.discards += totals.discards;
  retired_.timeouts += totals.timeouts;
  retired_.suppressed += totals.suppressed;
  retired_.breaker_opens += totals.breaker_opens;
}

std::shared_ptr<ContentionTracker> EstimationService::FindTracker(
    const std::string& site) const {
  const auto view = view_.load();
  const SiteEntry* entry = view->Find(site);
  return entry == nullptr ? nullptr : entry->tracker;
}

const core::CompiledEquations* EstimationService::EquationsFor(
    const SiteEntry* site, core::QueryClassId class_id) {
  const auto c = static_cast<size_t>(class_id);
  return site != nullptr && c < kNumClasses ? site->equations[c] : nullptr;
}

Clock::TimePoint EstimationService::ClockNow(
    std::chrono::steady_clock::time_point steady_now) const {
  // The system clock is steady_clock: reuse the caller's latency-timer read
  // rather than paying for a second one.
  return config_.clock == Clock::System() ? steady_now : config_.clock->Now();
}

EstimationService::SiteRead EstimationService::ReadSite(
    const SiteEntry* site, Clock::TimePoint now) {
  SiteRead read;
  read.site = site;
  read.taken = true;
  if (site != nullptr && site->tracker != nullptr) {
    // Version first, then the reading: if anything transitions in between,
    // an entry inserted from this read is born invalid rather than wrongly
    // valid.
    read.state_version =
        site->cell->state_version.load(std::memory_order_acquire);
    read.reading = site->tracker->ReadAt(now);
  }
  return read;
}

void EstimationService::FlushCounts(const LocalCounts& counts) const {
  // Shard::Add is a plain store on the calling thread's own shard — the
  // whole flush performs no shared atomic RMW (unless the registry is
  // exhausted and this thread landed on the overflow shard).
  auto& shard = counters_.Local();
  if (counts.requests > 0) shard.Add(shard.requests, counts.requests);
  if (counts.probe_cache_hits > 0) {
    shard.Add(shard.probe_cache_hits, counts.probe_cache_hits);
  }
  if (counts.probe_cache_stale > 0) {
    shard.Add(shard.probe_cache_stale, counts.probe_cache_stale);
  }
  if (counts.probe_cache_misses > 0) {
    shard.Add(shard.probe_cache_misses, counts.probe_cache_misses);
  }
  if (counts.no_model > 0) shard.Add(shard.no_model, counts.no_model);
  if (counts.stale_model_served > 0) {
    shard.Add(shard.stale_model_served, counts.stale_model_served);
  }
  if (counts.invalid_requests > 0) {
    shard.Add(shard.invalid_requests, counts.invalid_requests);
  }
  if (counts.degraded_served > 0) {
    shard.Add(shard.degraded_served, counts.degraded_served);
  }
  if (counts.estimate_cache_hits > 0) {
    shard.Add(shard.estimate_cache_hits, counts.estimate_cache_hits);
  }
  if (counts.estimate_cache_misses > 0) {
    shard.Add(shard.estimate_cache_misses, counts.estimate_cache_misses);
  }
}

bool EstimationService::ResolveProbe(const EstimateRequest& request,
                                     const ProbeReading& cached_reading,
                                     EstimateResponse& response,
                                     LocalCounts& counts) const {
  if (request.probing_cost >= 0.0) {
    response.probing_cost = request.probing_cost;
    return true;
  }
  if (!cached_reading.has_value) {
    ++counts.probe_cache_misses;
    response.status = EstimateStatus::kNoProbe;
    return false;
  }
  response.probing_cost = cached_reading.probing_cost;
  response.stale_probe = cached_reading.stale;
  if (cached_reading.degraded) {
    response.degraded = true;
    ++counts.degraded_served;
  }
  if (cached_reading.stale) {
    ++counts.probe_cache_stale;
  } else {
    ++counts.probe_cache_hits;
  }
  return true;
}

EstimateResponse EstimationService::Price(const SiteRead& read,
                                          const EstimateRequest& request,
                                          LocalCounts& counts) const {
  EstimateResponse response;
  ++counts.requests;

  // Serving reads only the compiled per-state table — never the model's
  // derivation-side DesignLayout.
  const core::CompiledEquations* equations =
      EquationsFor(read.site, request.class_id);
  if (equations == nullptr) {
    ++counts.no_model;
    response.status = EstimateStatus::kNoModel;
    return response;
  }
  if (read.site->stale_model[static_cast<size_t>(request.class_id)]) {
    response.stale_model = true;
    ++counts.stale_model_served;
  }
  if (!ResolveProbe(request, read.reading, response, counts)) {
    return response;
  }

  // One width check per request, then state lookup + raw dot product.
  equations->CheckFeatureWidth(request.features);
  response.status = EstimateStatus::kOk;
  response.model_generation = equations->generation();
  response.state = equations->StateOf(response.probing_cost);
  response.estimate_seconds =
      equations->EvaluateInState(request.features.data(), response.state);
  return response;
}

void EstimationService::MaybeCacheResponse(
    uint64_t epoch, uint64_t hash, const SiteRead& read,
    const EstimateRequest& request, const EstimateResponse& response) const {
  // Only responses priced from a *fresh, healthy* tracker reading are
  // cacheable: a stale, degraded, or explicit-probing-cost response is not a
  // function of the tracker's published state — and a degraded response must
  // stop being served the moment the half-open trial restores the site.
  if (!response.ok() || response.stale_probe || response.degraded) return;
  if (request.probing_cost >= 0.0) return;
  const ProbeReading& reading = read.reading;
  if (!reading.has_value || reading.stale || reading.degraded) return;
  const core::CompiledEquations* equations =
      EquationsFor(read.site, request.class_id);
  if (equations == nullptr || response.state < 0) return;

  EstimateCache::InsertContext context;
  context.cell = read.site->cell;
  context.state_version = read.state_version;
  equations->StateInterval(response.state, &context.state_lo,
                           &context.state_hi);
  cache_.Insert(hash, request.site, static_cast<int>(request.class_id),
                request.features, epoch, context, response);
}

EstimateResponse EstimationService::Estimate(
    const EstimateRequest& request) const {
  // Validate before anything shared is touched — a NaN feature vector must
  // never become an estimate-cache key or a served estimate.
  if (!RequestIsValid(request)) {
    auto& shard = counters_.Local();
    shard.Add(shard.invalid_requests);
    EstimateResponse response;
    response.status = EstimateStatus::kInvalidRequest;
    return response;
  }

  // Cache hit path first: no clocks, no snapshot, no histogram, no epoch
  // guard — one hash, the calling thread's own cache shard, a handful of
  // validation loads and one per-thread counter store. Zero shared atomic
  // RMWs end to end (the shared_rmw_per_request bench gate).
  const bool try_cache = cache_.enabled() && request.probing_cost < 0.0;
  uint64_t hash = 0;
  if (try_cache) {
    // Arm the clock when the *next hit* completes a sample window. Misses
    // while armed waste one clock read (they pay the full miss path anyway)
    // but never advance the window — only hits do, so the weighted sample
    // stands for exactly kHitLatencySamplePeriod real hits.
    //
    // The window is per (thread, service): a function-scope thread_local
    // outlives any one service, so without the identity tag a window
    // part-filled by hits on a previous service would complete early here
    // and record a full-period weighted sample into *this* histogram backed
    // by fewer than kHitLatencySamplePeriod of this service's hits —
    // breaking count(estimate_latency) <= requests. Switching services on a
    // thread forfeits the partial window (undercounts, never overcounts).
    struct HitSampleWindow {
      uint64_t service_id = 0;
      uint64_t hits_since_sample = 0;
    };
    thread_local HitSampleWindow window;
    if (window.service_id != instance_id_) {
      window.service_id = instance_id_;
      window.hits_since_sample = 0;
    }
    uint64_t& hits_since_sample = window.hits_since_sample;
    const bool armed = hits_since_sample + 1 == kHitLatencySamplePeriod;
    std::chrono::steady_clock::time_point hit_started;
    if (armed) hit_started = std::chrono::steady_clock::now();
    hash = cache_.Hash(request.site, static_cast<int>(request.class_id),
                       request.features);
    EstimateResponse response;
    if (cache_.Lookup(hash, request.site, static_cast<int>(request.class_id),
                      request.features,
                      revision_.load(std::memory_order_relaxed), &response)) {
      auto& shard = counters_.Local();
      shard.Add(shard.estimate_cache_hits);
      if (armed) {
        estimate_latency_.RecordN(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - hit_started),
            kHitLatencySamplePeriod);
        hits_since_sample = 0;
      } else {
        ++hits_since_sample;
      }
      return response;
    }
  }

  const auto started = std::chrono::steady_clock::now();
  // Miss path: one epoch guard pins the read view — catalog snapshot,
  // serving forms, trackers — for the whole request; one name lookup finds
  // the site, and its reading is a handful of loads from its cell.
  EpochGuard guard;
  const ReadView& view = *view_.Read(guard);
  SiteRead read;
  read.site = view.Find(request.site);
  if (request.probing_cost < 0.0) read = ReadSite(read.site, ClockNow(started));
  LocalCounts counts;
  EstimateResponse response = Price(read, request, counts);
  if (try_cache) {
    ++counts.estimate_cache_misses;
    MaybeCacheResponse(view.revision, hash, read, request, response);
  }
  FlushCounts(counts);
  estimate_latency_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - started));
  return response;
}

template <typename RequestAt>
void EstimationService::PriceBatch(
    size_t n, const RequestAt& request_at, EstimateResponse* responses,
    const core::CompiledEquations** equations) const {
  const auto started = std::chrono::steady_clock::now();
  {
    auto& shard = counters_.Local();
    shard.Add(shard.batches);
  }
  if (n == 0) return;

  // One view and one reading per distinct site for the whole batch: the
  // per-request work is then pure arithmetic over immutable data. The epoch
  // guard pins the view for the whole batch, workers included: ParallelFor
  // blocks this thread until every chunk completes, so no retired view can
  // be reclaimed while a worker still reads it (the workers' accesses
  // happen-before the caller's unpin).
  EpochGuard guard;
  const ReadView& view = *view_.Read(guard);
  const bool use_cache = cache_.enabled();
  const uint64_t epoch = view.revision;

  // Each request's site goes into a small flat array of distinct-site
  // reads: one name lookup per run of same-site requests and one cell read
  // per site, all evaluated at one clock reading.
  const Clock::TimePoint now = ClockNow(started);
  std::vector<SiteRead> reads;
  reads.reserve(std::min<size_t>(n, 16));
  std::vector<uint32_t> read_of(n);
  const std::string* last_site = nullptr;
  uint32_t last = 0;
  for (size_t i = 0; i < n; ++i) {
    const EstimateRequest& request = request_at(i);
    if (last_site == nullptr || *last_site != request.site) {
      const SiteEntry* site = view.Find(request.site);
      last = 0;
      while (last < reads.size() && reads[last].site != site) ++last;
      if (last == reads.size()) reads.emplace_back().site = site;
      last_site = &request.site;
    }
    read_of[i] = last;
    SiteRead& read = reads[last];
    if (request.probing_cost < 0.0 && !read.taken) {
      read = ReadSite(read.site, now);
    }
    if (equations != nullptr) {
      equations[i] = EquationsFor(read.site, request.class_id);
    }
  }

  // Invalid items are rejected without being priced; the amortized-latency
  // record below must not count them (the soak's conservation checker
  // flags count(estimate_latency) > requests). Cold once-per-chunk RMW.
  std::atomic<uint64_t> invalid_total{0};
  pool_.ParallelFor(n, config_.batch_grain, [&](size_t begin, size_t end) {
    // Batches concentrate on few (site, class) pairs; memoize per pair
    // everything that is batch-invariant. With a cached probe the
    // contention state — and therefore the active compiled equation row —
    // is fixed for the whole batch: the scan pass resolves each pair's
    // state once and collects its requests into a group, and a flush pass
    // gathers every group's selected features into contiguous rows and
    // streams them through CompiledEquations::EvaluateRowsInState — one
    // pinned coefficient row, unit-stride loads, bit-exact with the scalar
    // path. Counters are flushed once per chunk instead of once per
    // request.
    struct MemoEntry {
      uint32_t read;  // index into `reads`
      core::QueryClassId class_id;
      const core::CompiledEquations* equations;  // serving form
      // Grouped evaluation, valid when `fast`: requests in `group` all
      // evaluate state `state`'s row.
      bool fast = false;
      int state = -1;
      bool stale = false;
      bool degraded = false;     // site breaker not closed
      bool stale_model = false;  // key flagged by the refresh daemon
      double probing_cost = 0.0;
      // (request index, cache key hash) awaiting the flush.
      std::vector<std::pair<size_t, uint64_t>> group;
    };
    std::vector<MemoEntry> memo;
    memo.reserve(8);
    LocalCounts counts;
    for (size_t i = begin; i < end; ++i) {
      const EstimateRequest& request = request_at(i);
      if (!RequestIsValid(request)) {
        ++counts.invalid_requests;
        responses[i].status = EstimateStatus::kInvalidRequest;
        continue;
      }
      const bool tracked = request.probing_cost < 0.0;
      uint64_t hash = 0;
      if (use_cache && tracked) {
        hash = cache_.Hash(request.site, static_cast<int>(request.class_id),
                           request.features);
        if (cache_.Lookup(hash, request.site,
                          static_cast<int>(request.class_id),
                          request.features, epoch, &responses[i])) {
          ++counts.estimate_cache_hits;
          continue;
        }
        ++counts.estimate_cache_misses;
      }
      const uint32_t r = read_of[i];
      size_t entry_index = memo.size();
      for (size_t m = 0; m < memo.size(); ++m) {
        if (memo[m].read == r && memo[m].class_id == request.class_id) {
          entry_index = m;
          break;
        }
      }
      if (entry_index == memo.size()) {
        MemoEntry fresh;
        fresh.read = r;
        fresh.class_id = request.class_id;
        const SiteRead& read = reads[r];
        fresh.equations = EquationsFor(read.site, request.class_id);
        if (fresh.equations != nullptr) {
          fresh.stale_model =
              read.site->stale_model[static_cast<size_t>(request.class_id)];
          if (read.reading.has_value) {
            fresh.fast = true;
            fresh.probing_cost = read.reading.probing_cost;
            fresh.stale = read.reading.stale;
            fresh.degraded = read.reading.degraded;
            fresh.state = fresh.equations->StateOf(fresh.probing_cost);
          }
        }
        memo.push_back(std::move(fresh));
      }

      MemoEntry& entry = memo[entry_index];
      EstimateResponse& response = responses[i];
      ++counts.requests;
      if (entry.fast && tracked) {
        // Width-check now (same abort point as the scalar path), defer
        // the arithmetic to the grouped flush below.
        entry.equations->CheckFeatureWidth(request.features);
        entry.group.emplace_back(i, hash);
        continue;
      }
      if (entry.equations == nullptr) {
        ++counts.no_model;
        response.status = EstimateStatus::kNoModel;
        continue;
      }
      if (entry.stale_model) {
        response.stale_model = true;
        ++counts.stale_model_served;
      }
      // Explicit probing costs, or a tracked request for a site with no
      // reading (kNoProbe); neither is cacheable.
      if (!ResolveProbe(request, reads[r].reading, response, counts)) continue;
      entry.equations->CheckFeatureWidth(request.features);
      response.status = EstimateStatus::kOk;
      response.model_generation = entry.equations->generation();
      response.state = entry.equations->StateOf(response.probing_cost);
      response.estimate_seconds = entry.equations->EvaluateInState(
          request.features.data(), response.state);
    }

    // Grouped flush: per (site, class) group, gather the selected
    // features into packed rows and evaluate the whole group against
    // its one resolved state row. Scratch is reused across groups.
    std::vector<double> packed;
    std::vector<double> estimates;
    for (MemoEntry& entry : memo) {
      if (entry.group.empty()) continue;
      const size_t k = entry.equations->num_selected();
      packed.resize(entry.group.size() * k);
      estimates.resize(entry.group.size());
      for (size_t g = 0; g < entry.group.size(); ++g) {
        entry.equations->GatherSelected(
            request_at(entry.group[g].first).features.data(),
            packed.data() + g * k);
      }
      entry.equations->EvaluateRowsInState(entry.state, packed.data(),
                                           entry.group.size(),
                                           estimates.data());
      for (size_t g = 0; g < entry.group.size(); ++g) {
        const auto [i, hash] = entry.group[g];
        EstimateResponse& response = responses[i];
        response.status = EstimateStatus::kOk;
        response.model_generation = entry.equations->generation();
        response.probing_cost = entry.probing_cost;
        response.stale_probe = entry.stale;
        response.state = entry.state;
        response.estimate_seconds = estimates[g];
        if (entry.degraded) {
          response.degraded = true;
          ++counts.degraded_served;
        }
        if (entry.stale_model) {
          response.stale_model = true;
          ++counts.stale_model_served;
        }
        if (entry.stale) {
          ++counts.probe_cache_stale;
        } else {
          ++counts.probe_cache_hits;
        }
        if (use_cache) {
          MaybeCacheResponse(epoch, hash, reads[entry.read], request_at(i),
                             response);
        }
      }
    }
    if (counts.invalid_requests > 0) {
      RmwProbe::Count();
      invalid_total.fetch_add(counts.invalid_requests,
                              std::memory_order_relaxed);
    }
    FlushCounts(counts);
  });

  // Amortized per-item latency: the batch's wall time spread over the items
  // actually priced (invalid rejects recorded no work).
  const uint64_t priced = n - invalid_total.load(std::memory_order_relaxed);
  if (priced > 0) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - started);
    estimate_latency_.RecordN(elapsed / static_cast<int64_t>(priced), priced);
  }
}

std::vector<EstimateResponse> EstimationService::EstimateBatch(
    const std::vector<EstimateRequest>& requests) const {
  std::vector<EstimateResponse> responses(requests.size());
  PriceBatch(
      requests.size(),
      [&requests](size_t i) -> const EstimateRequest& { return requests[i]; },
      responses.data(), nullptr);
  return responses;
}

PlacementResult EstimationService::ChoosePlacement(
    const std::vector<PlacementCandidate>& candidates) const {
  return ChoosePlacement(candidates, PlacementOptions{});
}

PlacementResult EstimationService::ChoosePlacement(
    const std::vector<PlacementCandidate>& candidates,
    const PlacementOptions& options) const {
  const size_t n = candidates.size();
  PlacementResult result;
  result.policy = options.ranking.policy;
  result.responses.resize(n);
  result.total_seconds.resize(n, std::numeric_limits<double>::infinity());
  result.scores.resize(n, std::numeric_limits<double>::infinity());
  result.distributions.resize(n);

  // One epoch guard spans the batch and the distribution pass, so each
  // candidate's distribution comes from the very serving form that priced
  // it (the batch hands them back; no second lookup).
  EpochGuard guard;
  std::vector<const core::CompiledEquations*> equations(n, nullptr);
  PriceBatch(
      n,
      [&candidates](size_t i) -> const EstimateRequest& {
        return candidates[i].request;
      },
      result.responses.data(), equations.data());

  double best_score = std::numeric_limits<double>::infinity();
  double best_point = std::numeric_limits<double>::infinity();
  int point_chosen = -1;
  for (size_t i = 0; i < n; ++i) {
    const EstimateResponse& response = result.responses[i];
    if (!response.ok()) continue;
    const double total =
        response.estimate_seconds + candidates[i].shipping_seconds;
    result.total_seconds[i] = total;

    core::CostDistribution distribution;
    if (equations[i] != nullptr) {
      distribution = equations[i]->EvaluateDistribution(
          candidates[i].request.features, response.probing_cost,
          options.ranking.boundary_band_fraction);
    } else {
      // No serving form to spread over: degenerate to the point estimate
      // (zero width) rather than dropping the candidate.
      distribution.mean = response.estimate_seconds;
      distribution.low = response.estimate_seconds;
      distribution.high = response.estimate_seconds;
    }
    distribution.stale = response.stale_probe || response.stale_model;
    distribution.degraded = response.degraded;
    result.distributions[i] = distribution;

    const double score =
        core::PlacementScore(options.ranking, distribution,
                             response.estimate_seconds,
                             candidates[i].shipping_seconds);
    result.scores[i] = score;
    // Strict < keeps the lowest-index winner on ties (deterministic).
    if (std::isfinite(score) && score < best_score) {
      best_score = score;
      result.chosen = static_cast<int>(i);
    }
    if (total < best_point) {
      best_point = total;
      point_chosen = static_cast<int>(i);
    }
  }

  auto& shard = counters_.Local();
  shard.Add(shard.placements);
  // The payoff counter: a distribution-aware policy actually overrode the
  // point-estimate argmin for this decision.
  if (options.ranking.policy != core::PlacementPolicy::kPointEstimate &&
      result.chosen >= 0 && result.chosen != point_chosen) {
    shard.Add(shard.placement_expected_cost_wins);
  }
  return result;
}

RuntimeStatsSnapshot EstimationService::Stats() const {
  RuntimeStatsSnapshot out;
  counters_.AggregateInto(out);
  // Hold retired_mutex_ across BOTH the live-tracker sweep and the retired
  // fold below: unpublication and fold happen under one hold of the same
  // mutex (the RetiredTrackerTotals atomicity contract), so each tracker's
  // history lands in exactly one of the two sums.
  std::lock_guard<std::mutex> retired_lock(retired_mutex_);
  // Probes are counted at the trackers (background and ProbeNow alike):
  // `probes` = attempts, of which `probe_failures` kept the old reading.
  const auto view = view_.load();
  for (const SiteEntry& entry : view->sites) {
    out.stale_models += static_cast<uint64_t>(std::count(
        std::begin(entry.stale_model), std::end(entry.stale_model), true));
    const ContentionTracker* tracker = entry.tracker.get();
    if (tracker == nullptr) continue;
    out.probes += tracker->probes() + tracker->failures();
    out.probe_failures += tracker->failures();
    out.probe_discards += tracker->discarded();
    out.probe_timeouts += tracker->timeouts();
    out.probes_suppressed += tracker->suppressed();
    out.breaker_opens += tracker->breaker().opens();
    if (tracker->degraded()) ++out.degraded_sites;
    // Gauge: sites whose published probe sits inside the soft-membership
    // band of a state boundary — where point estimates are least reliable
    // and distribution-aware placement earns its keep.
    double distance = 0.0;
    double boundary = 0.0;
    if (tracker->BoundaryDistance(&distance, &boundary) &&
        distance < config_.boundary_band_fraction * std::abs(boundary)) {
      ++out.near_boundary_sites;
    }
    // Gauge: the slowest current per-site cadence (every site probes at
    // least this often; adaptive trackers may be probing faster).
    out.probe_interval_ns =
        std::max(out.probe_interval_ns,
                 static_cast<int64_t>(tracker->current_probe_interval().count()));
  }
  // Replaced and retired trackers' terminal counts, folded at retirement:
  // without these, a re-registration or UnregisterSite would make the
  // monotone probe/breaker counters regress. Still under retired_lock from
  // above — one consistent view with the live sweep.
  out.probes += retired_.probes;
  out.probe_failures += retired_.failures;
  out.probe_discards += retired_.discards;
  out.probe_timeouts += retired_.timeouts;
  out.probes_suppressed += retired_.suppressed;
  out.breaker_opens += retired_.breaker_opens;
  out.sites_retired = sites_retired_;
  out.estimate_cache_invalidations = cache_.invalidations();
  out.estimate_latency = estimate_latency_.Snap();
  out.probe_latency = probe_latency_.Snap();
  return out;
}

}  // namespace mscm::runtime
