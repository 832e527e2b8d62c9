#include "runtime/estimate_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/clock.h"
#include "runtime/epoch.h"
#include "runtime/estimation_service.h"
#include "tests/test_util.h"

namespace mscm::runtime {
namespace {

using core::QueryClassId;
using std::chrono::seconds;

std::vector<double> FeatureVector(QueryClassId cls, double x0) {
  std::vector<double> f(core::VariableSet::ForClass(cls).size(), 0.0);
  f[0] = x0;
  return f;
}

EstimateRequest Request(const std::string& site, QueryClassId cls, double x0,
                        double probing_cost = -1.0) {
  EstimateRequest request;
  request.site = site;
  request.class_id = cls;
  request.features = FeatureVector(cls, x0);
  request.probing_cost = probing_cost;
  return request;
}

EstimationServiceConfig CachedConfig(Clock* clock = Clock::System()) {
  EstimationServiceConfig config;
  config.probe_ttl = seconds(5);
  config.cache.capacity_per_thread = 256;
  config.clock = clock;
  return config;
}

// ---- Service integration ---------------------------------------------------

TEST(EstimateCacheServiceTest, DisabledByDefault) {
  EstimationService service;  // default config: capacity_per_thread 0
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(service.Estimate(Request("a", cls, 3.0)).ok());
  }
  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.estimate_cache_hits, 0u);
  EXPECT_EQ(stats.estimate_cache_misses, 0u);
}

TEST(EstimateCacheServiceTest, RepeatedRequestHitsAndMatchesUncachedAnswer) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  const EstimateResponse first = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.state, 0);
  EXPECT_NEAR(first.estimate_seconds, 6.0, 1e-6);

  const EstimateResponse second = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second.estimate_seconds, first.estimate_seconds);
  EXPECT_EQ(second.state, first.state);
  EXPECT_DOUBLE_EQ(second.probing_cost, first.probing_cost);
  EXPECT_FALSE(second.stale_probe);

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.estimate_cache_misses, 1u);
  EXPECT_EQ(stats.estimate_cache_hits, 1u);
  // A hit still counts as a served request (fused counter).
  EXPECT_EQ(stats.requests, 2u);
  // Different features are a different key.
  EXPECT_TRUE(service.Estimate(Request("a", cls, 4.0)).ok());
  EXPECT_EQ(service.Stats().estimate_cache_misses, 2u);
}

TEST(EstimateCacheServiceTest, BatchWarmsAndHitsTheSameCache) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  std::vector<EstimateRequest> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(Request("a", cls, 1.0 + static_cast<double>(i % 4)));
  }
  const std::vector<EstimateResponse> cold = service.EstimateBatch(batch);
  const std::vector<EstimateResponse> warm = service.EstimateBatch(batch);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    ASSERT_TRUE(cold[i].ok());
    ASSERT_TRUE(warm[i].ok());
    EXPECT_DOUBLE_EQ(warm[i].estimate_seconds, cold[i].estimate_seconds);
  }
  const RuntimeStatsSnapshot stats = service.Stats();
  // The first batch misses on every item: lookups happen in the scan pass,
  // inserts at the grouped flush, so intra-batch duplicates are priced by
  // the grouped kernel rather than the memo. The second batch is all hits.
  EXPECT_EQ(stats.estimate_cache_misses, 8u);
  EXPECT_EQ(stats.estimate_cache_hits, 8u);
  EXPECT_EQ(stats.requests, 16u);
  // The single-request path shares the same cache.
  EXPECT_TRUE(service.Estimate(Request("a", cls, 1.0)).ok());
  EXPECT_EQ(service.Stats().estimate_cache_hits, 9u);
}

TEST(EstimateCacheServiceTest, StateTransitionInvalidatesAndRepricesExactly) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  // State 0: cost = 2x. State 1: cost = 5x (boundary at probe 1.0).
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  EXPECT_NEAR(service.Estimate(Request("a", cls, 3.0)).estimate_seconds, 6.0,
              1e-6);
  EXPECT_NEAR(service.Estimate(Request("a", cls, 3.0)).estimate_seconds, 6.0,
              1e-6);  // cached
  ASSERT_GE(service.Stats().estimate_cache_hits, 1u);

  // The environment shifts across the partition boundary: the tracker's
  // state-change callback must evict the site's entries, and the next
  // estimate must price under state 1 — not serve the state-0 memo.
  probe_value.store(1.5);
  ASSERT_TRUE(service.ProbeNow("a"));
  const EstimateResponse after = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.state, 1);
  EXPECT_NEAR(after.estimate_seconds, 15.0, 1e-6);
  EXPECT_GE(service.Stats().estimate_cache_invalidations, 1u);
}

TEST(EstimateCacheServiceTest, WithinStateDriftKeepsServingCachedValue) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  std::atomic<double> probe_value{0.3};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));
  ASSERT_TRUE(service.Estimate(Request("a", cls, 3.0)).ok());

  // Cost moves but stays inside state 0's interval (-inf, 1.0]: the estimate
  // is a pure function of the state, so the entry stays valid and hits.
  probe_value.store(0.8);
  ASSERT_TRUE(service.ProbeNow("a"));
  const EstimateResponse response = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.state, 0);
  EXPECT_NEAR(response.estimate_seconds, 6.0, 1e-6);
  EXPECT_EQ(service.Stats().estimate_cache_hits, 1u);
}

TEST(EstimateCacheServiceTest, ModelRegistrationInvalidatesByEpoch) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_NEAR(service.Estimate(Request("a", cls, 3.0)).estimate_seconds, 6.0,
              1e-6);

  // Re-deriving the model publishes a new catalog revision; the memoized
  // response priced under the old one must not survive.
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {4.0}));
  const EstimateResponse repriced = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(repriced.ok());
  EXPECT_NEAR(repriced.estimate_seconds, 12.0, 1e-6);
}

TEST(EstimateCacheServiceTest, StaleProbeResponsesAreNeverCached) {
  FakeClock clock;
  EstimationService service(CachedConfig(&clock));
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  clock.Advance(seconds(10));  // past the 5 s TTL
  const EstimateResponse stale = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.stale_probe);
  // Served again, still priced the long way — a stale reading is not a
  // function of the published contention state.
  EXPECT_TRUE(service.Estimate(Request("a", cls, 3.0)).stale_probe);
  EXPECT_EQ(service.Stats().estimate_cache_hits, 0u);
}

TEST(EstimateCacheServiceTest, ExplicitProbingCostBypassesTheCache) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));

  for (int i = 0; i < 3; ++i) {
    const EstimateResponse response =
        service.Estimate(Request("a", cls, 3.0, /*probing_cost=*/0.5));
    ASSERT_TRUE(response.ok());
    EXPECT_NEAR(response.estimate_seconds, 6.0, 1e-6);
  }
  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.estimate_cache_hits, 0u);
  EXPECT_EQ(stats.estimate_cache_misses, 0u);
}

TEST(EstimateCacheServiceTest, StaleModelFlagFlipRetiresCachedResponses) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  EXPECT_FALSE(service.Estimate(Request("a", cls, 3.0)).stale_model);
  service.SetModelStale("a", cls, true);
  // The cached stale_model=false response must not be served.
  EXPECT_TRUE(service.Estimate(Request("a", cls, 3.0)).stale_model);
  service.SetModelStale("a", cls, false);
  EXPECT_FALSE(service.Estimate(Request("a", cls, 3.0)).stale_model);
}

TEST(EstimateCacheServiceTest, CachedAnswersStayExactAcrossFlappingStates) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  for (int i = 0; i < 500; ++i) {
    if (i % 100 == 50) {
      // Flap the contention state mid-stream.
      probe_value.store(probe_value.load() < 1.0 ? 1.5 : 0.5);
      ASSERT_TRUE(service.ProbeNow("a"));
    }
    const double x0 = 1.0 + static_cast<double>(i % 7);
    const double slope = probe_value.load() < 1.0 ? 2.0 : 5.0;
    const EstimateResponse response = service.Estimate(Request("a", cls, x0));
    ASSERT_TRUE(response.ok());
    ASSERT_NEAR(response.estimate_seconds, slope * x0, 1e-6)
        << "iteration " << i;
  }
  // The repeated working set should mostly hit.
  EXPECT_GT(service.Stats().estimate_cache_hits, 400u);
}

// Regression for entry lifetime: entries point at the site's cell, not at
// its tracker. A thread holds entries for a site while the site's tracker
// is replaced (and freed) and then the site is retired: no entry may hit
// after either event, and nothing freed may be touched (run under ASan).
TEST(EstimateCacheServiceTest,
     HeldEntriesDieWithTrackerReplacementAndRetirement) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // The holder thread prices one working set per round; the main thread
  // changes the site between rounds, while the holder is parked.
  std::mutex mutex;
  std::condition_variable cv;
  int requested = 0;
  int completed = 0;
  std::vector<EstimateResponse> last;
  std::thread holder([&] {
    for (int round = 1; round <= 4; ++round) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return requested >= round; });
      }
      std::vector<EstimateResponse> out;
      for (int x = 1; x <= 8; ++x) {
        out.push_back(service.Estimate(Request("a", cls, x)));
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        last = std::move(out);
        completed = round;
      }
      cv.notify_all();
    }
  });
  const auto run_round = [&](int round) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      requested = round;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed >= round; });
    return last;
  };
  const auto hits = [&] { return service.Stats().estimate_cache_hits; };

  run_round(1);  // the holder's shard now holds the working set
  uint64_t before = hits();
  std::vector<EstimateResponse> responses = run_round(2);
  EXPECT_EQ(hits() - before, 8u);

  // Same probe value, same state, same catalog revision: only the cell's
  // versions can retire the entries. Reclaiming frees the replaced tracker.
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));
  EpochDomain::Global().Reclaim(/*wait_for_readers=*/true);
  before = hits();
  responses = run_round(3);
  EXPECT_EQ(hits() - before, 0u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok());
    EXPECT_NEAR(responses[i].estimate_seconds, 2.0 * static_cast<double>(i + 1),
                1e-6);
  }

  service.UnregisterSite("a");
  EpochDomain::Global().Reclaim(/*wait_for_readers=*/true);
  before = hits();
  responses = run_round(4);
  EXPECT_EQ(hits() - before, 0u);
  for (const EstimateResponse& response : responses) {
    EXPECT_EQ(response.status, EstimateStatus::kNoModel);
  }
  holder.join();
}

// ---- Direct cache unit tests ----------------------------------------------

// Lookup / Insert under the cache's own key hash, as the service calls them.
bool Lookup(EstimateCache& cache, const std::string& site, int class_id,
            const std::vector<double>& features, uint64_t epoch,
            EstimateResponse* response) {
  return cache.Lookup(cache.Hash(site, class_id, features), site, class_id,
                      features, epoch, response);
}

void Insert(EstimateCache& cache, const std::string& site, int class_id,
            const std::vector<double>& features, uint64_t epoch,
            const EstimateCache::InsertContext& context,
            const EstimateResponse& response) {
  cache.Insert(cache.Hash(site, class_id, features), site, class_id, features,
               epoch, context, response);
}

TEST(EstimateCacheTest, DisabledCacheMissesAndDropsInserts) {
  EstimateCache cache(EstimateCacheConfig{});  // capacity_per_thread 0
  EXPECT_FALSE(cache.enabled());
  EstimateResponse response;
  EXPECT_FALSE(Lookup(cache, "a", 0, {1.0}, 0, &response));
  Insert(cache, "a", 0, {1.0}, 0, {}, response);
  EXPECT_FALSE(Lookup(cache, "a", 0, {1.0}, 0, &response));
  SiteCell cell;
  EstimateCache::InvalidateSite(cell);  // nothing cached to retire
  EXPECT_EQ(cache.invalidations(), 0u);
}

class EstimateCacheUnitTest : public ::testing::Test {
 protected:
  EstimateCacheUnitTest() {
    EstimateCacheConfig config;
    config.capacity_per_thread = 64;
    cache_ = std::make_unique<EstimateCache>(config);
    ContentionTrackerConfig tracker_config;
    tracker_config.site = "a";
    tracker_config.ttl = seconds(5);
    tracker_config.clock = &clock_;
    tracker_config.cell = &cell_;
    tracker_ = std::make_shared<ContentionTracker>(
        tracker_config, [this] { return probe_value_.load(); });
    tracker_config.site = "b";
    tracker_config.cell = &cell_b_;
    tracker_b_ = std::make_shared<ContentionTracker>(
        tracker_config, [this] { return probe_value_.load(); });
  }

  EstimateCache::InsertContext Context(double lo, double hi) {
    return Context(lo, hi, cell_);
  }

  static EstimateCache::InsertContext Context(double lo, double hi,
                                              const SiteCell& cell) {
    EstimateCache::InsertContext context;
    context.cell = &cell;
    context.state_version = cell.state_version.load();
    context.state_lo = lo;
    context.state_hi = hi;
    return context;
  }

  static EstimateResponse OkResponse(double estimate) {
    EstimateResponse response;
    response.status = EstimateStatus::kOk;
    response.estimate_seconds = estimate;
    response.state = 0;
    return response;
  }

  FakeClock clock_;
  std::atomic<double> probe_value_{0.5};
  SiteCell cell_;    // site "a"
  SiteCell cell_b_;  // site "b"
  std::unique_ptr<EstimateCache> cache_;
  std::shared_ptr<ContentionTracker> tracker_;
  std::shared_ptr<ContentionTracker> tracker_b_;
};

TEST_F(EstimateCacheUnitTest, HitRequiresExactKeyMatch) {
  ASSERT_TRUE(tracker_->ProbeOnce());
  Insert(*cache_, "a", 0, {1.0, 2.0}, 7, Context(0.0, 1.0), OkResponse(6.0));

  EstimateResponse response;
  EXPECT_TRUE(Lookup(*cache_, "a", 0, {1.0, 2.0}, 7, &response));
  EXPECT_DOUBLE_EQ(response.estimate_seconds, 6.0);
  EXPECT_FALSE(Lookup(*cache_, "b", 0, {1.0, 2.0}, 7, &response));  // site
  EXPECT_FALSE(Lookup(*cache_, "a", 1, {1.0, 2.0}, 7, &response));  // class
  EXPECT_FALSE(Lookup(*cache_, "a", 0, {1.0, 2.5}, 7, &response));  // features
  EXPECT_FALSE(Lookup(*cache_, "a", 0, {1.0}, 7, &response));       // arity
  EXPECT_FALSE(Lookup(*cache_, "a", 0, {1.0, 2.0}, 8, &response));  // epoch
}

TEST_F(EstimateCacheUnitTest, CostDriftOutsideStateBoundsInvalidates) {
  ASSERT_TRUE(tracker_->ProbeOnce());  // publishes 0.5
  Insert(*cache_, "a", 0, {1.0}, 7, Context(0.0, 1.0), OkResponse(6.0));
  EstimateResponse response;
  ASSERT_TRUE(Lookup(*cache_, "a", 0, {1.0}, 7, &response));

  // Without a state mapper the mapped state never changes (no version bump),
  // but the published cost leaves the entry's own state interval — the
  // value-correctness guard must reject the entry.
  probe_value_.store(5.0);
  ASSERT_TRUE(tracker_->ProbeOnce());
  EXPECT_FALSE(Lookup(*cache_, "a", 0, {1.0}, 7, &response));
  EXPECT_EQ(cache_->invalidations(), 1u);
}

TEST_F(EstimateCacheUnitTest, StateVersionBumpInvalidates) {
  tracker_->SetStateMapper([](double c) { return c > 1.0 ? 1 : 0; });
  ASSERT_TRUE(tracker_->ProbeOnce());
  Insert(*cache_, "a", 0, {1.0}, 7,
                 Context(-std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::infinity()),
                 OkResponse(6.0));
  EstimateResponse response;
  ASSERT_TRUE(Lookup(*cache_, "a", 0, {1.0}, 7, &response));

  // The flip bumps the tracker's state version; even with infinite bounds
  // the version check retires the entry.
  probe_value_.store(1.5);
  ASSERT_TRUE(tracker_->ProbeOnce());
  EXPECT_FALSE(Lookup(*cache_, "a", 0, {1.0}, 7, &response));
}

TEST_F(EstimateCacheUnitTest, EntryBornBeforeTransitionIsBornInvalid) {
  ASSERT_TRUE(tracker_->ProbeOnce());
  // Version captured, then the world moves before the insert lands.
  EstimateCache::InsertContext context = Context(0.0, 10.0);
  tracker_->SetStateMapper([](double) { return 3; });  // bumps the version
  Insert(*cache_, "a", 0, {1.0}, 7, context, OkResponse(6.0));
  EstimateResponse response;
  EXPECT_FALSE(Lookup(*cache_, "a", 0, {1.0}, 7, &response));
}

TEST_F(EstimateCacheUnitTest, InvalidateSiteEvictsOnlyThatSite) {
  ASSERT_TRUE(tracker_->ProbeOnce());
  ASSERT_TRUE(tracker_b_->ProbeOnce());
  Insert(*cache_, "a", 0, {1.0}, 7, Context(0.0, 1.0), OkResponse(6.0));
  Insert(*cache_, "a", 1, {2.0}, 7, Context(0.0, 1.0), OkResponse(8.0));
  Insert(*cache_, "b", 0, {1.0}, 7, Context(0.0, 1.0, cell_b_),
         OkResponse(9.0));

  EstimateCache::InvalidateSite(cell_);
  EstimateResponse response;
  // Invalidation is lazy (a version-cell bump): entries retire — and count —
  // when the owning thread next looks them up.
  EXPECT_FALSE(Lookup(*cache_, "a", 0, {1.0}, 7, &response));
  EXPECT_FALSE(Lookup(*cache_, "a", 1, {2.0}, 7, &response));
  EXPECT_TRUE(Lookup(*cache_, "b", 0, {1.0}, 7, &response));
  EXPECT_EQ(cache_->invalidations(), 2u);
  EstimateCache::InvalidateSite(cell_b_);
  EXPECT_FALSE(Lookup(*cache_, "b", 0, {1.0}, 7, &response));
  EXPECT_EQ(cache_->invalidations(), 3u);
}

TEST_F(EstimateCacheUnitTest, FeatureQuantizationSharesNearbyKeys) {
  EstimateCacheConfig config;
  config.capacity_per_thread = 64;
  config.feature_quantum = 0.01;
  EstimateCache cache(config);
  ASSERT_TRUE(tracker_->ProbeOnce());
  Insert(cache, "a", 0, {1.000}, 7, Context(0.0, 1.0), OkResponse(6.0));

  EstimateResponse response;
  EXPECT_TRUE(Lookup(cache, "a", 0, {1.002}, 7, &response));  // same grid cell
  EXPECT_FALSE(Lookup(cache, "a", 0, {1.02}, 7, &response));  // different cell
}

// Concurrent hammer: estimate threads against state flips, model re-
// registrations and stale-flag flips. Run under tsan/asan (tier-2) to verify
// the lock-free validity protocol and eviction paths.
TEST(EstimateCacheStressTest, ConcurrentEstimatesSurviveInvalidationStorm) {
  EstimationService service(CachedConfig());
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int i = 0;
    while (!stop.load()) {
      probe_value.store((i % 2 == 0) ? 1.5 : 0.5);
      service.ProbeNow("a");
      if (i % 5 == 0) {
        service.RegisterModel("a",
                              test::PiecewiseLinearModel(cls, {2.0, 5.0}));
      }
      service.SetModelStale("a", cls, i % 3 == 0);
      ++i;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> estimators;
  std::atomic<uint64_t> served{0};
  for (int t = 0; t < 3; ++t) {
    estimators.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const double x0 = 1.0 + static_cast<double>((i + t) % 5);
        const EstimateResponse response =
            service.Estimate(Request("a", cls, x0));
        if (response.ok()) {
          // Whatever state priced it, the answer must match one of the two
          // per-state equations exactly.
          const bool matches_state0 =
              std::fabs(response.estimate_seconds - 2.0 * x0) < 1e-6;
          const bool matches_state1 =
              std::fabs(response.estimate_seconds - 5.0 * x0) < 1e-6;
          ASSERT_TRUE(matches_state0 || matches_state1)
              << "estimate " << response.estimate_seconds << " for x0=" << x0;
          served.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : estimators) thread.join();
  stop.store(true);
  churn.join();
  EXPECT_GT(served.load(), 0u);
}

}  // namespace
}  // namespace mscm::runtime
