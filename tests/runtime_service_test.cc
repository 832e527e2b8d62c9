#include "runtime/estimation_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "runtime/clock.h"
#include "runtime/rmw_probe.h"
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

TEST(EstimationServiceTest, EstimatesWithExplicitProbeAcrossStates) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  // State 0 (probe ≤ 1): cost = 2x. State 1 (probe > 1): cost = 5x.
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));

  EstimateResponse low = service.Estimate(Request("a", cls, 3.0, 0.5));
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.state, 0);
  EXPECT_NEAR(low.estimate_seconds, 6.0, 1e-6);
  EXPECT_DOUBLE_EQ(low.probing_cost, 0.5);
  EXPECT_FALSE(low.stale_probe);

  EstimateResponse high = service.Estimate(Request("a", cls, 3.0, 1.5));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high.state, 1);
  EXPECT_NEAR(high.estimate_seconds, 15.0, 1e-6);
}

TEST(EstimationServiceTest, ReportsMissingModelAndMissingProbe) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;

  EXPECT_EQ(service.Estimate(Request("ghost", cls, 1.0, 0.5)).status,
            EstimateStatus::kNoModel);

  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  // No explicit probe and no tracker for the site → kNoProbe.
  EXPECT_EQ(service.Estimate(Request("a", cls, 1.0)).status,
            EstimateStatus::kNoProbe);

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.no_model, 1u);
  EXPECT_EQ(stats.probe_cache_misses, 1u);
}

TEST(EstimationServiceTest, ServesFromCachedProbe) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));

  std::atomic<double> probe_value{0.5};
  service.RegisterSite("a", [&] { return probe_value.load(); });
  ASSERT_TRUE(service.ProbeNow("a"));

  EstimateResponse low = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.state, 0);
  EXPECT_DOUBLE_EQ(low.probing_cost, 0.5);
  EXPECT_NEAR(low.estimate_seconds, 6.0, 1e-6);

  // The environment shifts; the next probe moves the cached state.
  probe_value.store(1.5);
  ASSERT_TRUE(service.ProbeNow("a"));
  EstimateResponse high = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high.state, 1);
  EXPECT_NEAR(high.estimate_seconds, 15.0, 1e-6);

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.probe_cache_hits, 2u);
  EXPECT_EQ(stats.probes, 2u);
  // The tracker's own cached state follows the registered partition.
  EXPECT_EQ(service.CurrentProbe("a").state, 1);
}

TEST(EstimationServiceTest, StaleProbeIsServedAndFlagged) {
  FakeClock clock;
  EstimationServiceConfig config;
  config.probe_ttl = seconds(5);
  config.clock = &clock;
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  clock.Advance(seconds(10));
  const EstimateResponse response = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(response.ok());  // last-known-state fallback
  EXPECT_TRUE(response.stale_probe);
  EXPECT_NEAR(response.estimate_seconds, 6.0, 1e-6);
  EXPECT_EQ(service.Stats().probe_cache_stale, 1u);
}

TEST(EstimationServiceTest, BatchMatchesSingleRequests) {
  EstimationServiceConfig config;
  config.worker_threads = 2;
  config.batch_grain = 16;
  EstimationService service(config);
  const auto g1 = QueryClassId::kUnarySeqScan;
  const auto g3 = QueryClassId::kJoinNoIndex;
  service.RegisterModel("a", test::PiecewiseLinearModel(g1, {2.0, 5.0}));
  service.RegisterModel("a", test::PiecewiseLinearModel(g3, {3.0}));
  service.RegisterModel("b", test::PiecewiseLinearModel(g1, {7.0}));
  service.RegisterSite("a", [] { return 0.5; });
  service.RegisterSite("b", [] { return 1.5; });
  service.ProbeNow("a");
  service.ProbeNow("b");

  Rng rng(3);
  std::vector<EstimateRequest> requests;
  for (int i = 0; i < 200; ++i) {
    const bool site_a = rng.NextDouble() < 0.5;
    const auto cls = rng.NextDouble() < 0.5 ? g1 : g3;
    EstimateRequest request =
        Request(site_a ? "a" : "b", cls, rng.Uniform(1.0, 10.0));
    if (rng.NextDouble() < 0.3) request.probing_cost = rng.Uniform(0.0, 2.0);
    requests.push_back(std::move(request));
  }

  const std::vector<EstimateResponse> batched =
      service.EstimateBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const EstimateResponse single = service.Estimate(requests[i]);
    EXPECT_EQ(batched[i].status, single.status) << i;
    EXPECT_EQ(batched[i].state, single.state) << i;
    EXPECT_DOUBLE_EQ(batched[i].estimate_seconds, single.estimate_seconds)
        << i;
  }
  EXPECT_EQ(service.Stats().batches, 1u);
}

TEST(EstimationServiceTest, ChoosePlacementPicksCheapestTotal) {
  EstimationService service;
  const auto cls = QueryClassId::kJoinNoIndex;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterModel("b", test::PiecewiseLinearModel(cls, {3.0}));
  service.RegisterSite("a", [] { return 0.5; });
  service.RegisterSite("b", [] { return 0.5; });
  service.ProbeNow("a");
  service.ProbeNow("b");

  PlacementCandidate cand_a{Request("a", cls, 4.0), 0.0};  // local: 8s
  PlacementCandidate cand_b{Request("b", cls, 4.0), 0.0};  // local: 12s
  PlacementResult local = service.ChoosePlacement({cand_a, cand_b});
  EXPECT_EQ(local.chosen, 0);
  EXPECT_NEAR(local.total_seconds[0], 8.0, 1e-6);
  EXPECT_NEAR(local.total_seconds[1], 12.0, 1e-6);

  // Shipping can flip the decision: a is cheaper locally but far away.
  cand_a.shipping_seconds = 10.0;
  PlacementResult shipped = service.ChoosePlacement({cand_a, cand_b});
  EXPECT_EQ(shipped.chosen, 1);

  // A candidate without a model is skipped, not chosen.
  PlacementCandidate ghost{Request("ghost", cls, 4.0), 0.0};
  PlacementResult with_ghost = service.ChoosePlacement({ghost, cand_b});
  EXPECT_EQ(with_ghost.chosen, 1);
  EXPECT_TRUE(std::isinf(with_ghost.total_seconds[0]));
}

TEST(EstimationServiceTest, ModelReplacementIsVisibleToNewRequests) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  // A long-lived snapshot taken before the replacement …
  const EstimationService::Snapshot old_snap = service.CatalogSnapshot();
  const core::CostModel* old_model = old_snap->Find("a", cls);
  ASSERT_NE(old_model, nullptr);

  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {5.0}));

  // … still answers with the old coefficients, while the service serves the
  // new ones.
  const auto features = FeatureVector(cls, 3.0);
  EXPECT_NEAR(old_model->Estimate(features, 0.5), 6.0, 1e-6);
  EXPECT_NEAR(service.Estimate(Request("a", cls, 3.0, 0.5)).estimate_seconds,
              15.0, 1e-6);
  EXPECT_EQ(service.Stats().catalog_swaps, 2u);
}

// Regression: RegisterSite used to wire the tracker's state partition from
// whatever Find() returned first among the site's registered classes — an
// arbitrary pick when several classes were registered. It now always uses
// the site's most recently registered model.
TEST(EstimationServiceTest, RegisterSiteWiresNewestModelPartition) {
  EstimationService service;
  const auto g3 = QueryClassId::kJoinNoIndex;
  const auto g1 = QueryClassId::kUnarySeqScan;
  // Two models with different partitions; G1 (single state) is newest.
  service.RegisterModel("a", test::PiecewiseLinearModel(g3, {2.0, 5.0}));
  service.RegisterModel("a", test::PiecewiseLinearModel(g1, {2.0}));

  service.RegisterSite("a", [] { return 1.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  // Under G1's single-state partition, probe 1.5 is state 0. Under G3's
  // two-state partition (the stale wiring) it would be state 1.
  EXPECT_EQ(service.CurrentProbe("a").state, 0);
}

// Regression: RegisterModel could interleave with RegisterSite between its
// tracker publication and its mapper wiring, leaving the tracker mapping
// states with the wrong (or no) partition. Both now serialize on the
// control mutex, and the tracker is published before it is wired. Run under
// MSCM_SANITIZE=thread to verify.
TEST(EstimationServiceTest, ConcurrentRegisterModelAndSiteAlwaysWire) {
  const auto cls = QueryClassId::kUnarySeqScan;
  const core::CostModel model = test::PiecewiseLinearModel(cls, {2.0, 5.0});
  for (int iter = 0; iter < 50; ++iter) {
    EstimationService service;
    std::thread register_model(
        [&] { service.RegisterModel("a", model); });
    std::thread register_site(
        [&] { service.RegisterSite("a", [] { return 1.5; }); });
    register_model.join();
    register_site.join();

    // Whichever order won, the tracker must end up wired with the model's
    // partition: probe 1.5 maps to state 1, never -1.
    ASSERT_TRUE(service.ProbeNow("a"));
    EXPECT_EQ(service.CurrentProbe("a").state, 1) << "iter " << iter;
  }
}

TEST(EstimationServiceTest, StaleModelFlagIsServedAndCounted) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));

  EXPECT_FALSE(service.IsModelStale("a", cls));
  service.SetModelStale("a", cls, true);
  EXPECT_TRUE(service.IsModelStale("a", cls));

  // Estimates still succeed — the old model is the best available — but
  // carry the flag, in both single and batch paths.
  const EstimateResponse single = service.Estimate(Request("a", cls, 3.0, 0.5));
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single.stale_model);
  EXPECT_NEAR(single.estimate_seconds, 6.0, 1e-6);
  const std::vector<EstimateResponse> batch =
      service.EstimateBatch({Request("a", cls, 3.0, 0.5)});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].stale_model);

  RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.stale_models, 1u);
  EXPECT_EQ(stats.stale_model_served, 2u);

  // Registering a replacement model clears the flag.
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  EXPECT_FALSE(service.IsModelStale("a", cls));
  EXPECT_FALSE(service.Estimate(Request("a", cls, 3.0, 0.5)).stale_model);
  EXPECT_EQ(service.Stats().stale_models, 0u);
}

// Regression: a NaN feature used to flow straight into the model (and, with
// the memo enabled, poison the estimate cache with a NaN-keyed entry). The
// service now validates requests at the boundary and rejects them without
// touching any cache.
TEST(EstimationServiceTest, InvalidRequestsAreRejectedAtTheBoundary) {
  EstimationServiceConfig config;
  config.cache.capacity_per_thread = 64;
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();

  EstimateRequest bad_feature = Request("a", cls, 3.0);
  bad_feature.features[0] = nan;
  EXPECT_EQ(service.Estimate(bad_feature).status,
            EstimateStatus::kInvalidRequest);
  bad_feature.features[0] = inf;
  EXPECT_EQ(service.Estimate(bad_feature).status,
            EstimateStatus::kInvalidRequest);

  // NaN probing cost is not "use the cached probe" (that is any finite
  // negative value) — it is a corrupt request.
  EXPECT_EQ(service.Estimate(Request("a", cls, 3.0, nan)).status,
            EstimateStatus::kInvalidRequest);
  EXPECT_EQ(service.Estimate(Request("a", cls, 3.0, inf)).status,
            EstimateStatus::kInvalidRequest);
  // The finite-negative sentinel still means "use the cached probe".
  EXPECT_TRUE(service.Estimate(Request("a", cls, 3.0, -2.0)).ok());

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.invalid_requests, 4u);
  // Rejected requests are not counted as served requests and never consult
  // the response memo.
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.estimate_cache_misses, 1u);
  EXPECT_EQ(stats.estimate_cache_hits, 0u);

  // A valid repeat of the good request hits the memo — the invalid ones left
  // nothing behind.
  EXPECT_TRUE(service.Estimate(Request("a", cls, 3.0, -2.0)).ok());
  EXPECT_EQ(service.Stats().estimate_cache_hits, 1u);
}

TEST(EstimationServiceTest, BatchRejectsInvalidItemsIndividually) {
  EstimationServiceConfig config;
  config.cache.capacity_per_thread = 64;
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));

  EstimateRequest bad = Request("a", cls, 3.0, 0.5);
  bad.features[0] = std::nan("");
  const std::vector<EstimateResponse> batch = service.EstimateBatch(
      {Request("a", cls, 3.0, 0.5), bad, Request("a", cls, 4.0, 0.5)});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_EQ(batch[1].status, EstimateStatus::kInvalidRequest);
  EXPECT_TRUE(batch[2].ok());
  EXPECT_NEAR(batch[2].estimate_seconds, 8.0, 1e-6);
  EXPECT_EQ(service.Stats().invalid_requests, 1u);
}

// Tentpole: a site whose probes keep failing trips its circuit breaker.
// Estimates keep flowing from the last known state, flagged degraded; the
// degraded responses are never memoized; a half-open trial probe restores
// clean service once the site recovers.
TEST(EstimationServiceTest, DegradedSiteServesLastStateAndRecovers) {
  FakeClock clock;
  EstimationServiceConfig config;
  config.clock = &clock;
  config.probe_ttl = std::chrono::hours(1);
  config.breaker.failure_threshold = 2;
  config.breaker.open_duration = seconds(5);
  config.cache.capacity_per_thread = 64;
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));

  std::atomic<bool> fail{false};
  service.RegisterSite("a", [&]() -> double {
    if (fail.load()) throw std::runtime_error("site down");
    return 0.5;
  });
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_FALSE(service.IsSiteDegraded("a"));

  fail.store(true);
  EXPECT_FALSE(service.ProbeNow("a"));
  EXPECT_FALSE(service.ProbeNow("a"));  // second consecutive failure → open
  EXPECT_TRUE(service.IsSiteDegraded("a"));
  EXPECT_EQ(service.SiteBreakerState("a"), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(service.ProbeNow("a"));  // suppressed, does not run the probe

  // Estimates still serve the pre-failure state, flagged, in both paths.
  const EstimateResponse single = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single.degraded);
  EXPECT_NEAR(single.estimate_seconds, 6.0, 1e-6);
  const std::vector<EstimateResponse> batch =
      service.EstimateBatch({Request("a", cls, 3.0)});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch[0].degraded);

  RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.degraded_sites, 1u);
  EXPECT_EQ(stats.degraded_served, 2u);
  EXPECT_EQ(stats.probes_suppressed, 1u);
  EXPECT_EQ(stats.probe_failures, 2u);
  // Degraded responses were never memoized.
  EXPECT_EQ(stats.estimate_cache_hits, 0u);

  // Recovery: past the open window, the next probe is the half-open trial;
  // it succeeds and the breaker closes.
  fail.store(false);
  clock.Advance(seconds(6));
  ASSERT_TRUE(service.ProbeNow("a"));
  EXPECT_FALSE(service.IsSiteDegraded("a"));
  EXPECT_EQ(service.SiteBreakerState("a"), CircuitBreaker::State::kClosed);
  const EstimateResponse healthy = service.Estimate(Request("a", cls, 3.0));
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.degraded);
  EXPECT_EQ(service.Stats().degraded_sites, 0u);

  // Unknown sites are simply not degraded.
  EXPECT_FALSE(service.IsSiteDegraded("ghost"));
  EXPECT_EQ(service.SiteBreakerState("ghost"), CircuitBreaker::State::kClosed);
}

TEST(EstimationServiceTest, PlacementPoliciesDivergeNearBoundaries) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  // "steady" costs 1.0; "jitter" costs 0.5 below its boundary at probe 1.0
  // and 4.0 above it. A probe of 0.99 sits inside the soft-membership band.
  service.RegisterModel("steady", test::PiecewiseLinearModel(cls, {1.0}));
  service.RegisterModel("jitter",
                        test::PiecewiseLinearModel(cls, {0.5, 4.0}));
  const PlacementCandidate steady{Request("steady", cls, 1.0, 0.5), 0.0};
  const PlacementCandidate jitter{Request("jitter", cls, 1.0, 0.99), 0.0};

  const PlacementResult point = service.ChoosePlacement({steady, jitter});
  EXPECT_EQ(point.policy, core::PlacementPolicy::kPointEstimate);
  EXPECT_EQ(point.chosen, 1);  // takes the 0.5 bait

  PlacementOptions options;
  options.ranking.policy = core::PlacementPolicy::kExpectedCost;
  const PlacementResult expected =
      service.ChoosePlacement({steady, jitter}, options);
  EXPECT_EQ(expected.policy, core::PlacementPolicy::kExpectedCost);
  EXPECT_EQ(expected.chosen, 0);  // blended jitter mean > 1.0
  ASSERT_EQ(expected.distributions.size(), 2u);
  EXPECT_GT(expected.distributions[1].mean, 1.0);
  ASSERT_EQ(expected.scores.size(), 2u);
  EXPECT_LT(expected.scores[0], expected.scores[1]);

  const RuntimeStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.placements, 2u);
  // Only the expected-cost call diverged from the point argmin.
  EXPECT_EQ(stats.placement_expected_cost_wins, 1u);
}

TEST(EstimationServiceTest, PlacementDistributionsCarryDegradedAndStale) {
  FakeClock clock;
  EstimationServiceConfig config;
  config.clock = &clock;
  config.probe_ttl = seconds(5);
  config.breaker.failure_threshold = 1;
  config.breaker.open_duration = std::chrono::hours(1);
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("down", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterModel("old", test::PiecewiseLinearModel(cls, {2.0}));

  std::atomic<bool> fail{false};
  service.RegisterSite("down", [&]() -> double {
    if (fail.load()) throw std::runtime_error("site down");
    return 0.5;
  });
  service.RegisterSite("old", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("down"));
  ASSERT_TRUE(service.ProbeNow("old"));
  fail.store(true);
  EXPECT_FALSE(service.ProbeNow("down"));  // breaker opens
  clock.Advance(seconds(6));               // "old"'s probe exceeds its TTL

  PlacementOptions options;
  options.ranking.policy = core::PlacementPolicy::kExpectedCost;
  const PlacementResult result = service.ChoosePlacement(
      {PlacementCandidate{Request("down", cls, 3.0), 0.0},
       PlacementCandidate{Request("old", cls, 3.0), 0.0}},
      options);
  ASSERT_EQ(result.distributions.size(), 2u);
  // "down" is degraded (and its pre-failure probe is now also past TTL —
  // the flags are independent and may coexist); "old" is merely stale.
  EXPECT_TRUE(result.distributions[0].degraded);
  EXPECT_TRUE(result.distributions[1].stale);
  EXPECT_FALSE(result.distributions[1].degraded);
  EXPECT_GE(result.chosen, 0);  // flagged candidates are penalized, not banned
}

TEST(EstimationServiceTest, PlacementWithNoServableCandidateIsMinusOne) {
  EstimationService service;
  const auto cls = QueryClassId::kUnarySeqScan;
  for (const auto policy :
       {core::PlacementPolicy::kPointEstimate,
        core::PlacementPolicy::kExpectedCost,
        core::PlacementPolicy::kRiskAdjusted}) {
    PlacementOptions options;
    options.ranking.policy = policy;
    const PlacementResult result = service.ChoosePlacement(
        {PlacementCandidate{Request("ghost", cls, 1.0, 0.5), 0.0}}, options);
    EXPECT_EQ(result.chosen, -1) << core::ToString(policy);
    ASSERT_EQ(result.scores.size(), 1u);
    EXPECT_TRUE(std::isinf(result.scores[0]));
  }
}

TEST(EstimationServiceTest, NearBoundarySitesGaugeCountsBandProbes) {
  EstimationService service;  // boundary_band_fraction defaults to 0.1
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("near", test::PiecewiseLinearModel(cls, {0.5, 4.0}));
  service.RegisterModel("far", test::PiecewiseLinearModel(cls, {0.5, 4.0}));
  service.RegisterSite("near", [] { return 0.99; });  // 0.01 from boundary 1.0
  service.RegisterSite("far", [] { return 0.5; });    // mid-state
  ASSERT_TRUE(service.ProbeNow("near"));
  ASSERT_TRUE(service.ProbeNow("far"));
  EXPECT_EQ(service.Stats().near_boundary_sites, 1u);
}

TEST(EstimationServiceTest, CacheHitsFeedTheLatencyHistogram) {
  EstimationServiceConfig config;
  config.probe_ttl = std::chrono::hours(1);
  config.cache.capacity_per_thread = 64;
  EstimationService service(config);
  const auto cls = QueryClassId::kUnarySeqScan;
  service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0}));
  service.RegisterSite("a", [] { return 0.5; });
  ASSERT_TRUE(service.ProbeNow("a"));

  const EstimateRequest request = Request("a", cls, 3.0);
  constexpr int kCalls = 4 * 64;
  for (int i = 0; i < kCalls; ++i) ASSERT_TRUE(service.Estimate(request).ok());

  const RuntimeStatsSnapshot stats = service.Stats();
  ASSERT_GT(stats.estimate_cache_hits, 200u);
  // One in 64 hits is measured and recorded with weight 64, so hit mass
  // lands in the histogram instead of leaving it entirely to cold misses —
  // the "cached path reports higher latency than uncached" artifact. Over H
  // hits at least floor(H/64) samples fire regardless of the thread-local
  // tick's phase, so the recorded count covers the hits to within one
  // sampling period.
  EXPECT_GE(stats.estimate_latency.count + 64, stats.estimate_cache_hits);
}

// The serving paths' shared-nothing contract: once a thread is warm (registry
// slot, counter shard, histogram stripe, cache shard), pricing a request —
// a cache hit, or a miss through the site's seqlocked cell under the
// epoch-published view — performs no shared atomic read-modify-write.
TEST(EstimationServiceTest, ServingPathsAreZeroSharedRmw) {
  const auto cls = QueryClassId::kUnarySeqScan;
  for (const size_t capacity : {size_t{4096}, size_t{0}}) {
    SCOPED_TRACE(capacity > 0 ? "cache on (hits)" : "cache off (misses)");
    EstimationServiceConfig config;
    config.probe_ttl = std::chrono::hours(1);
    config.cache.capacity_per_thread = capacity;
    EstimationService service(config);
    service.RegisterModel("a", test::PiecewiseLinearModel(cls, {2.0, 5.0}));
    service.RegisterSite("a", [] { return 0.5; });
    ASSERT_TRUE(service.ProbeNow("a"));

    std::vector<EstimateRequest> batch;
    for (int i = 0; i < 64; ++i) batch.push_back(Request("a", cls, 1.0 + i));
    for (const EstimateRequest& request : batch) {
      ASSERT_TRUE(service.Estimate(request).ok());
    }
    service.EstimateBatch(batch);

    const uint64_t single_before = RmwProbe::Current();
    for (int i = 0; i < 1000; ++i) service.Estimate(batch[i % batch.size()]);
    EXPECT_EQ(RmwProbe::Current(), single_before);

    const uint64_t batch_before = RmwProbe::Current();
    for (int i = 0; i < 10; ++i) service.EstimateBatch(batch);
    EXPECT_EQ(RmwProbe::Current(), batch_before);

    const RuntimeStatsSnapshot stats = service.Stats();
    if (capacity > 0) {
      EXPECT_GE(stats.estimate_cache_hits, 1000u + 10u * batch.size());
    } else {
      EXPECT_EQ(stats.estimate_cache_hits, 0u);
    }
  }
}

}  // namespace
}  // namespace mscm::runtime
