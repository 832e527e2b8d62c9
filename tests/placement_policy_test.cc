// Distribution serving (CostDistribution / EvaluateDistribution) and the
// placement ranking policies (PlacementScore, the ranked ChoosePlacement
// overload) — the least-expected-cost placement layer on top of the
// qualitative-state models.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cost_distribution.h"
#include "core/cost_model.h"
#include "core/global_planner.h"

namespace mscm::core {
namespace {

constexpr double kTol = 1e-9;

// Two contention states split at probing cost 1.0, linear in feature 0 with
// a little noise so the fit carries a real prediction-interval structure.
CostModel NoisyTwoStateModel(uint64_t seed = 3) {
  const size_t width =
      VariableSet::ForClass(QueryClassId::kUnarySeqScan).size();
  ObservationSet obs;
  Rng rng(seed);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 60; ++i) {
      Observation o;
      o.probing_cost = s == 0 ? 0.5 : 1.5;
      o.features.assign(width, 0.0);
      for (size_t j = 0; j < 3; ++j) o.features[j] = rng.Uniform(1.0, 10.0);
      o.cost = (s + 1.0) * (2.0 + 0.8 * o.features[0]) +
               rng.Uniform(-0.1, 0.1);
      obs.push_back(std::move(o));
    }
  }
  return FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1, 2},
                      ContentionStates::FromBoundaries({1.0}),
                      QualitativeForm::kGeneral);
}

// Cost constant within each state: the fit is exact, so placement tests
// reason about the ranking rather than regression noise.
CostModel ConstantStateModel(const std::vector<double>& boundaries,
                             const std::vector<double>& state_costs,
                             uint64_t seed = 11) {
  const size_t width =
      VariableSet::ForClass(QueryClassId::kUnarySeqScan).size();
  ObservationSet obs;
  Rng rng(seed);
  for (size_t s = 0; s < state_costs.size(); ++s) {
    for (int i = 0; i < 50; ++i) {
      Observation o;
      o.probing_cost = static_cast<double>(s) + 0.5;
      o.features.assign(width, 0.0);
      for (size_t j = 0; j < 3; ++j) o.features[j] = rng.Uniform(1.0, 10.0);
      o.cost = state_costs[s];
      obs.push_back(std::move(o));
    }
  }
  return FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1, 2},
                      ContentionStates::FromBoundaries(boundaries),
                      QualitativeForm::kGeneral);
}

std::vector<double> Features(double x) {
  std::vector<double> f(
      VariableSet::ForClass(QueryClassId::kUnarySeqScan).size(), 0.0);
  f[0] = x;
  f[1] = 2.0;
  f[2] = 3.0;
  return f;
}

// ---- CostDistribution / EvaluateDistribution -------------------------------

TEST(CostDistributionTest, HardStateMatchesPointAndInterval) {
  const CostModel model = NoisyTwoStateModel();
  const std::vector<double> features = Features(5.0);
  // Probing cost well away from the boundary: no blending, the distribution
  // must reproduce the point estimate and the 95% prediction interval.
  const double probe = 0.2;
  const CostDistribution d =
      model.compiled().EvaluateDistribution(features, probe, 0.1);
  EXPECT_TRUE(d.has_interval);
  EXPECT_NEAR(d.mean, model.Estimate(features, probe), kTol);
  const auto interval = model.EstimateWithInterval(features, probe);
  ASSERT_TRUE(interval.has_value());
  EXPECT_NEAR(d.low, interval->low, 1e-6 * (1.0 + interval->high));
  EXPECT_NEAR(d.high, interval->high, 1e-6 * (1.0 + interval->high));
  EXPECT_GT(d.width(), 0.0);
}

TEST(CostDistributionTest, BlendsAtTheBoundary) {
  const CostModel model = NoisyTwoStateModel();
  const std::vector<double> features = Features(5.0);
  // Exactly on the boundary: half the weight on each adjacent state.
  const CostDistribution d =
      model.compiled().EvaluateDistribution(features, 1.0, 0.1);
  const double m0 = model.Estimate(features, 0.2);
  const double m1 = model.Estimate(features, 1.8);
  EXPECT_NEAR(d.mean, 0.5 * (m0 + m1), 1e-6 * (1.0 + m1));
  // The between-state spread must widen the interval beyond either state's
  // own prediction interval.
  const auto i0 = model.EstimateWithInterval(features, 0.2);
  ASSERT_TRUE(i0.has_value());
  EXPECT_GT(d.width(), i0->high - i0->low);
}

TEST(CostDistributionTest, ContinuousAcrossTheBandEdge) {
  const CostModel model = NoisyTwoStateModel();
  const std::vector<double> features = Features(5.0);
  // band = 0.1 * |1.0|: the blend weight ramps to zero at probe 0.9, so the
  // served mean must not jump crossing the band edge.
  const double inside =
      model.compiled().EvaluateDistribution(features, 0.9 + 1e-9, 0.1).mean;
  const double outside =
      model.compiled().EvaluateDistribution(features, 0.9 - 1e-9, 0.1).mean;
  EXPECT_NEAR(inside, outside, 1e-5 * (1.0 + outside));
}

TEST(CostDistributionTest, ZeroBandFractionServesHardStates) {
  const CostModel model = NoisyTwoStateModel();
  const std::vector<double> features = Features(5.0);
  const CostDistribution d =
      model.compiled().EvaluateDistribution(features, 1.0,
                                            /*band_fraction=*/0.0);
  EXPECT_NEAR(d.mean, model.Estimate(features, 1.0), kTol);
}

TEST(CostDistributionTest, NoCovarianceStructureStillServesSpread) {
  const CostModel fitted = ConstantStateModel({1.0}, {0.5, 4.0});
  // Compile from bare coefficients: no (X'X)^{-1}, so no per-state
  // intervals — but the between-state spread near a boundary survives.
  const CompiledEquations bare = CompiledEquations::Compile(
      fitted.selected_variables(), fitted.states(), fitted.layout(),
      fitted.fit().coefficients);
  EXPECT_FALSE(bare.has_intervals());
  const std::vector<double> features = Features(5.0);
  const CostDistribution hard = bare.EvaluateDistribution(features, 0.2, 0.1);
  EXPECT_FALSE(hard.has_interval);
  EXPECT_NEAR(hard.width(), 0.0, kTol);
  const CostDistribution soft = bare.EvaluateDistribution(features, 1.0, 0.1);
  EXPECT_GT(soft.width(), 1.0);  // states 3.5 apart, weight 0.5 each
}

// ---- PlacementScore --------------------------------------------------------

CostDistribution Dist(double mean, double half) {
  CostDistribution d;
  d.mean = mean;
  d.low = mean - half;
  d.high = mean + half;
  d.has_interval = true;
  return d;
}

TEST(PlacementPolicyTest, PointPolicyIsLegacyScore) {
  PlacementRanking ranking;  // kPointEstimate
  const CostDistribution d = Dist(10.0, 3.0);
  EXPECT_EQ(PlacementScore(ranking, d, 2.5, 0.25), 2.75);
  // NaN point estimates stay NaN — the argmin's strict < never selects them.
  EXPECT_TRUE(std::isnan(PlacementScore(
      ranking, d, std::numeric_limits<double>::quiet_NaN(), 0.0)));
}

TEST(PlacementPolicyTest, ExpectedCostScoresTheMean) {
  PlacementRanking ranking;
  ranking.policy = PlacementPolicy::kExpectedCost;
  const CostDistribution d = Dist(10.0, 3.0);
  // Fresh candidate: no widening, the score is mean + shipping.
  EXPECT_NEAR(PlacementScore(ranking, d, 9.0, 0.5), 10.5, kTol);
}

TEST(PlacementPolicyTest, StaleAndDegradedWidenOneSided) {
  PlacementRanking ranking;
  ranking.policy = PlacementPolicy::kExpectedCost;
  CostDistribution fresh = Dist(10.0, 3.0);
  CostDistribution stale = fresh;
  stale.stale = true;
  CostDistribution degraded = fresh;
  degraded.degraded = true;
  const double s_fresh = PlacementScore(ranking, fresh, 10.0, 0.0);
  const double s_stale = PlacementScore(ranking, stale, 10.0, 0.0);
  const double s_degraded = PlacementScore(ranking, degraded, 10.0, 0.0);
  EXPECT_GT(s_stale, s_fresh);
  EXPECT_GT(s_degraded, s_stale);  // degraded_width_factor > stale_width_factor
  // width 6, stale factor 1.5: widened by 3, mean shifts by half of that.
  EXPECT_NEAR(s_stale, 10.0 + 0.5 * 6.0 * (1.5 - 1.0), kTol);
}

TEST(PlacementPolicyTest, RiskAdjustedChargesTheWidth) {
  PlacementRanking ranking;
  ranking.policy = PlacementPolicy::kRiskAdjusted;
  ranking.risk_lambda = 0.5;
  const CostDistribution certain = Dist(10.0, 0.0);
  const CostDistribution uncertain = Dist(9.5, 4.0);
  // Expected cost alone prefers the 9.5 mean; the risk premium flips it.
  PlacementRanking expected = ranking;
  expected.policy = PlacementPolicy::kExpectedCost;
  EXPECT_LT(PlacementScore(expected, uncertain, 0, 0),
            PlacementScore(expected, certain, 0, 0));
  EXPECT_GT(PlacementScore(ranking, uncertain, 0, 0),
            PlacementScore(ranking, certain, 0, 0));
}

// ---- Ranked ChoosePlacement ------------------------------------------------

ComponentQueryCandidate Candidate(const std::string& site, double probe,
                                  double shipping = 0.0) {
  ComponentQueryCandidate c;
  c.site = site;
  c.class_id = QueryClassId::kUnarySeqScan;
  c.features = Features(5.0);
  c.probing_cost = probe;
  c.shipping_seconds = shipping;
  return c;
}

TEST(PlacementPolicyTest, DefaultRankingMatchesLegacyOverload) {
  GlobalCatalog catalog;
  catalog.Register("a", ConstantStateModel({}, {2.0}, 21));
  catalog.Register("b", ConstantStateModel({}, {1.0}, 22));
  const std::vector<ComponentQueryCandidate> candidates = {
      Candidate("a", 0.5, 0.1), Candidate("b", 0.5, 0.2)};
  const PlacementDecision legacy = ChoosePlacement(catalog, candidates);
  const PlacementDecision ranked =
      ChoosePlacement(catalog, candidates, PlacementRanking{});
  EXPECT_EQ(legacy.chosen, ranked.chosen);
  ASSERT_EQ(legacy.estimates.size(), ranked.estimates.size());
  for (size_t i = 0; i < legacy.estimates.size(); ++i) {
    EXPECT_EQ(legacy.estimates[i], ranked.estimates[i]);
    EXPECT_EQ(ranked.scores[i], ranked.estimates[i]);  // point policy
  }
}

TEST(PlacementPolicyTest, ExpectedCostAvoidsTheBoundaryStraddler) {
  // "jitter" reads 0.5 for a probe just under its boundary but costs 4.0
  // just over it; "steady" always costs 1.0. The point estimate takes the
  // 0.5 bait; the expected-cost ranking prices the blend and declines.
  GlobalCatalog catalog;
  catalog.Register("steady", ConstantStateModel({}, {1.0}, 31));
  catalog.Register("jitter", ConstantStateModel({1.0}, {0.5, 4.0}, 32));
  const std::vector<ComponentQueryCandidate> candidates = {
      Candidate("steady", 0.5), Candidate("jitter", 0.99)};

  const PlacementDecision point = ChoosePlacement(catalog, candidates);
  EXPECT_EQ(point.chosen, 1);

  PlacementRanking ranking;
  ranking.policy = PlacementPolicy::kExpectedCost;
  const PlacementDecision expected =
      ChoosePlacement(catalog, candidates, ranking);
  EXPECT_EQ(expected.chosen, 0);
  ASSERT_EQ(expected.distributions.size(), 2u);
  EXPECT_GT(expected.distributions[1].mean, 1.0);
  EXPECT_GT(expected.distributions[1].width(),
            expected.distributions[0].width());
}

TEST(PlacementPolicyTest, NonFiniteCandidatesAreNeverChosen) {
  GlobalCatalog catalog;
  catalog.Register("a", ConstantStateModel({}, {2.0}, 41));
  std::vector<ComponentQueryCandidate> candidates = {Candidate("a", 0.5),
                                                     Candidate("a", 0.5)};
  // A NaN feature evaluates through the clamp to 0.0 — without the finite
  // guard it would win the argmin with a fictitious free placement.
  candidates[0].features[0] = std::numeric_limits<double>::quiet_NaN();
  for (const auto& ranking :
       {PlacementRanking{},
        PlacementRanking{PlacementPolicy::kExpectedCost},
        PlacementRanking{PlacementPolicy::kRiskAdjusted}}) {
    const PlacementDecision d = ChoosePlacement(catalog, candidates, ranking);
    EXPECT_EQ(d.chosen, 1) << ToString(ranking.policy);
    EXPECT_TRUE(std::isinf(d.scores[0])) << ToString(ranking.policy);
  }
}

TEST(PlacementPolicyTest, TiesBreakToTheLowestIndex) {
  GlobalCatalog catalog;
  catalog.Register("a", ConstantStateModel({}, {2.0}, 51));
  PlacementRanking ranking;
  ranking.policy = PlacementPolicy::kExpectedCost;
  const PlacementDecision d = ChoosePlacement(
      catalog, {Candidate("a", 0.5), Candidate("a", 0.5)}, ranking);
  EXPECT_EQ(d.chosen, 0);
}

TEST(PlacementPolicyTest, NoModelAnywhereIsMinusOneUnderEveryPolicy) {
  GlobalCatalog catalog;
  for (const auto policy :
       {PlacementPolicy::kPointEstimate, PlacementPolicy::kExpectedCost,
        PlacementPolicy::kRiskAdjusted}) {
    PlacementRanking ranking;
    ranking.policy = policy;
    const PlacementDecision d =
        ChoosePlacement(catalog, {Candidate("ghost", 0.5)}, ranking);
    EXPECT_EQ(d.chosen, -1) << ToString(policy);
    ASSERT_EQ(d.scores.size(), 1u);
    EXPECT_TRUE(std::isinf(d.scores[0]));
  }
}

}  // namespace
}  // namespace mscm::core
