#include "core/cost_model.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mscm::core {
namespace {

TEST(CostModelTest, RecoversPiecewiseCoefficientsExactly) {
  // Two states with very different intercepts and slopes, no noise.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 10.0};
  truth.slopes = {{0.5, 2.0}, {3.0, -1.0}};
  Rng rng(1);
  const ObservationSet obs = test::SyntheticObservations(truth, 200, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 2);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1}, states,
                   QualitativeForm::kGeneral);
  EXPECT_NEAR(model.CoefficientFor(-1, 0), 1.0, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(-1, 1), 10.0, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(0, 0), 0.5, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(1, 0), 2.0, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(0, 1), 3.0, 1e-8);
  EXPECT_NEAR(model.CoefficientFor(1, 1), -1.0, 1e-8);
  EXPECT_NEAR(model.r_squared(), 1.0, 1e-10);
}

TEST(CostModelTest, EstimateUsesProbingCostToPickState) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {0.0, 100.0};
  truth.slopes = {{1.0}, {1.0}};
  Rng rng(2);
  const ObservationSet obs = test::SyntheticObservations(truth, 120, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 2);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0}, states,
                   QualitativeForm::kGeneral);
  const std::vector<double> features = {5.0};
  EXPECT_NEAR(model.Estimate(features, 0.1), 5.0, 0.1);
  EXPECT_NEAR(model.Estimate(features, 0.9), 105.0, 0.1);
}

TEST(CostModelTest, EstimateFastMatchesEstimateEverywhere) {
  // The compiled estimator must agree with the term-walk reference across
  // states, forms, and feature values — including the negative clamp.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {-2.0, 10.0, 40.0};
  truth.slopes = {{0.5, 2.0}, {3.0, -1.0}, {7.0, 0.25}};
  Rng rng(11);
  const ObservationSet obs = test::SyntheticObservations(truth, 300, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 3);
  for (const QualitativeForm form :
       {QualitativeForm::kGeneral, QualitativeForm::kParallel}) {
    const CostModel model = FitCostModel(QueryClassId::kUnarySeqScan, obs,
                                         {0, 1}, states, form);
    for (double probe : {0.05, 0.4, 0.95}) {
      for (double f0 : {0.0, 1.0, 123.456}) {
        for (double f1 : {-4.0, 0.5, 88.0}) {
          const std::vector<double> features = {f0, f1};
          EXPECT_DOUBLE_EQ(model.Estimate(features, probe),
                           model.EstimateTermWalk(features, probe));
        }
      }
    }
  }
}

TEST(CostModelTest, EstimateClampsNegativePredictions) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {-50.0};
  truth.slopes = {{1.0}};
  Rng rng(3);
  const ObservationSet obs = test::SyntheticObservations(truth, 60, rng);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0},
                   ContentionStates::Single(), QualitativeForm::kGeneral);
  EXPECT_DOUBLE_EQ(model.Estimate({0.0}, 0.5), 0.0);
}

TEST(CostModelTest, SingleStateEqualsPlainRegression) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {2.0};
  truth.slopes = {{1.5, 0.5}};
  truth.noise_stddev = 0.1;
  Rng rng(4);
  const ObservationSet obs = test::SyntheticObservations(truth, 150, rng);
  const CostModel model =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1},
                   ContentionStates::Single(), QualitativeForm::kGeneral);
  EXPECT_NEAR(model.CoefficientFor(-1, 0), 2.0, 0.15);
  EXPECT_NEAR(model.CoefficientFor(0, 0), 1.5, 0.05);
  EXPECT_NEAR(model.CoefficientFor(1, 0), 0.5, 0.05);
}

TEST(CostModelTest, MultiStateBeatsSingleStateOnPiecewiseData) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 5.0, 20.0};
  truth.slopes = {{0.2}, {1.0}, {4.0}};
  truth.noise_stddev = 0.3;
  Rng rng(5);
  const ObservationSet obs = test::SyntheticObservations(truth, 400, rng);
  const CostModel single =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0},
                   ContentionStates::Single(), QualitativeForm::kGeneral);
  const CostModel multi = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0},
      ContentionStates::UniformPartition(0.0, 1.0, 3),
      QualitativeForm::kGeneral);
  EXPECT_GT(multi.r_squared(), single.r_squared() + 0.05);
  EXPECT_LT(multi.standard_error(), single.standard_error());
}

TEST(CostModelTest, GeneralFormBeatsParallelWhenSlopesChange) {
  // Slopes differ across states; intercept identical — parallel cannot fit.
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 1.0};
  truth.slopes = {{0.5}, {5.0}};
  truth.noise_stddev = 0.1;
  Rng rng(6);
  const ObservationSet obs = test::SyntheticObservations(truth, 300, rng);
  const ContentionStates states =
      ContentionStates::UniformPartition(0.0, 1.0, 2);
  const CostModel parallel =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0}, states,
                   QualitativeForm::kParallel);
  const CostModel general =
      FitCostModel(QueryClassId::kUnarySeqScan, obs, {0}, states,
                   QualitativeForm::kGeneral);
  EXPECT_GT(general.r_squared(), parallel.r_squared() + 0.01);
}

TEST(CostModelTest, FTestSignificantOnRealRelationship) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 3.0};
  truth.slopes = {{2.0}, {4.0}};
  truth.noise_stddev = 0.5;
  Rng rng(7);
  const ObservationSet obs = test::SyntheticObservations(truth, 200, rng);
  const CostModel model = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0},
      ContentionStates::UniformPartition(0.0, 1.0, 2),
      QualitativeForm::kGeneral);
  EXPECT_LT(model.f_pvalue(), 0.01);  // significance level in the paper
}

TEST(CostModelTest, ToStringShowsPerStateEquations) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 2.0};
  truth.slopes = {{1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}};
  Rng rng(8);
  const ObservationSet obs = test::SyntheticObservations(truth, 150, rng);
  const CostModel model = FitCostModel(
      QueryClassId::kUnarySeqScan, obs, {0, 1, 2},
      ContentionStates::UniformPartition(0.0, 1.0, 2),
      QualitativeForm::kGeneral);
  const std::string s =
      model.ToString(VariableSet::ForClass(QueryClassId::kUnarySeqScan));
  EXPECT_NE(s.find("state 0"), std::string::npos);
  EXPECT_NE(s.find("state 1"), std::string::npos);
  EXPECT_NE(s.find("N_t"), std::string::npos);
  EXPECT_NE(s.find("R^2"), std::string::npos);
}

CostModel TwoStateModel(Rng& rng, double noise_stddev = 0.0) {
  test::SyntheticGroundTruth truth;
  truth.intercepts = {1.0, 4.0};
  truth.slopes = {{0.5, 0.2}, {1.5, 0.6}};
  truth.noise_stddev = noise_stddev;
  const ObservationSet obs = test::SyntheticObservations(truth, 200, rng);
  return FitCostModel(QueryClassId::kUnarySeqScan, obs, {0, 1},
                      ContentionStates::UniformPartition(0.0, 1.0, 2),
                      QualitativeForm::kGeneral);
}

TEST(CostModelTest, ApplyFeedbackBumpsGenerationAndMovesOnlyThatState) {
  Rng rng(21);
  const CostModel base = TwoStateModel(rng);
  EXPECT_EQ(base.generation(), 0u);

  const std::vector<double> features = {3.0, 4.0};
  const auto adapted = base.ApplyFeedback(/*state=*/1, features,
                                          /*actual=*/100.0);
  ASSERT_TRUE(adapted.has_value());
  EXPECT_EQ(adapted->generation(), 1u);
  EXPECT_EQ(adapted->adaptation().states.count(1), 1u);
  EXPECT_EQ(adapted->adaptation().states.count(0), 0u);

  // The untouched state's compiled row is bit-identical: cached estimates
  // for other states survive an adaptation swap value-correct.
  const double* row0_before = base.compiled().row(0);
  const double* row0_after = adapted->compiled().row(0);
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(row0_before[j], row0_after[j]);

  // The fed state's equation moved toward the reported actual.
  const double before = base.Estimate(features, 0.9);
  const double after = adapted->Estimate(features, 0.9);
  EXPECT_GT(after, before);
}

TEST(CostModelTest, AdaptedEstimateMatchesEstimateFastBitExact) {
  Rng rng(22);
  CostModel model = TwoStateModel(rng);
  stats::RlsConfig config;
  config.forgetting = 0.98;
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> features = {rng.Uniform(1, 10),
                                          rng.Uniform(1, 10)};
    const int state = i % 2;
    const double actual = 2.0 + 3.0 * features[0] + 0.5 * features[1];
    auto next = model.ApplyFeedback(state, features, actual, config);
    ASSERT_TRUE(next.has_value());
    model = std::move(*next);
  }
  EXPECT_EQ(model.generation(), 40u);
  // Reference and compiled paths stay bit-identical on adapted states.
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> features = {rng.Uniform(0, 12),
                                          rng.Uniform(0, 12)};
    const double probe = rng.NextDouble();
    EXPECT_EQ(model.EstimateTermWalk(features, probe),
              model.Estimate(features, probe));
  }
}

// The interval is centred on the row actually served: on an adapted state
// that is the RLS overlay row, not the base fit's design row. It agrees with
// the served distribution at band 0 whether the fit's interval collapses
// (noise-free) or not.
TEST(CostModelTest, IntervalCentresOnAdaptedRow) {
  for (const double noise : {0.0, 0.5}) {
    Rng rng(24);
    const CostModel base = TwoStateModel(rng, noise);
    const std::vector<double> features = {3.0, 4.0};
    const auto adapted = base.ApplyFeedback(/*state=*/1, features,
                                            /*actual=*/100.0);
    ASSERT_TRUE(adapted.has_value());
    for (const double probe : {0.2, 0.9}) {
      const auto interval = adapted->EstimateWithInterval(features, probe);
      ASSERT_TRUE(interval.has_value());
      EXPECT_EQ(interval->estimate, adapted->Estimate(features, probe))
          << "noise " << noise << " probe " << probe;
      EXPECT_LE(interval->low, interval->estimate);
      EXPECT_GE(interval->high, interval->estimate);
      const CostDistribution d =
          adapted->compiled().EvaluateDistribution(features, probe, 0.0);
      EXPECT_EQ(d.mean, interval->estimate);
      EXPECT_NEAR(d.low, interval->low, 1e-6 * (1.0 + interval->high));
      EXPECT_NEAR(d.high, interval->high, 1e-6 * (1.0 + interval->high));
    }
  }
}

// The ISSUE's parity pin: at λ = 1 under a diffuse prior, a state's
// RLS-adapted row must match a batch OLS refit over the same feedback
// window (different floating-point orderings, so a tight numeric
// differential rather than bit equality).
TEST(CostModelTest, ApplyFeedbackLambda1MatchesBatchRefitOnWindow) {
  Rng rng(23);
  CostModel model = TwoStateModel(rng);
  stats::RlsConfig config;
  config.forgetting = 1.0;
  config.initial_variance = 1e10;

  std::vector<std::vector<double>> window_rows;
  std::vector<double> window_actuals;
  for (int i = 0; i < 150; ++i) {
    const std::vector<double> features = {rng.Uniform(1, 10),
                                          rng.Uniform(1, 10)};
    const double actual =
        7.0 + 2.5 * features[0] - 0.75 * features[1] + rng.Gaussian(0.0, 0.1);
    auto next = model.ApplyFeedback(/*state=*/0, features, actual, config);
    ASSERT_TRUE(next.has_value());
    model = std::move(*next);
    window_rows.push_back({1.0, features[0], features[1]});
    window_actuals.push_back(actual);
  }

  const stats::OlsResult batch =
      stats::FitOls(stats::Matrix::FromRows(window_rows), window_actuals);
  const double* adapted_row = model.compiled().row(0);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(adapted_row[j], batch.coefficients[j], 1e-5)
        << "coefficient " << j;
  }
}

TEST(CostModelTest, ApplyFeedbackRejectsBadObservations) {
  Rng rng(24);
  const CostModel model = TwoStateModel(rng);
  EXPECT_FALSE(
      model.ApplyFeedback(0, {1.0, 2.0}, std::nan("")).has_value());
  EXPECT_FALSE(model
                   .ApplyFeedback(
                       0, {std::numeric_limits<double>::infinity(), 2.0}, 5.0)
                   .has_value());
}

}  // namespace
}  // namespace mscm::core
