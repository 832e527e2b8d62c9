#include "core/model_io.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mscm::core {
namespace {

CostModel MakeModel(int num_states, QualitativeForm form,
                    QueryClassId cls = QueryClassId::kUnarySeqScan) {
  test::SyntheticGroundTruth truth;
  for (int s = 0; s < num_states; ++s) {
    truth.intercepts.push_back(1.0 + 2.0 * s);
    truth.slopes.push_back({0.5 * (s + 1), 0.25 * (s + 1)});
  }
  truth.noise_stddev = 0.05;
  Rng rng(7);
  const ObservationSet obs = test::SyntheticObservations(truth, 200, rng);
  const ContentionStates states =
      num_states == 1
          ? ContentionStates::Single()
          : ContentionStates::UniformPartition(0.0, 1.0, num_states);
  return FitCostModel(cls, obs, {0, 1}, states, form);
}

TEST(ModelIoTest, RoundTripPreservesEstimates) {
  const CostModel original = MakeModel(3, QualitativeForm::kGeneral);
  const std::string blob = SerializeCostModel(original);
  const auto restored = ParseCostModel(blob);
  ASSERT_TRUE(restored.has_value());

  EXPECT_EQ(restored->class_id(), original.class_id());
  EXPECT_EQ(restored->states().num_states(), original.states().num_states());
  EXPECT_EQ(restored->selected_variables(), original.selected_variables());
  EXPECT_DOUBLE_EQ(restored->r_squared(), original.r_squared());
  EXPECT_DOUBLE_EQ(restored->standard_error(), original.standard_error());

  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> features = {rng.Uniform(0, 10),
                                          rng.Uniform(0, 10)};
    const double probe = rng.NextDouble();
    EXPECT_DOUBLE_EQ(restored->Estimate(features, probe),
                     original.Estimate(features, probe));
  }
}

TEST(ModelIoTest, RoundTripAllForms) {
  for (QualitativeForm form :
       {QualitativeForm::kCoincident, QualitativeForm::kParallel,
        QualitativeForm::kConcurrent, QualitativeForm::kGeneral}) {
    const CostModel original = MakeModel(2, form);
    const auto restored = ParseCostModel(SerializeCostModel(original));
    ASSERT_TRUE(restored.has_value()) << ToString(form);
    EXPECT_DOUBLE_EQ(restored->Estimate({1.0, 2.0}, 0.3),
                     original.Estimate({1.0, 2.0}, 0.3))
        << ToString(form);
  }
}

TEST(ModelIoTest, RoundTripSingleState) {
  const CostModel original = MakeModel(1, QualitativeForm::kGeneral);
  const auto restored = ParseCostModel(SerializeCostModel(original));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->states().num_states(), 1);
}

TEST(ModelIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseCostModel("").has_value());
  EXPECT_FALSE(ParseCostModel("not a model").has_value());
  EXPECT_FALSE(ParseCostModel("mscm-cost-model v1\nend\n").has_value());
}

TEST(ModelIoTest, RejectsTamperedRecords) {
  const std::string blob = SerializeCostModel(
      MakeModel(2, QualitativeForm::kGeneral));
  {
    // Unknown key.
    std::string bad = blob;
    bad.insert(bad.find("end"), "bogus 1 2 3\n");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Out-of-range class id.
    std::string bad = blob;
    const size_t pos = bad.find("class ");
    bad.replace(pos, bad.find('\n', pos) - pos, "class 99");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Truncated (no end marker).
    std::string bad = blob.substr(0, blob.find("end"));
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Coefficient count inconsistent with layout.
    std::string bad = blob;
    const size_t pos = bad.find("coefficients ");
    const size_t eol = bad.find('\n', pos);
    bad.replace(pos, eol - pos, "coefficients 1.0 2.0");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
}

TEST(ModelIoTest, RoundTripPreservesPredictionIntervals) {
  // The xtxinv record line persists the fit's covariance structure, so a
  // round-tripped model serves the same intervals as the in-process fit —
  // the bug being pinned: EstimateWithInterval silently returning nullopt
  // after a save/load.
  const CostModel original = MakeModel(3, QualitativeForm::kGeneral);
  const auto restored = ParseCostModel(SerializeCostModel(original));
  ASSERT_TRUE(restored.has_value());

  Rng rng(13);
  for (int i = 0; i < 25; ++i) {
    const std::vector<double> features = {rng.Uniform(0, 10),
                                          rng.Uniform(0, 10)};
    const double probe = rng.NextDouble();
    const auto want = original.EstimateWithInterval(features, probe);
    const auto got = restored->EstimateWithInterval(features, probe);
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_NEAR(got->estimate, want->estimate, 1e-9);
    EXPECT_NEAR(got->low, want->low, 1e-9 * (1.0 + want->high));
    EXPECT_NEAR(got->high, want->high, 1e-9 * (1.0 + want->high));
    // The served distribution path reads the same persisted structure.
    const CostDistribution d_want =
        original.compiled().EvaluateDistribution(features, probe, 0.1);
    const CostDistribution d_got =
        restored->compiled().EvaluateDistribution(features, probe, 0.1);
    EXPECT_TRUE(d_got.has_interval);
    EXPECT_NEAR(d_got.low, d_want.low, 1e-9 * (1.0 + d_want.high));
    EXPECT_NEAR(d_got.high, d_want.high, 1e-9 * (1.0 + d_want.high));
  }
}

TEST(ModelIoTest, LegacyRecordWithoutXtxInvStillParses) {
  // Records written before the xtxinv line existed must parse — they just
  // cannot serve intervals.
  const CostModel original = MakeModel(2, QualitativeForm::kGeneral);
  std::string blob = SerializeCostModel(original);
  const size_t pos = blob.find("xtxinv ");
  ASSERT_NE(pos, std::string::npos);
  blob.erase(pos, blob.find('\n', pos) - pos + 1);
  const auto restored = ParseCostModel(blob);
  ASSERT_TRUE(restored.has_value());
  EXPECT_DOUBLE_EQ(restored->Estimate({1.0, 2.0}, 0.3),
                   original.Estimate({1.0, 2.0}, 0.3));
  EXPECT_FALSE(restored->EstimateWithInterval({1.0, 2.0}, 0.3).has_value());
  EXPECT_FALSE(restored->compiled()
                   .EvaluateDistribution({1.0, 2.0}, 0.3, 0.1)
                   .has_interval);
}

TEST(ModelIoTest, RejectsTamperedXtxInv) {
  const std::string blob =
      SerializeCostModel(MakeModel(2, QualitativeForm::kGeneral));
  const size_t pos = blob.find("xtxinv ");
  ASSERT_NE(pos, std::string::npos);
  const size_t eol = blob.find('\n', pos);
  {
    // Dimension disagreeing with the coefficient count.
    std::string bad = blob;
    bad.replace(pos, eol - pos, "xtxinv 2 1.0 0.0 0.0 1.0");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Value count not dim^2.
    std::string bad = blob;
    bad.replace(pos, eol - pos, "xtxinv 2 1.0 0.0 0.0");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Non-finite entry.
    std::string bad = blob;
    bad.replace(pos, eol - pos, "xtxinv 2 1.0 0.0 0.0 inf");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
}

TEST(ModelIoTest, RejectsUnsortedBoundaries) {
  std::string blob =
      SerializeCostModel(MakeModel(3, QualitativeForm::kGeneral));
  const size_t pos = blob.find("states ");
  const size_t eol = blob.find('\n', pos);
  blob.replace(pos, eol - pos, "states 0.9 0.1");
  EXPECT_FALSE(ParseCostModel(blob).has_value());
}

CostModel AdaptedModel(int feedback_count, Rng& rng) {
  CostModel model = MakeModel(3, QualitativeForm::kGeneral);
  stats::RlsConfig config;
  config.forgetting = 0.99;
  for (int i = 0; i < feedback_count; ++i) {
    const std::vector<double> features = {rng.Uniform(1, 10),
                                          rng.Uniform(1, 10)};
    const double actual = 3.0 + 1.2 * features[0] + 0.4 * features[1];
    auto next = model.ApplyFeedback(i % 3, features, actual, config);
    if (next.has_value()) model = std::move(*next);
  }
  return model;
}

TEST(ModelIoTest, AdaptedModelRoundTripsBitExact) {
  Rng rng(31);
  const CostModel original = AdaptedModel(30, rng);
  ASSERT_GT(original.generation(), 0u);
  ASSERT_FALSE(original.adaptation().states.empty());

  const auto restored = ParseCostModel(SerializeCostModel(original));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation(), original.generation());
  EXPECT_EQ(restored->adaptation().forgetting,
            original.adaptation().forgetting);
  ASSERT_EQ(restored->adaptation().states.size(),
            original.adaptation().states.size());
  for (const auto& [state, st] : original.adaptation().states) {
    const auto it = restored->adaptation().states.find(state);
    ASSERT_NE(it, restored->adaptation().states.end());
    EXPECT_EQ(it->second.updates, st.updates);
    EXPECT_EQ(it->second.row, st.row);                // exact doubles
    EXPECT_EQ(it->second.covariance, st.covariance);  // exact doubles
  }

  // The persisted-and-reloaded model serves bit-identical estimates,
  // including on adapted states.
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> features = {rng.Uniform(0, 12),
                                          rng.Uniform(0, 12)};
    const double probe = rng.NextDouble();
    EXPECT_EQ(restored->Estimate(features, probe),
              original.Estimate(features, probe));
  }
}

TEST(ModelIoTest, AdaptedRoundTripResumesTrajectoryBitExact) {
  // Warm-started continuation: feeding the same observation to the
  // original and its round-tripped copy must produce identical rows —
  // the persisted covariance really is the estimator state.
  Rng rng(32);
  CostModel original = AdaptedModel(20, rng);
  auto restored = ParseCostModel(SerializeCostModel(original));
  ASSERT_TRUE(restored.has_value());

  const std::vector<double> features = {4.0, 6.0};
  auto a = original.ApplyFeedback(0, features, 42.0);
  auto b = restored->ApplyFeedback(0, features, 42.0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const double* row_a = a->compiled().row(0);
  const double* row_b = b->compiled().row(0);
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(row_a[j], row_b[j]);
}

TEST(ModelIoTest, LegacyRecordWithoutAdaptationStillParses) {
  const CostModel unadapted = MakeModel(2, QualitativeForm::kGeneral);
  const std::string blob = SerializeCostModel(unadapted);
  // Unadapted records carry no adaptation lines at all — byte-compatible
  // with records written before the overlay existed.
  EXPECT_EQ(blob.find("generation"), std::string::npos);
  EXPECT_EQ(blob.find("adapted"), std::string::npos);
  const auto restored = ParseCostModel(blob);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation(), 0u);
  EXPECT_TRUE(restored->adaptation().states.empty());
}

TEST(ModelIoTest, RejectsTamperedAdaptation) {
  Rng rng(33);
  const std::string blob = SerializeCostModel(AdaptedModel(12, rng));
  const size_t pos = blob.find("\nadapted ");
  ASSERT_NE(pos, std::string::npos);
  const size_t line = pos + 1;
  const size_t eol = blob.find('\n', line);
  {
    // Adapted state outside the partition.
    std::string bad = blob;
    bad.replace(line, eol - line, "adapted 9 1 1.0 2.0 3.0");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Row width not matching the stride.
    std::string bad = blob;
    bad.replace(line, eol - line, "adapted 0 1 1.0 2.0");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Non-finite row entry.
    std::string bad = blob;
    bad.replace(line, eol - line, "adapted 0 1 1.0 2.0 nan");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Adapted rows demand a nonzero generation.
    std::string bad = blob;
    const size_t gpos = bad.find("generation ");
    const size_t geol = bad.find('\n', gpos);
    bad.replace(gpos, geol - gpos, "generation 0");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Forgetting factor outside (0, 1].
    std::string bad = blob;
    const size_t fpos = bad.find("forgetting ");
    const size_t feol = bad.find('\n', fpos);
    bad.replace(fpos, feol - fpos, "forgetting 1.5");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Covariance with no matching adapted row.
    std::string good = SerializeCostModel(MakeModel(2,
                                                    QualitativeForm::kGeneral));
    const size_t epos = good.find("end\n");
    std::string bad = good;
    bad.insert(epos, "generation 1\nadaptcov 0 1 0 0 0 0 0 0 0 0\n");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
  {
    // Covariance with the wrong element count.
    std::string bad = blob;
    const size_t cpos = bad.find("adaptcov ");
    ASSERT_NE(cpos, std::string::npos);
    const size_t ceol = bad.find('\n', cpos);
    bad.replace(cpos, ceol - cpos, "adaptcov 0 1.0 2.0");
    EXPECT_FALSE(ParseCostModel(bad).has_value());
  }
}

TEST(CatalogIoTest, RoundTripMultipleEntries) {
  GlobalCatalog catalog;
  catalog.Register("alpha", MakeModel(2, QualitativeForm::kGeneral));
  catalog.Register("beta", MakeModel(3, QualitativeForm::kGeneral));
  catalog.Register("beta", MakeModel(1, QualitativeForm::kGeneral,
                                     QueryClassId::kJoinNoIndex));
  const std::string blob = SerializeCatalog(catalog);
  const auto restored = ParseCatalog(blob);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), 3u);
  ASSERT_NE(restored->Find("alpha", QueryClassId::kUnarySeqScan), nullptr);
  ASSERT_NE(restored->Find("beta", QueryClassId::kJoinNoIndex), nullptr);
  EXPECT_EQ(restored->Find("beta", QueryClassId::kUnarySeqScan)
                ->states()
                .num_states(),
            3);
}

TEST(CatalogIoTest, EmptyCatalogRoundTrips) {
  const auto restored = ParseCatalog(SerializeCatalog(GlobalCatalog{}));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), 0u);
}

TEST(CatalogIoTest, RejectsBadHeader) {
  EXPECT_FALSE(ParseCatalog("wrong\n").has_value());
}


TEST(CatalogIoTest, FileRoundTrip) {
  GlobalCatalog catalog;
  catalog.Register("alpha", MakeModel(2, QualitativeForm::kGeneral));
  const std::string path = ::testing::TempDir() + "/mscm_catalog_test.txt";
  ASSERT_TRUE(SaveCatalogToFile(catalog, path));
  const auto restored = LoadCatalogFromFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), 1u);
  EXPECT_NE(restored->Find("alpha", QueryClassId::kUnarySeqScan), nullptr);
}

TEST(CatalogIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadCatalogFromFile("/nonexistent/dir/file.txt").has_value());
}

TEST(CatalogIoTest, SaveToUnwritablePathFails) {
  GlobalCatalog catalog;
  EXPECT_FALSE(SaveCatalogToFile(catalog, "/nonexistent/dir/file.txt"));
}

}  // namespace
}  // namespace mscm::core
