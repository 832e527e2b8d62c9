#include "core/catalog.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mscm::core {
namespace {

CostModel MakeModel(QueryClassId cls, double slope) {
  ObservationSet obs;
  Rng rng(1);
  const size_t n_features = VariableSet::ForClass(cls).size();
  for (int i = 0; i < 40; ++i) {
    Observation o;
    o.probing_cost = 0.5;
    o.features.assign(n_features, 0.0);
    o.features[0] = rng.Uniform(1.0, 10.0);
    o.cost = slope * o.features[0];
    obs.push_back(o);
  }
  return FitCostModel(cls, obs, {0}, ContentionStates::Single(),
                      QualitativeForm::kGeneral);
}

TEST(CatalogTest, RegisterAndFind) {
  GlobalCatalog catalog;
  catalog.Register("siteA", MakeModel(QueryClassId::kUnarySeqScan, 2.0));
  EXPECT_NE(catalog.Find("siteA", QueryClassId::kUnarySeqScan), nullptr);
  EXPECT_EQ(catalog.Find("siteA", QueryClassId::kJoinNoIndex), nullptr);
  EXPECT_EQ(catalog.Find("siteB", QueryClassId::kUnarySeqScan), nullptr);
}

TEST(CatalogTest, ReplaceOverwrites) {
  GlobalCatalog catalog;
  catalog.Register("s", MakeModel(QueryClassId::kUnarySeqScan, 2.0));
  catalog.Register("s", MakeModel(QueryClassId::kUnarySeqScan, 5.0));
  EXPECT_EQ(catalog.size(), 1u);
  const CostModel* m = catalog.Find("s", QueryClassId::kUnarySeqScan);
  ASSERT_NE(m, nullptr);
  std::vector<double> features(
      VariableSet::ForClass(QueryClassId::kUnarySeqScan).size(), 0.0);
  features[0] = 2.0;
  EXPECT_NEAR(m->Estimate(features, 0.5), 10.0, 0.01);
}

TEST(CatalogTest, MultipleSitesAndClasses) {
  GlobalCatalog catalog;
  catalog.Register("a", MakeModel(QueryClassId::kUnarySeqScan, 1.0));
  catalog.Register("a", MakeModel(QueryClassId::kJoinNoIndex, 1.0));
  catalog.Register("b", MakeModel(QueryClassId::kUnarySeqScan, 1.0));
  EXPECT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.Entries().size(), 3u);
}

}  // namespace
}  // namespace mscm::core
