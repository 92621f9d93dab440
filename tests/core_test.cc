#include <gtest/gtest.h>

#include "core/objectives.h"
#include "core/solution_set.h"
#include "core/taxonomy.h"
#include "data/generators.h"

namespace multiclust {
namespace {

Clustering MakeClustering(std::vector<int> labels, double quality = 0.0) {
  Clustering c;
  c.labels = std::move(labels);
  c.quality = quality;
  c.algorithm = "test";
  return c;
}

TEST(SolutionSetTest, AddAndSize) {
  SolutionSet set;
  EXPECT_TRUE(set.empty());
  ASSERT_TRUE(set.Add(MakeClustering({0, 0, 1, 1})).ok());
  ASSERT_TRUE(set.Add(MakeClustering({0, 1, 0, 1})).ok());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.at(1).labels, (std::vector<int>{0, 1, 0, 1}));
}

TEST(SolutionSetTest, RejectsMismatchedSizes) {
  SolutionSet set;
  ASSERT_TRUE(set.Add(MakeClustering({0, 1})).ok());
  EXPECT_FALSE(set.Add(MakeClustering({0, 1, 2})).ok());
}

TEST(SolutionSetTest, DiversityExtremes) {
  SolutionSet diverse;
  ASSERT_TRUE(diverse.Add(MakeClustering({0, 0, 1, 1})).ok());
  ASSERT_TRUE(diverse.Add(MakeClustering({0, 1, 0, 1})).ok());
  EXPECT_NEAR(diverse.Diversity().value(), 1.0, 1e-9);

  SolutionSet redundant;
  ASSERT_TRUE(redundant.Add(MakeClustering({0, 0, 1, 1})).ok());
  ASSERT_TRUE(redundant.Add(MakeClustering({1, 1, 0, 0})).ok());
  EXPECT_NEAR(redundant.Diversity().value(), 0.0, 1e-9);
}

TEST(SolutionSetTest, DeduplicateRemovesNearDuplicates) {
  SolutionSet set;
  ASSERT_TRUE(set.Add(MakeClustering({0, 0, 1, 1})).ok());
  ASSERT_TRUE(set.Add(MakeClustering({1, 1, 0, 0})).ok());  // same partition
  ASSERT_TRUE(set.Add(MakeClustering({0, 1, 0, 1})).ok());
  auto removed = set.Deduplicate(0.1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  EXPECT_EQ(set.size(), 2u);
  // Idempotent.
  EXPECT_EQ(set.Deduplicate(0.1).value(), 0u);
}

TEST(SolutionSetTest, SummaryMentionsAlgorithms) {
  SolutionSet set;
  ASSERT_TRUE(set.Add(MakeClustering({0, 1}, 3.5)).ok());
  const std::string s = set.Summary();
  EXPECT_NE(s.find("test"), std::string::npos);
  EXPECT_NE(s.find("k=2"), std::string::npos);
}

TEST(ObjectivesTest, StockQualityFunctions) {
  auto ds = MakeBlobs({{{0, 0}, 0.3, 30}, {{10, 10}, 0.3, 30}}, 1);
  ASSERT_TRUE(ds.ok());
  const auto truth = ds->GroundTruth("labels").value();
  EXPECT_LT(NegativeSseQuality()(ds->data(), truth).value(), 0.0);
  EXPECT_GT(SilhouetteQuality()(ds->data(), truth).value(), 0.8);
  EXPECT_GT(DunnQuality()(ds->data(), truth).value(), 1.0);
  // A tripped token reaches the Dunn index through the quality function.
  CancelToken cancel;
  cancel.Cancel();
  EXPECT_EQ(DunnQuality(&cancel)(ds->data(), truth).status().code(),
            StatusCode::kCancelled);
}

TEST(ObjectivesTest, StockDissimilarityFunctions) {
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 1, 0, 1};
  EXPECT_NEAR(NmiDissimilarity()(a, a).value(), 0.0, 1e-12);
  EXPECT_NEAR(NmiDissimilarity()(a, b).value(), 1.0, 1e-12);
  EXPECT_NEAR(AriDissimilarity()(a, a).value(), 0.0, 1e-12);
  EXPECT_GT(ViDissimilarity()(a, b).value(), 0.5);
  EXPECT_NEAR(ViDissimilarity()(a, a).value(), 0.0, 1e-12);
}

TEST(ObjectivesTest, EvaluateObjectiveReport) {
  auto ds = MakeFourSquares(20, 8.0, 0.5, 2);
  ASSERT_TRUE(ds.ok());
  SolutionSet set;
  ASSERT_TRUE(
      set.Add(MakeClustering(ds->GroundTruth("horizontal").value())).ok());
  ASSERT_TRUE(
      set.Add(MakeClustering(ds->GroundTruth("vertical").value())).ok());
  auto report = EvaluateObjective(ds->data(), set, NegativeSseQuality(),
                                  NmiDissimilarity(), 10.0);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->qualities.size(), 2u);
  // The two square splits are orthogonal: dissimilarity ~1.
  EXPECT_GT(report->mean_dissimilarity, 0.95);
  EXPECT_NEAR(report->min_dissimilarity, report->mean_dissimilarity, 1e-9);
  EXPECT_NEAR(report->combined,
              report->mean_quality + 10.0 * report->mean_dissimilarity,
              1e-9);
}

TEST(TaxonomyTest, RegistryCoversAllParadigms) {
  const auto& registry = AlgorithmRegistry();
  EXPECT_GE(registry.size(), 18u);
  bool original = false, transformed = false, subspace = false,
       multisource = false;
  for (const auto& t : registry) {
    switch (t.search_space) {
      case SearchSpace::kOriginalSpace:
        original = true;
        break;
      case SearchSpace::kTransformedSpace:
        transformed = true;
        break;
      case SearchSpace::kSubspaceProjections:
        subspace = true;
        break;
      case SearchSpace::kMultiSource:
        multisource = true;
        break;
    }
  }
  EXPECT_TRUE(original);
  EXPECT_TRUE(transformed);
  EXPECT_TRUE(subspace);
  EXPECT_TRUE(multisource);
}

TEST(TaxonomyTest, TutorialHeadlinersPresent) {
  const auto& registry = AlgorithmRegistry();
  auto has = [&](const std::string& name) {
    for (const auto& t : registry) {
      if (t.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("COALA"));
  EXPECT_TRUE(has("DecorrelatedKMeans"));
  EXPECT_TRUE(has("OrthoProjection"));
  EXPECT_TRUE(has("CLIQUE"));
  EXPECT_TRUE(has("OSCLU"));
  EXPECT_TRUE(has("ASCLU"));
  EXPECT_TRUE(has("CoEM"));
}

TEST(TaxonomyTest, TraitsMatchTutorialTable) {
  // Spot checks against slide 116.
  for (const auto& t : AlgorithmRegistry()) {
    if (t.name == "COALA") {
      EXPECT_EQ(t.search_space, SearchSpace::kOriginalSpace);
      EXPECT_EQ(t.processing, ProcessingMode::kIterative);
      EXPECT_TRUE(t.uses_given_knowledge);
      EXPECT_EQ(t.solutions, SolutionCount::kTwo);
    }
    if (t.name == "DecorrelatedKMeans") {
      EXPECT_EQ(t.processing, ProcessingMode::kSimultaneous);
      EXPECT_FALSE(t.uses_given_knowledge);
      EXPECT_EQ(t.solutions, SolutionCount::kTwoOrMore);
    }
    if (t.name == "CoEM") {
      EXPECT_EQ(t.search_space, SearchSpace::kMultiSource);
      EXPECT_EQ(t.solutions, SolutionCount::kOne);
    }
    if (t.name == "ASCLU") {
      EXPECT_TRUE(t.uses_given_knowledge);
      EXPECT_TRUE(t.models_view_dissimilarity);
    }
  }
}

TEST(TaxonomyTest, RenderedTableContainsRows) {
  const std::string table = RenderTaxonomyTable();
  EXPECT_NE(table.find("COALA"), std::string::npos);
  EXPECT_NE(table.find("simultaneous"), std::string::npos);
  EXPECT_NE(table.find("multi-source"), std::string::npos);
  EXPECT_NE(table.find("exchangeable def."), std::string::npos);
  // One line per algorithm + 2 header lines.
  const size_t lines = std::count(table.begin(), table.end(), '\n');
  EXPECT_EQ(lines, AlgorithmRegistry().size() + 2);
}

TEST(TaxonomyTest, EnumToStringTotal) {
  EXPECT_STREQ(ToString(SearchSpace::kOriginalSpace), "original");
  EXPECT_STREQ(ToString(ProcessingMode::kSimultaneous), "simultaneous");
  EXPECT_STREQ(ToString(SolutionCount::kTwoOrMore), "m >= 2");
}

}  // namespace
}  // namespace multiclust
