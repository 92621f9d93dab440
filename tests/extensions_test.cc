// Tests for the extension modules: discrete data + CIB, disparate
// clustering, DOC, ORCLUS, multiple spectral views, and the discovery
// pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "altspace/cib.h"
#include "altspace/disparate.h"
#include "cluster/kmeans.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "data/discrete.h"
#include "data/generators.h"
#include "metrics/multi_solution.h"
#include "metrics/partition_similarity.h"
#include "stats/contingency.h"
#include "subspace/doc.h"
#include "subspace/msc.h"
#include "subspace/orclus.h"
#include "subspace/proclus.h"
#include "support/silhouette_oracle.h"

namespace multiclust {
namespace {

// ---------------------------------------------------------------------
// Discrete data.
TEST(DocumentTermTest, ShapeAndTruths) {
  DocumentTermSpec spec;
  spec.num_documents = 100;
  spec.seed = 1;
  auto ds = MakeDocumentTerm(spec);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_objects(), 100u);
  EXPECT_EQ(ds->num_dims(), spec.vocab_a + spec.vocab_b + spec.vocab_common);
  EXPECT_TRUE(ds->GroundTruth("topicsA").ok());
  EXPECT_TRUE(ds->GroundTruth("topicsB").ok());
  // Counts are non-negative and each document has doc_length words.
  for (size_t i = 0; i < ds->num_objects(); ++i) {
    double total = 0;
    for (size_t j = 0; j < ds->num_dims(); ++j) {
      EXPECT_GE(ds->data().at(i, j), 0.0);
      total += ds->data().at(i, j);
    }
    EXPECT_DOUBLE_EQ(total, static_cast<double>(spec.doc_length));
  }
}

TEST(DocumentTermTest, TopicWordsAreEnriched) {
  DocumentTermSpec spec;
  spec.num_documents = 150;
  spec.topic_sharpness = 0.8;
  spec.seed = 2;
  auto ds = MakeDocumentTerm(spec);
  ASSERT_TRUE(ds.ok());
  const auto topics = ds->GroundTruth("topicsA").value();
  // Documents of A-topic 0 use the first block-A words far more often than
  // documents of other A-topics.
  double in_topic = 0, out_topic = 0;
  size_t n_in = 0, n_out = 0;
  const size_t per_topic = spec.vocab_a / spec.topics_a;
  for (size_t i = 0; i < ds->num_objects(); ++i) {
    double mass = 0;
    for (size_t w = 0; w < per_topic; ++w) mass += ds->data().at(i, w);
    if (topics[i] == 0) {
      in_topic += mass;
      ++n_in;
    } else {
      out_topic += mass;
      ++n_out;
    }
  }
  ASSERT_GT(n_in, 0u);
  ASSERT_GT(n_out, 0u);
  EXPECT_GT(in_topic / n_in, 3.0 * (out_topic / n_out));
}

TEST(DocumentTermTest, InvalidSpecsRejected) {
  DocumentTermSpec spec;
  spec.topics_a = 0;
  EXPECT_FALSE(MakeDocumentTerm(spec).ok());
  spec = DocumentTermSpec();
  spec.vocab_a = 2;
  spec.topics_a = 3;
  EXPECT_FALSE(MakeDocumentTerm(spec).ok());
  spec = DocumentTermSpec();
  spec.topic_sharpness = 1.5;
  EXPECT_FALSE(MakeDocumentTerm(spec).ok());
}

TEST(JointDistributionTest, NormalisesAndValidates) {
  Matrix counts = Matrix::FromRows({{1, 3}, {0, 4}});
  auto joint = JointDistributionFromCounts(counts);
  ASSERT_TRUE(joint.ok());
  double total = 0;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) total += joint->at(i, j);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_FALSE(JointDistributionFromCounts(Matrix(2, 2)).ok());
  Matrix negative = Matrix::FromRows({{-1.0, 2.0}});
  EXPECT_FALSE(JointDistributionFromCounts(negative).ok());
}

// ---------------------------------------------------------------------
// Conditional information bottleneck.
TEST(CibTest, InformationHelpersSane) {
  DocumentTermSpec spec;
  spec.num_documents = 120;
  spec.seed = 3;
  auto ds = MakeDocumentTerm(spec);
  ASSERT_TRUE(ds.ok());
  const auto a = ds->GroundTruth("topicsA").value();
  const auto b = ds->GroundTruth("topicsB").value();
  // I(Y; A) > 0 since topics drive word usage.
  EXPECT_GT(FeatureInformation(ds->data(), a).value(), 0.05);
  // Conditioning on A itself kills the information: I(Y; A | A) = 0.
  EXPECT_NEAR(
      ConditionalFeatureInformation(ds->data(), a, a).value(), 0.0, 1e-9);
  // B still carries information about Y beyond A.
  EXPECT_GT(ConditionalFeatureInformation(ds->data(), b, a).value(), 0.05);
}

TEST(CibTest, FindsNovelTopicSystemGivenKnown) {
  DocumentTermSpec spec;
  spec.num_documents = 160;
  spec.seed = 4;
  auto ds = MakeDocumentTerm(spec);
  ASSERT_TRUE(ds.ok());
  const auto known = ds->GroundTruth("topicsA").value();
  const auto novel = ds->GroundTruth("topicsB").value();
  CibOptions opts;
  opts.k = 2;
  opts.seed = 4;
  auto r = RunCib(ds->data(), known, opts);
  ASSERT_TRUE(r.ok());
  const double to_novel =
      NormalizedMutualInformation(r->clustering.labels, novel).value();
  const double to_known =
      NormalizedMutualInformation(r->clustering.labels, known).value();
  EXPECT_GT(to_novel, to_known);
  EXPECT_GT(to_novel, 0.5);
}

TEST(CibTest, ObjectiveMatchesReportedValue) {
  DocumentTermSpec spec;
  spec.num_documents = 80;
  spec.seed = 5;
  auto ds = MakeDocumentTerm(spec);
  const auto known = ds->GroundTruth("topicsA").value();
  CibOptions opts;
  opts.k = 2;
  opts.seed = 5;
  auto r = RunCib(ds->data(), known, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->conditional_information,
              ConditionalFeatureInformation(ds->data(),
                                            r->clustering.labels, known)
                  .value(),
              1e-9);
}

TEST(CibTest, InvalidInputs) {
  CibOptions opts;
  EXPECT_FALSE(RunCib(Matrix(), {}, opts).ok());
  Matrix counts(4, 3);
  EXPECT_FALSE(RunCib(counts, {0, 0, 1}, opts).ok());  // size mismatch
  opts.k = 0;
  EXPECT_FALSE(RunCib(counts, {0, 0, 1, 1}, opts).ok());
  opts.k = 2;
  Matrix negative = Matrix::FromRows({{1, -2}, {0, 1}});
  EXPECT_FALSE(RunCib(negative, {0, 1}, opts).ok());
}

// ---------------------------------------------------------------------
// Disparate / dependent clustering.
TEST(DisparateTest, FindsOrthogonalPairOnFourSquares) {
  auto ds = MakeFourSquares(40, 10.0, 0.8, 6);
  DisparateOptions opts;
  opts.k1 = 2;
  opts.k2 = 2;
  opts.goal = ContingencyGoal::kDisparate;
  opts.lambda = 1.0;
  opts.restarts = 4;
  opts.seed = 6;
  auto r = RunDisparateClustering(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->solutions.size(), 2u);
  // The two solutions are near-independent...
  EXPECT_GT(r->solutions.Diversity().value(), 0.7);
  // ...and the contingency table is near uniform.
  EXPECT_LT(r->uniformity_deviation, 0.2);
  // They recover the two planted splits.
  auto match = MatchSolutionsToTruths(
      {ds->GroundTruth("horizontal").value(),
       ds->GroundTruth("vertical").value()},
      r->solutions.Labels());
  EXPECT_GT(match->mean_recovery, 0.8);
}

TEST(DisparateTest, DependentModeAlignsSolutions) {
  auto ds = MakeFourSquares(40, 10.0, 0.8, 7);
  DisparateOptions opts;
  opts.k1 = 2;
  opts.k2 = 2;
  opts.goal = ContingencyGoal::kDependent;
  opts.lambda = 1.0;
  opts.restarts = 4;
  opts.seed = 7;
  auto r = RunDisparateClustering(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  // Dependent mode: the two clusterings coincide (NMI ~ 1 => diversity ~0).
  EXPECT_LT(r->solutions.Diversity().value(), 0.3);
}

TEST(DisparateTest, InvalidOptions) {
  DisparateOptions opts;
  opts.k1 = 0;
  EXPECT_FALSE(RunDisparateClustering(Matrix(10, 2), opts).ok());
  opts.k1 = 2;
  opts.lambda = -1;
  EXPECT_FALSE(RunDisparateClustering(Matrix(10, 2), opts).ok());
}

// ---------------------------------------------------------------------
// DOC.
TEST(DocTest, QualityFunction) {
  EXPECT_DOUBLE_EQ(DocQuality(10, 0, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(DocQuality(10, 2, 0.25), 160.0);
  // Higher dimensionality compensates smaller support (beta trade-off).
  EXPECT_GT(DocQuality(5, 3, 0.25), DocQuality(20, 1, 0.25));
}

TEST(DocTest, FindsPlantedProjectedClusters) {
  std::vector<ViewSpec> views(1);
  views[0] = {3, 3, 12.0, 0.5, ""};
  auto ds = MakeMultiView(240, views, 3, 8);
  ASSERT_TRUE(ds.ok());
  DocOptions opts;
  opts.k = 3;
  opts.w = 2.0;
  opts.seed = 8;
  opts.outer_trials = 40;
  auto r = RunDoc(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->clusters.size(), 0u);
  // Found clusters should use mostly the 3 structured dims, not the noise.
  size_t structured = 0, noisy = 0;
  for (const auto& c : r->clusters) {
    for (size_t d : c.dims) {
      if (d < 3) {
        ++structured;
      } else {
        ++noisy;
      }
    }
  }
  EXPECT_GT(structured, noisy);
  // F1 of the discovered clusters against the planted view.
  EXPECT_GT(SubspacePairF1(*r, ds->GroundTruth("view0").value()).value(),
            0.4);
}

TEST(DocTest, RoundsRemoveObjects) {
  std::vector<ViewSpec> views(1);
  views[0] = {2, 2, 10.0, 0.5, ""};
  auto ds = MakeMultiView(120, views, 0, 9);
  DocOptions opts;
  opts.k = 2;
  opts.w = 2.0;
  opts.seed = 9;
  auto r = RunDoc(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  // Clusters from successive rounds are disjoint.
  std::set<int> seen;
  for (const auto& c : r->clusters) {
    for (int obj : c.objects) {
      EXPECT_TRUE(seen.insert(obj).second) << "object in two DOC clusters";
    }
  }
}

TEST(DocTest, InvalidOptions) {
  DocOptions opts;
  opts.w = 0;
  EXPECT_FALSE(RunDoc(Matrix(10, 2), opts).ok());
  opts.w = 1;
  opts.beta = 0.9;
  EXPECT_FALSE(RunDoc(Matrix(10, 2), opts).ok());
}

// ---------------------------------------------------------------------
// ORCLUS.
TEST(OrclusTest, ProjectedDistance) {
  // Basis = x axis only: distance ignores y.
  Matrix basis(2, 1);
  basis.at(0, 0) = 1.0;
  EXPECT_DOUBLE_EQ(
      ProjectedSquaredDistance({3, 100}, {0, 0}, basis), 9.0);
}

TEST(OrclusTest, RecoversOrientedClusters) {
  // Two elongated clusters along the diagonal directions — axis-parallel
  // methods see heavy overlap, oriented subspaces separate them.
  Rng rng(10);
  const size_t per = 80;
  Matrix data(2 * per, 2);
  std::vector<int> truth(2 * per);
  for (size_t i = 0; i < per; ++i) {
    const double t = rng.Gaussian(0, 4.0);
    const double s = rng.Gaussian(0, 0.25);
    // Cluster 0 along (1, 1), offset up-left.
    data.at(i, 0) = t + s - 2.0;
    data.at(i, 1) = t - s + 2.0;
    truth[i] = 0;
    // Cluster 1 along (1, 1), offset down-right.
    const double t2 = rng.Gaussian(0, 4.0);
    const double s2 = rng.Gaussian(0, 0.25);
    data.at(per + i, 0) = t2 + s2 + 2.0;
    data.at(per + i, 1) = t2 - s2 - 2.0;
    truth[per + i] = 1;
  }
  OrclusOptions opts;
  opts.k = 2;
  opts.l = 1;
  opts.seed = 10;
  auto r = RunOrclus(data, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(AdjustedRandIndex(r->clustering.labels, truth).value(), 0.9);
  // The oriented 1-D subspace of each cluster is (anti-)diagonal: basis
  // vector components have similar magnitude.
  for (const auto& sub : r->subspaces) {
    const double a = std::fabs(sub.basis.at(0, 0));
    const double b = std::fabs(sub.basis.at(1, 0));
    EXPECT_NEAR(a, b, 0.25);
  }
}

TEST(OrclusTest, BeatsAxisParallelOnOrientedData) {
  Rng rng(11);
  const size_t per = 70;
  Matrix data(2 * per, 3);
  std::vector<int> truth(2 * per);
  for (size_t i = 0; i < 2 * per; ++i) {
    const bool second = i >= per;
    const double t = rng.Gaussian(0, 4.0);
    const double s = rng.Gaussian(0, 0.3);
    data.at(i, 0) = t + (second ? 2.5 : -2.5);
    data.at(i, 1) = t + s + (second ? -2.5 : 2.5);
    data.at(i, 2) = rng.Gaussian(0, 2.0);  // irrelevant dim
    truth[i] = second ? 1 : 0;
  }
  OrclusOptions oo;
  oo.k = 2;
  oo.l = 1;
  oo.seed = 11;
  auto orclus = RunOrclus(data, oo);
  ASSERT_TRUE(orclus.ok());
  ProclusOptions po;
  po.k = 2;
  po.avg_dims = 2;
  po.seed = 11;
  auto proclus = RunProclus(data, po);
  ASSERT_TRUE(proclus.ok());
  const double ari_orclus =
      AdjustedRandIndex(orclus->clustering.labels, truth).value();
  const double ari_proclus =
      AdjustedRandIndex(proclus->clustering.labels, truth).value();
  EXPECT_GT(ari_orclus, ari_proclus);
  EXPECT_GT(ari_orclus, 0.8);
}

TEST(OrclusTest, InvalidOptions) {
  OrclusOptions opts;
  opts.k = 0;
  EXPECT_FALSE(RunOrclus(Matrix(10, 3), opts).ok());
  opts.k = 2;
  opts.l = 5;
  EXPECT_FALSE(RunOrclus(Matrix(10, 3), opts).ok());
}

// ---------------------------------------------------------------------
// Multiple spectral views (mSC).
TEST(MscTest, SeparatesIndependentViews) {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 12.0, 0.8, ""};
  views[1] = {2, 2, 12.0, 0.8, ""};
  auto ds = MakeMultiView(160, views, 0, 12);
  ASSERT_TRUE(ds.ok());
  MscOptions opts;
  opts.num_views = 2;
  opts.k = 2;
  opts.seed = 12;
  auto r = RunMultipleSpectralViews(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->views.size(), 2u);
  // The dimension partition matches the planted blocks {0,1} / {2,3}.
  std::set<std::set<size_t>> found;
  for (const auto& v : r->views) {
    found.insert(std::set<size_t>(v.dims.begin(), v.dims.end()));
  }
  EXPECT_TRUE(found.count({0, 1}));
  EXPECT_TRUE(found.count({2, 3}));
  // Each view's clustering matches one planted truth.
  auto match = MatchSolutionsToTruths(
      {ds->GroundTruth("view0").value(), ds->GroundTruth("view1").value()},
      r->solutions.Labels());
  EXPECT_GT(match->mean_recovery, 0.9);
}

TEST(MscTest, DependenceMatrixIsSymmetricNonNegative) {
  auto ds = MakeUniformCube(60, 4, 13);
  MscOptions opts;
  opts.num_views = 2;
  opts.k = 2;
  auto r = RunMultipleSpectralViews(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      EXPECT_GE(r->dim_dependence.at(a, b), 0.0);
      EXPECT_NEAR(r->dim_dependence.at(a, b), r->dim_dependence.at(b, a),
                  1e-12);
    }
  }
}

TEST(MscTest, InvalidOptions) {
  MscOptions opts;
  opts.num_views = 0;
  EXPECT_FALSE(RunMultipleSpectralViews(Matrix(10, 3), opts).ok());
  opts.num_views = 5;
  EXPECT_FALSE(RunMultipleSpectralViews(Matrix(10, 3), opts).ok());
}

// ---------------------------------------------------------------------
// Discovery pipeline.
TEST(PipelineTest, SelectKBySilhouette) {
  auto ds = MakeBlobs({{{0, 0}, 0.5, 40},
                       {{8, 0}, 0.5, 40},
                       {{0, 8}, 0.5, 40}},
                      14);
  auto k = SelectKBySilhouette(ds->data(), 6, 14);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(*k, 3u);
}

// The per-k loop SelectKBySilhouette ran before it scored all candidates
// in one Silhouettes pass: k-means for one k, then its silhouette (the
// serial oracle loop), then the next k. Counts the failed silhouettes.
size_t PerKSelectK(const Matrix& data, size_t max_k, uint64_t seed,
                   size_t* failed) {
  size_t best_k = 2;
  double best_score = -2.0;
  for (size_t k = 2; k <= max_k && k < data.rows(); ++k) {
    KMeansOptions opts;
    opts.k = k;
    opts.restarts = 5;
    opts.seed = seed + k;
    const Clustering c = RunKMeans(data, opts).value();
    const Result<double> sil = test::SerialSilhouette(data, c.labels);
    if (!sil.ok()) {
      ++*failed;
      continue;
    }
    if (*sil > best_score) {
      best_score = *sil;
      best_k = k;
    }
  }
  return best_k;
}

TEST(PipelineTest, SelectKBySilhouetteMatchesPerKLoop) {
  std::vector<ViewSpec> views(2);
  views[0] = {3, 4, 6.0, 1.0, ""};
  views[1] = {2, 3, 6.0, 1.0, ""};
  for (const uint64_t seed : {3u, 8u, 21u, 40u}) {
    const Matrix data = MakeMultiView(150 + 10 * seed, views, 1, seed)
                            ->data();
    for (const size_t max_k : {2u, 3u, 5u, 8u}) {
      size_t failed = 0;
      const auto k = SelectKBySilhouette(data, max_k, seed);
      ASSERT_TRUE(k.ok()) << k.status().ToString();
      EXPECT_EQ(*k, PerKSelectK(data, max_k, seed, &failed))
          << "seed=" << seed << " max_k=" << max_k;
    }
  }
  // Identical rows: every candidate's k-means finds one cluster, so every
  // silhouette fails and both loops fall back to k = 2.
  const Matrix same(7, 2, 1.5);
  size_t failed = 0;
  const size_t want = PerKSelectK(same, 5, 1, &failed);
  EXPECT_EQ(failed, 4u);
  const auto k = SelectKBySilhouette(same, 5, 1);
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_EQ(*k, want);
}

TEST(PipelineTest, DiscoversBothSquareSplits) {
  auto ds = MakeFourSquares(40, 10.0, 0.8, 15);
  DiscoveryOptions opts;
  opts.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  opts.num_solutions = 2;
  opts.k = 2;
  opts.seed = 15;
  auto r = DiscoverMultipleClusterings(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->chosen_k, 2u);
  EXPECT_EQ(r->strategy_name, "dec-kmeans");
  ASSERT_EQ(r->solutions.size(), 2u);
  EXPECT_GT(r->objective.mean_dissimilarity, 0.7);
  auto match = MatchSolutionsToTruths(
      {ds->GroundTruth("horizontal").value(),
       ds->GroundTruth("vertical").value()},
      r->solutions.Labels());
  EXPECT_GT(match->mean_recovery, 0.8);
}

TEST(PipelineTest, AllStrategiesRun) {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 14.0, 0.8, ""};
  views[1] = {2, 2, 9.0, 0.8, ""};
  auto ds = MakeMultiView(120, views, 0, 16);
  for (DiscoveryStrategy strategy :
       {DiscoveryStrategy::kDecorrelatedKMeans,
        DiscoveryStrategy::kOrthogonalProjections,
        DiscoveryStrategy::kSpectralViews,
        DiscoveryStrategy::kMetaClustering}) {
    DiscoveryOptions opts;
    opts.strategy = strategy;
    opts.num_solutions = 2;
    opts.k = 2;
    opts.seed = 16;
    auto r = DiscoverMultipleClusterings(ds->data(), opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r->solutions.size(), 1u);
    EXPECT_FALSE(r->strategy_name.empty());
  }
}

TEST(PipelineTest, RejectsDegenerateRequests) {
  DiscoveryOptions opts;
  opts.num_solutions = 1;
  EXPECT_FALSE(DiscoverMultipleClusterings(Matrix(10, 2), opts).ok());
  opts.num_solutions = 2;
  EXPECT_FALSE(DiscoverMultipleClusterings(Matrix(), opts).ok());
}

}  // namespace
}  // namespace multiclust
