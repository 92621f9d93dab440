#include <gtest/gtest.h>

#include <cstring>

#include "cluster/clustering.h"
#include "cluster/dbscan.h"
#include "cluster/gmm.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/rng.h"
#include "data/generators.h"
#include "metrics/clustering_quality.h"
#include "metrics/partition_similarity.h"

namespace multiclust {
namespace {

Matrix ThreeBlobs(uint64_t seed, size_t per = 50) {
  auto ds = MakeBlobs(
      {{{0, 0}, 0.5, per}, {{10, 0}, 0.5, per}, {{0, 10}, 0.5, per}}, seed);
  return ds->data();
}

std::vector<int> ThreeBlobTruth(size_t per = 50) {
  std::vector<int> t;
  for (int c = 0; c < 3; ++c) t.insert(t.end(), per, c);
  return t;
}

TEST(ClusteringTest, NumClustersAndMembers) {
  Clustering c;
  c.labels = {0, 0, 2, -1, 2};
  EXPECT_EQ(c.NumClusters(), 2u);
  const auto members = c.ClusterMembers();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(members[1], (std::vector<int>{2, 4}));
}

TEST(ClusteringTest, CanonicalizeDensifies) {
  Clustering c;
  c.labels = {7, 7, 3, -1};
  c.Canonicalize();
  EXPECT_EQ(c.labels, (std::vector<int>{0, 0, 1, -1}));
}

TEST(AssignToNearestTest, Basic) {
  const Matrix data = Matrix::FromRows({{0, 0}, {9, 9}});
  const Matrix centers = Matrix::FromRows({{1, 1}, {10, 10}});
  EXPECT_EQ(AssignToNearest(data, centers), (std::vector<int>{0, 1}));
  EXPECT_EQ(AssignToNearest(data, Matrix()), (std::vector<int>{-1, -1}));
}

// SumByCluster and TakeMeans against a plain scalar loop, bit for bit:
// noise rows are skipped, an empty cluster keeps count 0 and a zero row,
// and d = 7 runs Add's scalar tail while d = 4 does not.
TEST(SumByClusterTest, MatchesScalarLoopBitwise) {
  for (const size_t d : {size_t{4}, size_t{7}}) {
    SCOPED_TRACE(d);
    const size_t n = 41;
    const size_t k = 4;  // cluster 3 stays empty
    Rng rng(17 + d);
    Matrix data(n, d);
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) {
      // Rows alternate six decades in magnitude, so another addition order
      // would round differently.
      for (size_t j = 0; j < d; ++j) {
        data.at(i, j) = rng.Uniform(-1.0, 1.0) * (i % 2 == 0 ? 1e6 : 1.0);
      }
      labels[i] = i % 5 == 0 ? -1 : static_cast<int>(i % 3);
    }
    std::vector<size_t> counts(k, 0);
    Matrix sums(k, d);
    for (size_t i = 0; i < n; ++i) {
      if (labels[i] < 0) continue;
      ++counts[labels[i]];
      for (size_t j = 0; j < d; ++j) sums.at(labels[i], j) += data.at(i, j);
    }

    ClusterSums cs = SumByCluster(data, labels, k);
    EXPECT_EQ(cs.counts, counts);
    EXPECT_EQ(cs.counts[3], 0u);
    ASSERT_EQ(cs.sums.rows(), k);
    EXPECT_EQ(std::memcmp(cs.sums.row_data(0), sums.row_data(0),
                          k * d * sizeof(double)),
              0);

    const Matrix means = cs.TakeMeans();
    EXPECT_EQ(cs.sums.rows(), 0u);
    ASSERT_EQ(means.rows(), k);
    ASSERT_EQ(means.cols(), d);
    for (size_t c = 0; c < k; ++c) {
      for (size_t j = 0; j < d; ++j) {
        const double want =
            counts[c] == 0 ? 0.0
                           : sums.at(c, j) / static_cast<double>(counts[c]);
        const double got = means.at(c, j);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
            << "c=" << c << " j=" << j;
      }
    }
  }
}

TEST(KMeansTest, RecoversBlobs) {
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 5;
  opts.seed = 1;
  auto c = RunKMeans(ThreeBlobs(1), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 3u);
  EXPECT_GT(AdjustedRandIndex(c->labels, ThreeBlobTruth()).value(), 0.99);
  EXPECT_EQ(c->centroids.rows(), 3u);
  EXPECT_GT(c->quality, 0.0);
}

TEST(KMeansTest, RestartsNeverHurt) {
  const Matrix data = ThreeBlobs(2);
  KMeansOptions one;
  one.k = 3;
  one.restarts = 1;
  one.plus_plus_init = false;
  one.seed = 7;
  KMeansOptions many = one;
  many.restarts = 10;
  const double sse1 = RunKMeans(data, one)->quality;
  const double sse10 = RunKMeans(data, many)->quality;
  EXPECT_LE(sse10, sse1 + 1e-9);
}

TEST(KMeansTest, SseDecreasesWithK) {
  const Matrix data = ThreeBlobs(3);
  double prev = 1e300;
  for (size_t k = 1; k <= 5; ++k) {
    KMeansOptions opts;
    opts.k = k;
    opts.restarts = 5;
    opts.seed = 11;
    const double sse = RunKMeans(data, opts)->quality;
    EXPECT_LE(sse, prev + 1e-6) << "k=" << k;
    prev = sse;
  }
}

TEST(KMeansTest, InvalidArguments) {
  KMeansOptions opts;
  opts.k = 0;
  EXPECT_FALSE(RunKMeans(Matrix(5, 2), opts).ok());
  opts.k = 10;
  EXPECT_FALSE(RunKMeans(Matrix(5, 2), opts).ok());
}

TEST(KMeansTest, DeterministicForSeed) {
  const Matrix data = ThreeBlobs(4);
  KMeansOptions opts;
  opts.k = 3;
  opts.seed = 42;
  auto a = RunKMeans(data, opts);
  auto b = RunKMeans(data, opts);
  EXPECT_EQ(a->labels, b->labels);
}

TEST(KMeansTest, ClustererAdapter) {
  KMeansOptions opts;
  opts.k = 3;
  opts.seed = 5;
  KMeansClusterer clusterer(opts);
  EXPECT_EQ(clusterer.name(), "kmeans");
  auto c = clusterer.Cluster(ThreeBlobs(5));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 3u);
}

TEST(GmmTest, RecoversBlobs) {
  GmmOptions opts;
  opts.k = 3;
  opts.restarts = 3;
  opts.seed = 6;
  auto c = RunGmm(ThreeBlobs(6), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(AdjustedRandIndex(c->labels, ThreeBlobTruth()).value(), 0.99);
}

TEST(GmmTest, EmIncreasesLikelihood) {
  const Matrix data = ThreeBlobs(7);
  auto model = InitGmm(data, 3, CovarianceType::kDiagonal, 7);
  ASSERT_TRUE(model.ok());
  double prev = -1e300;
  for (int iter = 0; iter < 10; ++iter) {
    // EmStep returns the log-likelihood *before* the parameter update; the
    // EM guarantee is that this sequence is non-decreasing.
    auto ll = EmStep(data, 1e-6, &model.value());
    ASSERT_TRUE(ll.ok());
    EXPECT_GE(*ll, prev - 1e-6);
    prev = *ll;
  }
}

TEST(GmmTest, ResponsibilitiesSumToOne) {
  const Matrix data = ThreeBlobs(8);
  GmmOptions opts;
  opts.k = 3;
  opts.seed = 8;
  auto model = FitGmm(data, opts);
  ASSERT_TRUE(model.ok());
  for (size_t i = 0; i < 10; ++i) {
    const auto r = model->Responsibilities(data.Row(i));
    double sum = 0;
    for (double x : r) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(GmmTest, SphericalCovarianceSupported) {
  GmmOptions opts;
  opts.k = 3;
  opts.covariance = CovarianceType::kSpherical;
  opts.seed = 9;
  auto model = FitGmm(ThreeBlobs(9), opts);
  ASSERT_TRUE(model.ok());
  for (const auto& comp : model->components) {
    EXPECT_EQ(comp.variances.size(), 1u);
  }
}

TEST(GmmTest, WeightsSumToOne) {
  GmmOptions opts;
  opts.k = 4;
  opts.seed = 10;
  auto model = FitGmm(ThreeBlobs(10), opts);
  ASSERT_TRUE(model.ok());
  double sum = 0;
  for (const auto& c : model->components) sum += c.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(DbscanTest, RecoversBlobsWithNoiseLabel) {
  auto ds = MakeBlobs({{{0, 0}, 0.3, 60}, {{10, 10}, 0.3, 60}}, 11);
  DbscanOptions opts;
  opts.eps = 1.0;
  opts.min_pts = 4;
  auto c = RunDbscan(ds->data(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 2u);
  EXPECT_GT(AdjustedRandIndex(c->labels, ds->GroundTruth("labels").value())
                .value(),
            0.99);
}

TEST(DbscanTest, RingsAreNonConvexClusters) {
  auto ds = MakeTwoRings(250, 2.0, 6.0, 0.1, 12);
  DbscanOptions opts;
  opts.eps = 1.2;
  opts.min_pts = 4;
  auto c = RunDbscan(ds->data(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(AdjustedRandIndex(c->labels, ds->GroundTruth("rings").value())
                .value(),
            0.95);
}

TEST(DbscanTest, AllNoiseWhenEpsTiny) {
  auto ds = MakeUniformCube(60, 2, 13);
  DbscanOptions opts;
  opts.eps = 1e-6;
  opts.min_pts = 3;
  auto c = RunDbscan(ds->data(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 0u);
  EXPECT_DOUBLE_EQ(NoiseFraction(c->labels), 1.0);
}

TEST(DbscanTest, InvalidOptions) {
  DbscanOptions opts;
  opts.eps = -1;
  EXPECT_FALSE(RunDbscan(Matrix(3, 1), opts).ok());
  opts.eps = 1;
  opts.min_pts = 0;
  EXPECT_FALSE(RunDbscan(Matrix(3, 1), opts).ok());
}

TEST(HierarchicalTest, FlatCutRecoversBlobs) {
  AgglomerativeOptions opts;
  opts.k = 3;
  opts.linkage = Linkage::kAverage;
  auto r = RunAgglomerative(ThreeBlobs(14, 30), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->flat.NumClusters(), 3u);
  EXPECT_GT(
      AdjustedRandIndex(r->flat.labels, ThreeBlobTruth(30)).value(), 0.99);
  EXPECT_EQ(r->merges.size(), 89u);  // n-1 merges
}

TEST(HierarchicalTest, SingleLinkChainsRings) {
  auto ds = MakeTwoRings(80, 2.0, 6.0, 0.05, 15);
  AgglomerativeOptions opts;
  opts.k = 2;
  opts.linkage = Linkage::kSingle;
  auto r = RunAgglomerative(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(AdjustedRandIndex(r->flat.labels,
                              ds->GroundTruth("rings").value())
                .value(),
            0.95);
}

TEST(HierarchicalTest, MergeDistancesNonDecreasingCompleteLink) {
  AgglomerativeOptions opts;
  opts.k = 1;
  opts.linkage = Linkage::kComplete;
  auto r = RunAgglomerative(ThreeBlobs(16, 15), opts);
  ASSERT_TRUE(r.ok());
  // Complete link is monotone: merge distances never decrease.
  for (size_t i = 1; i < r->merges.size(); ++i) {
    EXPECT_GE(r->merges[i].distance, r->merges[i - 1].distance - 1e-9);
  }
}

TEST(HierarchicalTest, InvalidK) {
  AgglomerativeOptions opts;
  opts.k = 0;
  EXPECT_FALSE(RunAgglomerative(Matrix(3, 1), opts).ok());
  opts.k = 10;
  EXPECT_FALSE(RunAgglomerative(Matrix(3, 1), opts).ok());
}

TEST(SpectralTest, RecoversRings) {
  auto ds = MakeTwoRings(100, 1.5, 6.0, 0.08, 17);
  SpectralOptions opts;
  opts.k = 2;
  opts.gamma = 2.0;
  opts.seed = 17;
  auto c = RunSpectral(ds->data(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(AdjustedRandIndex(c->labels, ds->GroundTruth("rings").value())
                .value(),
            0.9);
}

TEST(SpectralTest, RecoversBlobs) {
  SpectralOptions opts;
  opts.k = 3;
  opts.seed = 18;
  auto c = RunSpectral(ThreeBlobs(18, 40), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(AdjustedRandIndex(c->labels, ThreeBlobTruth(40)).value(), 0.99);
}

TEST(SpectralTest, InvalidK) {
  SpectralOptions opts;
  opts.k = 0;
  EXPECT_FALSE(RunSpectral(Matrix(5, 2), opts).ok());
}

}  // namespace
}  // namespace multiclust
