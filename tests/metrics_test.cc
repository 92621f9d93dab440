#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "metrics/clustering_quality.h"
#include "metrics/multi_solution.h"
#include "metrics/partition_similarity.h"
#include "support/silhouette_oracle.h"

namespace multiclust {
namespace {

const std::vector<int> kA = {0, 0, 0, 1, 1, 1};
const std::vector<int> kSame = {2, 2, 2, 5, 5, 5};      // kA relabeled
const std::vector<int> kCrossed = {0, 1, 0, 1, 0, 1};   // independent-ish

TEST(RandIndexTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(RandIndex(kA, kA).value(), 1.0);
  EXPECT_DOUBLE_EQ(RandIndex(kA, kSame).value(), 1.0);
}

TEST(RandIndexTest, KnownValue) {
  // a = {0,0,1,1}, b = {0,1,1,1}: pairs: (01):same-a diff-b, (23),(13),(12):
  // b same; agreements: (23) same-same, (02),(03) diff-diff => R = 3/6.
  EXPECT_NEAR(RandIndex({0, 0, 1, 1}, {0, 1, 1, 1}).value(), 0.5, 1e-12);
}

TEST(AdjustedRandTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(kA, kSame).value(), 1.0);
}

TEST(AdjustedRandTest, CrossedNearZero) {
  EXPECT_NEAR(AdjustedRandIndex(kA, kCrossed).value(), 0.0, 0.2);
}

TEST(AdjustedRandTest, LargeRandomIndependentNearZero) {
  Rng rng(1);
  std::vector<int> a(600), b(600);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<int>(rng.NextIndex(3));
    b[i] = static_cast<int>(rng.NextIndex(4));
  }
  EXPECT_NEAR(AdjustedRandIndex(a, b).value(), 0.0, 0.05);
}

TEST(JaccardTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(JaccardIndex(kA, kSame).value(), 1.0);
}

TEST(JaccardTest, BoundedByRand) {
  // Jaccard ignores the same_neither pairs, so it's <= Rand here.
  EXPECT_LE(JaccardIndex(kA, kCrossed).value(),
            RandIndex(kA, kCrossed).value());
}

TEST(FowlkesMallowsTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(FowlkesMallows(kA, kSame).value(), 1.0);
}

TEST(PairF1Test, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(PairF1(kA, kSame).value(), 1.0);
}

TEST(NmiTest, IdenticalIsOne) {
  for (NmiNorm norm : {NmiNorm::kMax, NmiNorm::kMin, NmiNorm::kSqrt,
                       NmiNorm::kSum}) {
    EXPECT_NEAR(NormalizedMutualInformation(kA, kSame, norm).value(), 1.0,
                1e-12);
  }
}

TEST(NmiTest, IndependentIsZero) {
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 1, 0, 1};
  EXPECT_NEAR(NormalizedMutualInformation(a, b).value(), 0.0, 1e-12);
}

TEST(NmiTest, TrivialPartitionConvention) {
  const std::vector<int> one_cluster = {0, 0, 0, 0};
  // One trivial, one informative: NMI 0.
  EXPECT_DOUBLE_EQ(
      NormalizedMutualInformation(one_cluster, {0, 1, 0, 1}).value(), 0.0);
  // Both trivial: identical by convention.
  EXPECT_DOUBLE_EQ(
      NormalizedMutualInformation(one_cluster, one_cluster).value(), 1.0);
}

TEST(ViTest, ZeroForIdentical) {
  EXPECT_NEAR(VariationOfInformation(kA, kSame).value(), 0.0, 1e-12);
}

TEST(ViTest, SymmetricAndPositive) {
  const double ab = VariationOfInformation(kA, kCrossed).value();
  const double ba = VariationOfInformation(kCrossed, kA).value();
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_GT(ab, 0.0);
}

TEST(ViTest, TriangleInequality) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  const std::vector<int> b = {0, 1, 1, 2, 2, 0};
  const std::vector<int> c = {1, 1, 0, 0, 2, 2};
  const double ab = VariationOfInformation(a, b).value();
  const double bc = VariationOfInformation(b, c).value();
  const double ac = VariationOfInformation(a, c).value();
  EXPECT_LE(ac, ab + bc + 1e-12);
}

TEST(DissimilarityTest, ZeroForIdenticalOneForIndependent) {
  EXPECT_NEAR(ClusteringDissimilarity(kA, kSame).value(), 0.0, 1e-12);
  EXPECT_NEAR(
      ClusteringDissimilarity({0, 0, 1, 1}, {0, 1, 0, 1}).value(), 1.0,
      1e-12);
}

class LabelPermutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LabelPermutationTest, MeasuresInvariantUnderRelabeling) {
  Rng rng(GetParam());
  const size_t n = 60;
  std::vector<int> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int>(rng.NextIndex(4));
    b[i] = static_cast<int>(rng.NextIndex(3));
  }
  // Permute the label names of a.
  const std::vector<int> rename = {3, 0, 2, 1};
  std::vector<int> a_renamed(n);
  for (size_t i = 0; i < n; ++i) a_renamed[i] = rename[a[i]];

  EXPECT_NEAR(RandIndex(a, b).value(), RandIndex(a_renamed, b).value(),
              1e-12);
  EXPECT_NEAR(AdjustedRandIndex(a, b).value(),
              AdjustedRandIndex(a_renamed, b).value(), 1e-12);
  EXPECT_NEAR(NormalizedMutualInformation(a, b).value(),
              NormalizedMutualInformation(a_renamed, b).value(), 1e-12);
  EXPECT_NEAR(VariationOfInformation(a, b).value(),
              VariationOfInformation(a_renamed, b).value(), 1e-12);
  EXPECT_NEAR(BestMatchAccuracy(a, b).value(),
              BestMatchAccuracy(a_renamed, b).value(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelPermutationTest,
                         ::testing::Values(11, 22, 33, 44, 55));

class MeasureRangeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MeasureRangeTest, AllMeasuresInRange) {
  Rng rng(GetParam());
  const size_t n = 40;
  std::vector<int> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int>(rng.NextIndex(5));
    b[i] = static_cast<int>(rng.NextIndex(2));
  }
  const double rand = RandIndex(a, b).value();
  EXPECT_GE(rand, 0.0);
  EXPECT_LE(rand, 1.0);
  const double jac = JaccardIndex(a, b).value();
  EXPECT_GE(jac, 0.0);
  EXPECT_LE(jac, 1.0);
  const double nmi = NormalizedMutualInformation(a, b).value();
  EXPECT_GE(nmi, 0.0);
  EXPECT_LE(nmi, 1.0);
  const double ari = AdjustedRandIndex(a, b).value();
  EXPECT_GE(ari, -1.0);
  EXPECT_LE(ari, 1.0);
  const double acc = BestMatchAccuracy(a, b).value();
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  const double f1 = PairF1(a, b).value();
  EXPECT_GE(f1, 0.0);
  EXPECT_LE(f1, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeasureRangeTest,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

TEST(HungarianTest, SolvesKnownAssignment) {
  const std::vector<std::vector<double>> cost = {
      {4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const std::vector<int> assign = HungarianAssign(cost);
  // Optimal: row0->col1 (1), row1->col0 (2), row2->col2 (2): total 5.
  EXPECT_EQ(assign[0], 1);
  EXPECT_EQ(assign[1], 0);
  EXPECT_EQ(assign[2], 2);
}

TEST(HungarianTest, RectangularPadded) {
  const std::vector<std::vector<double>> cost = {{5, 1}, {1, 5}, {2, 2}};
  const std::vector<int> assign = HungarianAssign(cost);
  // Only two columns; one row stays unassigned (-1).
  int unassigned = 0;
  for (int a : assign) unassigned += (a < 0);
  EXPECT_EQ(unassigned, 1);
  EXPECT_EQ(assign[0], 1);
  EXPECT_EQ(assign[1], 0);
}

TEST(BestMatchAccuracyTest, PerfectAndPermuted) {
  EXPECT_DOUBLE_EQ(BestMatchAccuracy(kA, kA).value(), 1.0);
  EXPECT_DOUBLE_EQ(BestMatchAccuracy(kA, kSame).value(), 1.0);
}

TEST(BestMatchAccuracyTest, KnownFraction) {
  // Truth {0,0,0,1,1,1}, predicted flips one object.
  EXPECT_NEAR(BestMatchAccuracy(kA, {0, 0, 1, 1, 1, 1}).value(), 5.0 / 6.0,
              1e-12);
}

TEST(SseTest, ZeroForCoincidentPoints) {
  const Matrix data = Matrix::FromRows({{1, 1}, {1, 1}, {5, 5}});
  EXPECT_NEAR(SumSquaredError(data, {0, 0, 1}).value(), 0.0, 1e-12);
}

TEST(SseTest, KnownValue) {
  const Matrix data = Matrix::FromRows({{0.0}, {2.0}});
  // Mean 1, SSE = 1 + 1 = 2.
  EXPECT_NEAR(SumSquaredError(data, {0, 0}).value(), 2.0, 1e-12);
}

TEST(SseTest, NoiseExcluded) {
  const Matrix data = Matrix::FromRows({{0.0}, {2.0}, {100.0}});
  EXPECT_NEAR(SumSquaredError(data, {0, 0, -1}).value(), 2.0, 1e-12);
}

TEST(SilhouetteTest, WellSeparatedNearOne) {
  const Matrix data = Matrix::FromRows(
      {{0, 0}, {0.1, 0}, {0, 0.1}, {10, 10}, {10.1, 10}, {10, 10.1}});
  const std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  EXPECT_GT(Silhouette(data, labels).value(), 0.9);
}

TEST(SilhouetteTest, BadPartitionLower) {
  const Matrix data = Matrix::FromRows(
      {{0, 0}, {0.1, 0}, {0, 0.1}, {10, 10}, {10.1, 10}, {10, 10.1}});
  const std::vector<int> good = {0, 0, 0, 1, 1, 1};
  const std::vector<int> bad = {0, 1, 0, 1, 0, 1};
  EXPECT_GT(Silhouette(data, good).value(), Silhouette(data, bad).value());
}

TEST(SilhouetteTest, RequiresTwoClusters) {
  const Matrix data = Matrix::FromRows({{0.0}, {1.0}});
  EXPECT_FALSE(Silhouette(data, {0, 0}).ok());
}

// A seeded random silhouette input: n in [2, 300] (up to two 256-row
// blocks, so up to three tiles), d from 1 to 17, 1-6 clusters under
// sparse, unsorted label ids, offset along the first coordinate.
// Depending on the seed it also has noise rows, singleton clusters and
// duplicated rows.
struct SilhouetteCase {
  Matrix data;
  std::vector<int> labels;
};

SilhouetteCase RandomSilhouetteCase(uint64_t seed) {
  Rng rng(seed);
  const size_t dims[] = {1, 2, 3, 6, 9, 17};
  const size_t n = 2 + rng.NextIndex(299);
  const size_t d = dims[rng.NextIndex(6)];
  const size_t k = 1 + rng.NextIndex(6);
  SilhouetteCase c{Matrix(n, d), std::vector<int>(n)};
  const double noise = seed % 3 == 0 ? 0.15 : 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t cluster = rng.NextIndex(k);
    c.labels[i] = rng.Uniform(0.0, 1.0) < noise
                      ? -1
                      : 1000 - 37 * static_cast<int>(cluster);
    for (size_t t = 0; t < d; ++t) c.data.at(i, t) = rng.Gaussian(0.0, 1.0);
    c.data.at(i, 0) += 1.5 * static_cast<double>(cluster);
  }
  if (seed % 4 == 1) {
    c.labels[n - 1] = 5000;  // singleton clusters
    c.labels[0] = 7000;
  }
  if (seed % 5 == 2) {
    for (size_t i = 0; i < n; i += 3) {  // duplicated rows
      const size_t src = rng.NextIndex(n);
      for (size_t t = 0; t < d; ++t) c.data.at(i, t) = c.data.at(src, t);
    }
  }
  return c;
}

// The vectorised, parallel Silhouette must reproduce the serial scalar
// loop it replaced bit for bit, and fail with the same status. Returns
// whether the serial loop produced a score.
bool ExpectSameAsSerial(const Matrix& data, const std::vector<int>& labels,
                        const std::string& what) {
  const Result<double> want = test::SerialSilhouette(data, labels);
  const Result<double> got = Silhouette(data, labels);
  EXPECT_EQ(got.ok(), want.ok()) << what;
  if (!want.ok() || !got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return want.ok();
  }
  const double g = *got, w = *want;
  EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0)
      << what << ": got " << g << " want " << w;
  return true;
}

TEST(SilhouetteTest, BitIdenticalToSerialLoopOnRandomInputs) {
  size_t scored = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    const SilhouetteCase c = RandomSilhouetteCase(seed);
    if (ExpectSameAsSerial(c.data, c.labels, "seed=" + std::to_string(seed))) {
      ++scored;
    }
  }
  EXPECT_GE(scored, 100u);
}

TEST(SilhouetteTest, BitIdenticalToSerialLoopOnEdgeCases) {
  const Matrix line = Matrix::FromRows({{0.0}, {1.0}, {3.0}, {7.0}, {8.0}});
  ExpectSameAsSerial(line, {-1, -1, -1, -1, -1}, "all noise");
  ExpectSameAsSerial(line, {4, 4, -1, 4, 4}, "one cluster");
  ExpectSameAsSerial(line, {0, 1, 2, 3, 4}, "all singletons");
  ExpectSameAsSerial(line, {9, 9, 3, -1, 3}, "singleton-free with noise");
  ExpectSameAsSerial(line, {0, 1}, "size mismatch");
  const Matrix same = Matrix::FromRows({{2.0, 2.0}, {2.0, 2.0}, {2.0, 2.0}});
  ExpectSameAsSerial(same, {0, 0, 1}, "duplicate rows, zero spread");
  const Matrix empty_cols(4, 0);
  ExpectSameAsSerial(empty_cols, {0, 0, 1, 1}, "zero columns");
}

// One Silhouettes pass scores each labelling exactly as its own serial
// loop would, statuses included: every case's data under its own labels,
// the labels of the next seeds cut or padded to the same n, a one-cluster
// labelling, an all-noise one and a wrong-sized one.
TEST(SilhouetteTest, SilhouettesScoreEachLabellingAsItsOwnCall) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const SilhouetteCase c = RandomSilhouetteCase(seed);
    const size_t n = c.data.rows();
    std::vector<std::vector<int>> labellings = {c.labels};
    for (uint64_t other = seed + 1; other <= seed + 4; ++other) {
      std::vector<int> l = RandomSilhouetteCase(other).labels;
      l.resize(n, 3);
      labellings.push_back(std::move(l));
    }
    labellings.push_back(std::vector<int>(n, 2));
    labellings.push_back(std::vector<int>(n, -1));
    labellings.push_back(std::vector<int>(n + 1, 0));
    const std::vector<Result<double>> got =
        Silhouettes(c.data, labellings).value();
    ASSERT_EQ(got.size(), labellings.size());
    for (size_t l = 0; l < labellings.size(); ++l) {
      const Result<double> want = test::SerialSilhouette(c.data, labellings[l]);
      const std::string what =
          "seed=" + std::to_string(seed) + " l=" + std::to_string(l);
      ASSERT_EQ(got[l].ok(), want.ok()) << what;
      if (!want.ok()) {
        EXPECT_EQ(got[l].status().code(), want.status().code()) << what;
        EXPECT_EQ(got[l].status().message(), want.status().message()) << what;
        continue;
      }
      const double g = *got[l], w = *want;
      EXPECT_EQ(std::memcmp(&g, &w, sizeof(double)), 0) << what;
    }
  }
  EXPECT_TRUE(Silhouettes(Matrix(3, 1), {}).value().empty());
}

TEST(DunnTest, SeparationRaisesDunn) {
  const Matrix tight = Matrix::FromRows({{0, 0}, {1, 0}, {10, 0}, {11, 0}});
  const Matrix loose = Matrix::FromRows({{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_GT(DunnIndex(tight, labels).value(),
            DunnIndex(loose, labels).value());
}

TEST(DunnTest, TrippedTokenReturnsCancelled) {
  const Matrix data = Matrix::FromRows({{0, 0}, {1, 0}, {10, 0}, {11, 0}});
  const std::vector<int> labels = {0, 0, 1, 1};
  CancelToken cancel;
  // An unset token leaves the value's bits alone.
  const double plain = DunnIndex(data, labels).value();
  const double polled = DunnIndex(data, labels, &cancel).value();
  EXPECT_EQ(std::memcmp(&plain, &polled, sizeof(double)), 0);
  cancel.Cancel();
  EXPECT_EQ(DunnIndex(data, labels, &cancel).status().code(),
            StatusCode::kCancelled);
}

TEST(ClusterMeansTest, ComputesMeans) {
  const Matrix data = Matrix::FromRows({{0, 0}, {2, 2}, {10, 10}});
  auto means = ClusterMeans(data, {0, 0, 1});
  ASSERT_TRUE(means.ok());
  EXPECT_DOUBLE_EQ(means->at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(means->at(1, 1), 10.0);
  // Non-dense labels: ids are densified in order of first appearance
  // (5 -> 0, 2 -> 1) and the noise row is left out.
  const Matrix sparse = Matrix::FromRows({{1, 3}, {100, 100}, {7, 8}, {2, 6}});
  auto dense = ClusterMeans(sparse, {5, -1, 2, 5});
  ASSERT_TRUE(dense.ok());
  ASSERT_EQ(dense->rows(), 2u);
  EXPECT_DOUBLE_EQ(dense->at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(dense->at(0, 1), 4.5);
  EXPECT_DOUBLE_EQ(dense->at(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(dense->at(1, 1), 8.0);
}

TEST(NoiseFractionTest, Basic) {
  EXPECT_DOUBLE_EQ(NoiseFraction({0, -1, 1, -1}), 0.5);
  EXPECT_DOUBLE_EQ(NoiseFraction({}), 0.0);
  EXPECT_EQ(NumClusters({0, -1, 1, 5}), 3u);
}

TEST(MultiSolutionTest, MeanAndMinPairwise) {
  const std::vector<std::vector<int>> sols = {
      {0, 0, 1, 1}, {2, 2, 3, 3}, {0, 1, 0, 1}};
  // Pairs: (0,1) identical -> 0; (0,2) independent -> 1; (1,2) -> 1.
  EXPECT_NEAR(MeanPairwiseDissimilarity(sols).value(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(MinPairwiseDissimilarity(sols).value(), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(MeanPairwiseDissimilarity({{0, 1}}).value(), 0.0);
}

TEST(MultiSolutionTest, MatchSolutionsToTruths) {
  const std::vector<std::vector<int>> truths = {{0, 0, 1, 1}, {0, 1, 0, 1}};
  const std::vector<std::vector<int>> found = {{1, 0, 1, 0}, {1, 1, 0, 0}};
  auto match = MatchSolutionsToTruths(truths, found);
  ASSERT_TRUE(match.ok());
  // Truth 0 == found 1 (relabeled), truth 1 == found 0 (relabeled).
  EXPECT_EQ(match->assignment[0], 1);
  EXPECT_EQ(match->assignment[1], 0);
  EXPECT_NEAR(match->mean_recovery, 1.0, 1e-9);
}

TEST(MultiSolutionTest, FewerSolutionsThanTruths) {
  const std::vector<std::vector<int>> truths = {{0, 0, 1, 1}, {0, 1, 0, 1}};
  const std::vector<std::vector<int>> found = {{0, 0, 1, 1}};
  auto match = MatchSolutionsToTruths(truths, found);
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->assignment[0], 0);
  EXPECT_EQ(match->assignment[1], -1);
  EXPECT_NEAR(match->mean_recovery, 0.5, 1e-9);
}

TEST(MultiSolutionTest, CombinedObjectiveRewardsDiversity) {
  const std::vector<std::vector<int>> diverse = {{0, 0, 1, 1}, {0, 1, 0, 1}};
  const std::vector<std::vector<int>> redundant = {{0, 0, 1, 1},
                                                   {0, 0, 1, 1}};
  const std::vector<double> q = {1.0, 1.0};
  EXPECT_GT(CombinedObjective(diverse, q, 1.0).value(),
            CombinedObjective(redundant, q, 1.0).value());
}

}  // namespace
}  // namespace multiclust
