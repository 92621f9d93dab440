#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/generators.h"
#include "stats/contingency.h"
#include "stats/entropy.h"
#include "stats/grid.h"
#include "stats/hsic.h"
#include "stats/kde.h"
#include "stats/tails.h"
#include "support/hsic_oracle.h"
#include "support/median_oracle.h"

namespace multiclust {
namespace {

TEST(DenseRelabelTest, CompactsAndPreservesNoise) {
  std::vector<int> out;
  const size_t k = DenseRelabel({5, -1, 7, 5, 9}, &out);
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(out, (std::vector<int>{0, -1, 1, 0, 2}));
}

TEST(ContingencyTest, BuildsCounts) {
  auto t = ContingencyTable::Build({0, 0, 1, 1}, {0, 1, 0, 1});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows(), 2u);
  EXPECT_EQ(t->cols(), 2u);
  EXPECT_EQ(t->at(0, 0), 1u);
  EXPECT_EQ(t->at(1, 1), 1u);
  EXPECT_EQ(t->total(), 4u);
}

TEST(ContingencyTest, ExcludesNoise) {
  auto t = ContingencyTable::Build({0, -1, 1}, {0, 0, -1});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->total(), 1u);
}

TEST(ContingencyTest, SizeMismatchRejected) {
  EXPECT_FALSE(ContingencyTable::Build({0}, {0, 1}).ok());
}

TEST(ContingencyTest, PairCountsIdenticalPartitions) {
  auto t = ContingencyTable::Build({0, 0, 1, 1}, {0, 0, 1, 1});
  ASSERT_TRUE(t.ok());
  const auto pc = t->pair_counts();
  EXPECT_DOUBLE_EQ(pc.same_both, 2.0);     // (0,1) and (2,3)
  EXPECT_DOUBLE_EQ(pc.same_a_only, 0.0);
  EXPECT_DOUBLE_EQ(pc.same_b_only, 0.0);
  EXPECT_DOUBLE_EQ(pc.same_neither, 4.0);  // cross pairs
}

TEST(ContingencyTest, UniformityDeviationExtremes) {
  // Perfectly uniform 2x2 table.
  auto uniform = ContingencyTable::Build({0, 0, 1, 1}, {0, 1, 0, 1});
  ASSERT_TRUE(uniform.ok());
  EXPECT_NEAR(uniform->UniformityDeviation(), 0.0, 1e-12);
  // Perfectly aligned partitions: far from uniform.
  auto aligned = ContingencyTable::Build({0, 0, 1, 1}, {0, 0, 1, 1});
  ASSERT_TRUE(aligned.ok());
  EXPECT_GT(aligned->UniformityDeviation(), 0.4);
}

TEST(EntropyTest, UniformCountsMaxEntropy) {
  EXPECT_NEAR(EntropyFromCounts({10, 10, 10, 10}), std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({42}), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({}), 0.0);
}

TEST(EntropyTest, ProbsMatchCounts) {
  EXPECT_NEAR(EntropyFromProbs({0.5, 0.5}), std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(EntropyFromProbs({1.0, 0.0}), 0.0);
}

TEST(EntropyTest, LabelEntropyIgnoresNoise) {
  EXPECT_NEAR(LabelEntropy({0, 1, -1, -1}), std::log(2.0), 1e-12);
}

TEST(MutualInformationTest, IdenticalEqualsEntropy) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  auto mi = MutualInformation(a, a);
  ASSERT_TRUE(mi.ok());
  EXPECT_NEAR(*mi, LabelEntropy(a), 1e-12);
}

TEST(MutualInformationTest, IndependentIsZero) {
  // Perfectly crossed partitions.
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 1, 0, 1};
  EXPECT_NEAR(MutualInformation(a, b).value(), 0.0, 1e-12);
}

TEST(MutualInformationTest, Symmetric) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 0};
  const std::vector<int> b = {1, 0, 1, 1, 0, 0};
  EXPECT_NEAR(MutualInformation(a, b).value(),
              MutualInformation(b, a).value(), 1e-12);
}

TEST(ConditionalEntropyTest, SelfIsZero) {
  const std::vector<int> a = {0, 1, 2, 0, 1, 2};
  EXPECT_NEAR(ConditionalEntropy(a, a).value(), 0.0, 1e-12);
}

TEST(ConditionalEntropyTest, ChainRule) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 0};
  const std::vector<int> b = {1, 0, 1, 1, 0, 0};
  // H(A,B) = H(B) + H(A|B).
  EXPECT_NEAR(JointEntropy(a, b).value(),
              LabelEntropy(b) + ConditionalEntropy(a, b).value(), 1e-12);
}

TEST(KlDivergenceTest, ZeroForIdentical) {
  EXPECT_NEAR(KlDivergence({0.3, 0.7}, {0.3, 0.7}), 0.0, 1e-12);
}

TEST(KlDivergenceTest, PositiveForDifferent) {
  EXPECT_GT(KlDivergence({0.9, 0.1}, {0.1, 0.9}), 0.5);
}

TEST(GridTest, IntervalMapping) {
  const Matrix data = Matrix::FromRows({{0.0}, {1.0}, {0.49}, {0.51}});
  auto grid = Grid::Build(data, 2);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->CellOf(0, 0), 0);
  EXPECT_EQ(grid->CellOf(1, 0), 1);  // max clamps to last interval
  EXPECT_EQ(grid->CellOf(2, 0), 0);
  EXPECT_EQ(grid->CellOf(3, 0), 1);
  EXPECT_DOUBLE_EQ(grid->IntervalLower(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grid->IntervalUpper(0, 1), 1.0);
}

TEST(GridTest, RejectsBadInputs) {
  EXPECT_FALSE(Grid::Build(Matrix(), 5).ok());
  EXPECT_FALSE(Grid::Build(Matrix(2, 2), 0).ok());
}

TEST(GridTest, EntropyMonotoneInDims) {
  auto ds = MakeUniformCube(300, 3, 55);
  ASSERT_TRUE(ds.ok());
  auto grid = Grid::Build(ds->data(), 4);
  ASSERT_TRUE(grid.ok());
  const double h1 = grid->SubspaceEntropy({0});
  const double h2 = grid->SubspaceEntropy({0, 1});
  const double h3 = grid->SubspaceEntropy({0, 1, 2});
  EXPECT_LE(h1, h2 + 1e-12);
  EXPECT_LE(h2, h3 + 1e-12);
}

TEST(GridTest, ClusteredDataHasLowerEntropyThanUniform) {
  auto clustered = MakeBlobs({{{0, 0}, 0.3, 150}, {{10, 10}, 0.3, 150}}, 56);
  auto uniform = MakeUniformCube(300, 2, 57);
  ASSERT_TRUE(clustered.ok() && uniform.ok());
  auto gc = Grid::Build(clustered->data(), 8);
  auto gu = Grid::Build(uniform->data(), 8);
  ASSERT_TRUE(gc.ok() && gu.ok());
  EXPECT_LT(gc->SubspaceEntropy({0, 1}), gu->SubspaceEntropy({0, 1}));
}

TEST(MineDenseUnitsTest, MonotonicitySupportShrinks) {
  auto ds = MakeBlobs({{{0, 0, 0}, 0.5, 100}}, 58);
  ASSERT_TRUE(ds.ok());
  auto grid = Grid::Build(ds->data(), 4);
  ASSERT_TRUE(grid.ok());
  const std::vector<size_t> thresholds(4, 5);
  const auto units = MineDenseUnits(*grid, thresholds, 0);
  ASSERT_FALSE(units.empty());
  for (const GridUnit& u : units) {
    EXPECT_GE(u.objects.size(), 5u);
    // Every projection of a dense unit must itself be dense: check that
    // removing one constraint yields a unit with superset support.
    if (u.constraints.size() >= 2) {
      for (const GridUnit& lower : units) {
        if (lower.constraints.size() != u.constraints.size() - 1) continue;
      }
    }
  }
  // Units exist at dimensionality up to 3 for one tight blob.
  size_t max_dims = 0;
  for (const GridUnit& u : units) {
    max_dims = std::max(max_dims, u.constraints.size());
  }
  EXPECT_EQ(max_dims, 3u);
}

TEST(MineDenseUnitsTest, MaxDimsCapRespected) {
  auto ds = MakeBlobs({{{0, 0, 0}, 0.5, 100}}, 59);
  auto grid = Grid::Build(ds->data(), 4);
  ASSERT_TRUE(grid.ok());
  const auto units = MineDenseUnits(*grid, std::vector<size_t>(4, 5), 2);
  for (const GridUnit& u : units) {
    EXPECT_LE(u.constraints.size(), 2u);
  }
}

TEST(KdeTest, DensityHigherNearData) {
  auto ds = MakeBlobs({{{0.0, 0.0}, 0.5, 200}}, 60);
  ASSERT_TRUE(ds.ok());
  auto kde = KernelDensity::Fit(ds->data());
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->Density({0.0, 0.0}), kde->Density({10.0, 10.0}));
}

TEST(KdeTest, Integrates1D) {
  // Numerically integrate a 1-D KDE; should be close to 1.
  auto ds = MakeBlobs({{{0.0}, 1.0, 100}}, 61);
  ASSERT_TRUE(ds.ok());
  auto kde = KernelDensity::Fit(ds->data());
  ASSERT_TRUE(kde.ok());
  double integral = 0.0;
  const double dx = 0.05;
  for (double x = -8.0; x <= 8.0; x += dx) {
    integral += kde->Density({x}) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(KdeTest, ExplicitBandwidthUsed) {
  const Matrix data = Matrix::FromRows({{0.0}, {1.0}});
  auto kde = KernelDensity::Fit(data, 0.7);
  ASSERT_TRUE(kde.ok());
  EXPECT_DOUBLE_EQ(kde->bandwidths()[0], 0.7);
}

TEST(DensityProfileTest, RowsPerClusterSumToOne) {
  const std::vector<double> values = {0, 0.1, 0.9, 1.0, 0.5};
  const std::vector<int> labels = {0, 0, 1, 1, -1};
  auto profile = DensityProfile(values, labels, 4);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->rows(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    double sum = 0;
    for (size_t b = 0; b < 4; ++b) sum += profile->at(c, b);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Cluster 0 mass in low bins, cluster 1 in high bins.
  EXPECT_GT(profile->at(0, 0), 0.9);
  EXPECT_GT(profile->at(1, 3), 0.9);
}

TEST(HsicTest, DependentBeatsIndependent) {
  Rng rng(62);
  const size_t n = 80;
  Matrix x(n, 1), y_dep(n, 1), y_ind(n, 1);
  for (size_t i = 0; i < n; ++i) {
    const double v = rng.Gaussian(0, 1);
    x.at(i, 0) = v;
    y_dep.at(i, 0) = v * v + rng.Gaussian(0, 0.1);
    y_ind.at(i, 0) = rng.Gaussian(0, 1);
  }
  const double h_dep = Hsic(x, y_dep).value();
  const double h_ind = Hsic(x, y_ind).value();
  EXPECT_GT(h_dep, h_ind * 3);
}

TEST(HsicTest, RejectsUnpairedRows) {
  EXPECT_FALSE(Hsic(Matrix(3, 1), Matrix(4, 1)).ok());
  EXPECT_FALSE(Hsic(Matrix(1, 1), Matrix(1, 1)).ok());
}

// d columns sharing one latent draw (even columns linear in it, odd ones
// quadratic) with per-column noise; with `constant_last` the last column
// is constant, which sends the median heuristic to its 1.0 fallback.
Matrix DependentColumns(size_t n, size_t d, bool constant_last, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    const double z = rng.Gaussian(0, 1);
    for (size_t c = 0; c < d; ++c) {
      const double signal = c % 2 == 0 ? z : z * z;
      m.at(i, c) = signal + rng.Gaussian(0, 0.25 * static_cast<double>(c + 1));
    }
    if (constant_last) m.at(i, d - 1) = 3.25;
  }
  return m;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(HsicMatrixTest, BitIdenticalToPairwiseHsic) {
  // n = 600 spans three 256-row trace chunks, the others one.
  for (const size_t n : {2u, 97u, 250u, 600u}) {
    for (const size_t d : {2u, 7u}) {
      for (const double gamma : {0.0, 0.7}) {
        const Matrix data = DependentColumns(n, d, d == 7, 64 + n);
        const Matrix m = HsicMatrix(data, gamma).value();
        ASSERT_EQ(m.rows(), d);
        ASSERT_EQ(m.cols(), d);
        for (size_t a = 0; a < d; ++a) {
          EXPECT_EQ(m.at(a, a), 0.0);
          for (size_t b = a + 1; b < d; ++b) {
            const Matrix xa = data.SelectColumns({a});
            const Matrix xb = data.SelectColumns({b});
            const double pair = Hsic(xa, xb, gamma, gamma).value();
            const double dense = test::DenseHsic(xa, xb, gamma, gamma).value();
            EXPECT_TRUE(SameBits(m.at(a, b), pair))
                << "n=" << n << " d=" << d << " gamma=" << gamma << " (" << a
                << "," << b << ")";
            EXPECT_TRUE(SameBits(m.at(b, a), pair));
            EXPECT_TRUE(SameBits(pair, dense))
                << "n=" << n << " d=" << d << " gamma=" << gamma << " (" << a
                << "," << b << ")";
          }
        }
      }
    }
  }
}

TEST(HsicMatrixTest, MultiColumnHsicMatchesDenseOracle) {
  // Hsic stays general: 3-column views, as bench_enclus passes them.
  const Matrix data = DependentColumns(300, 6, false, 65);
  const Matrix x = data.SelectColumns({0, 1, 2});
  const Matrix y = data.SelectColumns({3, 4, 5});
  EXPECT_TRUE(SameBits(Hsic(x, y).value(), test::DenseHsic(x, y).value()));
  EXPECT_TRUE(SameBits(Hsic(x, y, 0.3, 1.5).value(),
                       test::DenseHsic(x, y, 0.3, 1.5).value()));
}

TEST(HsicMatrixTest, RejectsTooFewRowsOrColumns) {
  EXPECT_EQ(HsicMatrix(Matrix(1, 3)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HsicMatrix(Matrix(0, 3)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HsicMatrix(Matrix(5, 1)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(HsicMatrix(Matrix(2, 2)).ok());
}

TEST(HsicMatrixTest, CancelledBudgetReturnsCancelled) {
  CancelToken cancel;
  cancel.Cancel();
  RunBudget budget;
  budget.cancel = &cancel;
  const BudgetTracker guard(budget, "hsic");
  const Result<Matrix> m =
      HsicMatrix(DependentColumns(50, 3, false, 66), 0.0, &guard);
  EXPECT_EQ(m.status().code(), StatusCode::kCancelled);
}

// Inputs for the median heuristic's select, each shaped to reach one of
// its paths: ties and duplicate rows (integer values, a repeated block),
// a constant matrix (median 0, the 1.0 fallback), all rows equal but the
// last, two values only (a median bucket of more ties than the gather
// bound, so every bit is fixed by the histograms), and signed values whose
// columns span 16 orders of magnitude.
enum class MedianInput { kTies, kConstant, kAllButOne, kTwoValues, kScales };

Matrix MedianData(MedianInput kind, size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      double v = 0.0;
      switch (kind) {
        case MedianInput::kTies:
          v = i % 5 == 4 && i > 0 ? m.at(i - 1, c)
                                  : std::floor(rng.Uniform(-3.0, 3.0));
          break;
        case MedianInput::kConstant:
          v = -1.5;
          break;
        case MedianInput::kAllButOne:
          v = i + 1 == n ? 7.0 : 2.0;
          break;
        case MedianInput::kTwoValues:
          v = static_cast<double>(rng.NextIndex(2));
          break;
        case MedianInput::kScales:
          v = rng.Gaussian(0, 1) * std::pow(10.0, 8.0 - 4.0 * (c % 5));
          break;
      }
      m.at(i, c) = v;
    }
  }
  return m;
}

// The in-place radix select returns the buffered oracle's median bit for
// bit, and every gamma <= 0 Gram equals the fused oracle kernel's Gram at
// gamma = 1 / that median, at pool sizes 1, 2 and 4. n = 600 and 1200
// split the select into several chunks.
TEST(MedianHeuristicTest, InPlaceSelectMatchesBufferedOracleBitwise) {
  const MedianInput kinds[] = {MedianInput::kTies, MedianInput::kConstant,
                               MedianInput::kAllButOne,
                               MedianInput::kTwoValues, MedianInput::kScales};
  for (const size_t threads : {1u, 2u, 4u}) {
    SetThreadCount(threads);
    for (const MedianInput kind : kinds) {
      for (const size_t n : {2u, 3u, 251u, 600u, 1200u}) {
        for (const size_t d : {1u, 2u, 3u, 7u}) {
          const Matrix data = MedianData(kind, n, d, 90 + n + d);
          const double oracle = test::BufferedMedianSquaredDistance(data,
                                                                    nullptr);
          const double med = MedianSquaredDistance(data);
          const std::string where =
              "kind=" + std::to_string(static_cast<int>(kind)) +
              " n=" + std::to_string(n) + " d=" + std::to_string(d) +
              " threads=" + std::to_string(threads);
          ASSERT_TRUE(SameBits(med, oracle))
              << where << ": " << med << " vs " << oracle;
          if (n > 251) continue;  // the Gram checks below are O(n^2) each
          const Matrix k = GaussianKernelMatrix(data, 0.0);
          const Matrix expect = test::GaussianGramOracle(data, 1.0 / oracle);
          ASSERT_EQ(std::memcmp(k.row_data(0), expect.row_data(0),
                                n * n * sizeof(double)),
                    0)
              << where;
        }
      }
    }
  }
  SetThreadCount(0);
}

TEST(MedianHeuristicTest, HsicMatrixUsesOracleGramsAtMedianGamma) {
  for (const size_t threads : {1u, 4u}) {
    SetThreadCount(threads);
    for (const size_t n : {3u, 251u}) {
      const Matrix data = DependentColumns(n, 4, true, 70 + n);
      const Matrix m = HsicMatrix(data, 0.0).value();
      std::vector<Matrix> grams;
      for (size_t a = 0; a < data.cols(); ++a) {
        const Matrix col = data.SelectColumns({a});
        grams.push_back(test::GaussianGramOracle(
            col, 1.0 / test::BufferedMedianSquaredDistance(col, nullptr)));
      }
      for (size_t a = 0; a < data.cols(); ++a) {
        for (size_t b = a + 1; b < data.cols(); ++b) {
          EXPECT_TRUE(SameBits(m.at(a, b),
                               test::DenseHsicOfGrams(grams[a], grams[b])))
              << "n=" << n << " threads=" << threads << " (" << a << "," << b
              << ")";
        }
      }
    }
  }
  SetThreadCount(0);
}

TEST(KernelMatrixTest, DiagonalOnesSymmetric) {
  auto ds = MakeUniformCube(20, 3, 63);
  ASSERT_TRUE(ds.ok());
  const Matrix k = GaussianKernelMatrix(ds->data());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(k.at(i, i), 1.0);
    for (size_t j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(k.at(i, j), k.at(j, i));
      EXPECT_GE(k.at(i, j), 0.0);
      EXPECT_LE(k.at(i, j), 1.0);
    }
  }
}

TEST(TailsTest, HoeffdingDecreasesWithT) {
  EXPECT_GT(HoeffdingUpperTail(100, 0.1, 0.05),
            HoeffdingUpperTail(100, 0.1, 0.2));
  EXPECT_DOUBLE_EQ(HoeffdingUpperTail(100, 0.1, -0.1), 1.0);
}

TEST(TailsTest, SchismThresholdDecreasesWithDims) {
  // The headline property from slide 73: the threshold adapts (decreases)
  // with subspace dimensionality.
  double prev = 1.1;
  for (size_t s = 1; s <= 8; ++s) {
    const double t = SchismThresholdFraction(s, 10, 1000, 0.05);
    EXPECT_LE(t, prev + 1e-15);
    prev = t;
  }
  // And it approaches the pure slack term for high s.
  const double slack = std::sqrt(std::log(1.0 / 0.05) / 2000.0);
  EXPECT_NEAR(SchismThresholdFraction(20, 10, 1000, 0.05), slack, 1e-6);
}

TEST(TailsTest, LogChooseKnownValues) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(LogChoose(10, 0), 0.0, 1e-12);
  EXPECT_EQ(LogChoose(3, 5), -INFINITY);
}

TEST(TailsTest, BinomialUpperTailSanity) {
  // P[X >= 0] = 1.
  EXPECT_DOUBLE_EQ(BinomialUpperTail(10, 0, 0.3), 1.0);
  // P[X >= n+...] decreasing in k.
  EXPECT_GT(BinomialUpperTail(100, 10, 0.2), BinomialUpperTail(100, 40, 0.2));
  // Known: X ~ Bin(2, 0.5), P[X >= 1] = 0.75.
  EXPECT_NEAR(BinomialUpperTail(2, 1, 0.5), 0.75, 1e-12);
  // P[X >= 2] = 0.25.
  EXPECT_NEAR(BinomialUpperTail(2, 2, 0.5), 0.25, 1e-12);
}

TEST(TailsTest, BinomialTailSignificanceSeparates) {
  // 50 of 100 points in a region expected to hold 10%: very significant.
  EXPECT_LT(BinomialUpperTail(100, 50, 0.1), 1e-10);
  // 12 of 100 in a 10% region: not significant.
  EXPECT_GT(BinomialUpperTail(100, 12, 0.1), 0.2);
}

}  // namespace
}  // namespace multiclust
