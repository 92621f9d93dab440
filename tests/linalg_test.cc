#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "cluster/spectral.h"
#include "common/profile.h"
#include "common/rng.h"
#include "data/generators.h"
#include "linalg/decomposition.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"
#include "stats/hsic.h"

namespace multiclust {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.at(i, j) = rng.Gaussian(0.0, 1.0);
  }
  return m;
}

Matrix RandomSpd(size_t n, uint64_t seed) {
  const Matrix a = RandomMatrix(n + 2, n, seed);
  Matrix spd = a.Transpose() * a;
  for (size_t i = 0; i < n; ++i) spd.at(i, i) += 0.5;
  return spd;
}

TEST(MatrixTest, FromRowsAndAccess) {
  const Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 6.0);
  EXPECT_EQ(m.Row(0), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(m.Col(1), (std::vector<double>{2, 5}));
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i.at(0, 1), 0.0);
  const Matrix d = Matrix::Diagonal({2, 3});
  EXPECT_DOUBLE_EQ(d.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 0.0);
}

TEST(MatrixTest, TransposeInvolution) {
  const Matrix m = RandomMatrix(4, 7, 1);
  EXPECT_DOUBLE_EQ(m.Transpose().Transpose().MaxAbsDiff(m), 0.0);
}

TEST(MatrixTest, MultiplyKnown) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyByIdentity) {
  const Matrix m = RandomMatrix(5, 5, 2);
  EXPECT_LT((m * Matrix::Identity(5)).MaxAbsDiff(m), 1e-12);
  EXPECT_LT((Matrix::Identity(5) * m).MaxAbsDiff(m), 1e-12);
}

TEST(MatrixTest, CheckedMultiplyRejectsMismatch) {
  const Matrix a(2, 3), b(4, 2);
  EXPECT_FALSE(Matrix::Multiply(a, b).ok());
  EXPECT_TRUE(Matrix::Multiply(a, Matrix(3, 2)).ok());
}

TEST(MatrixTest, ApplyMatchesMultiply) {
  const Matrix m = RandomMatrix(3, 4, 3);
  const std::vector<double> v = {1, -2, 0.5, 3};
  const std::vector<double> got = m.Apply(v);
  for (size_t i = 0; i < 3; ++i) {
    double expect = 0;
    for (size_t j = 0; j < 4; ++j) expect += m.at(i, j) * v[j];
    EXPECT_NEAR(got[i], expect, 1e-12);
  }
}

TEST(MatrixTest, SelectColumnsAndRows) {
  const Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  const Matrix cols = m.SelectColumns({2, 0});
  EXPECT_DOUBLE_EQ(cols.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(cols.at(0, 1), 1.0);
  const Matrix rows = m.SelectRows({1});
  EXPECT_EQ(rows.rows(), 1u);
  EXPECT_DOUBLE_EQ(rows.at(0, 1), 5.0);
}

TEST(VectorOpsTest, Basics) {
  EXPECT_DOUBLE_EQ(Dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(VectorNorm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_EQ(Add({1, 2}, {3, 4}), (std::vector<double>{4, 6}));
  EXPECT_EQ(Subtract({1, 2}, {3, 4}), (std::vector<double>{-2, -2}));
  EXPECT_EQ(Scale({1, 2}, 3), (std::vector<double>{3, 6}));
}

TEST(VectorOpsTest, NormalizedUnitNorm) {
  const std::vector<double> v = Normalized({3, 4});
  EXPECT_NEAR(VectorNorm(v), 1.0, 1e-12);
  // Zero vector is returned unchanged.
  EXPECT_EQ(Normalized({0, 0}), (std::vector<double>{0, 0}));
}

TEST(VectorOpsTest, RowMeanAndCovariance) {
  const Matrix m = Matrix::FromRows({{1, 10}, {3, 20}});
  const std::vector<double> mean = RowMean(m);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 15.0);
  const Matrix cov = Covariance(m);
  EXPECT_DOUBLE_EQ(cov.at(0, 0), 2.0);   // var of {1,3} with n-1
  EXPECT_DOUBLE_EQ(cov.at(1, 1), 50.0);  // var of {10,20}
  EXPECT_DOUBLE_EQ(cov.at(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(cov.at(0, 1), cov.at(1, 0));
}

TEST(EigenTest, DiagonalMatrix) {
  const Matrix d = Matrix::Diagonal({3, 1, 2});
  auto r = EigenSymmetric(d);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->values[0], 3.0, 1e-10);
  EXPECT_NEAR(r->values[1], 2.0, 1e-10);
  EXPECT_NEAR(r->values[2], 1.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix m = Matrix::FromRows({{2, 1}, {1, 2}});
  auto r = EigenSymmetric(m);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->values[0], 3.0, 1e-10);
  EXPECT_NEAR(r->values[1], 1.0, 1e-10);
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(EigenSymmetric(Matrix(2, 3)).ok());
}

class EigenPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenPropertyTest, ReconstructionAndOrthonormality) {
  const size_t n = GetParam();
  const Matrix a = RandomSpd(n, 100 + n);
  auto r = EigenSymmetric(a);
  ASSERT_TRUE(r.ok());
  // Reconstruction A = V diag V^T.
  Matrix scaled = r->vectors;
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) scaled.at(i, j) *= r->values[j];
  }
  const Matrix rec = scaled * r->vectors.Transpose();
  EXPECT_LT(rec.MaxAbsDiff(a), 1e-8 * (1.0 + a.FrobeniusNorm()));
  // V orthonormal.
  const Matrix vtv = r->vectors.Transpose() * r->vectors;
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(n)), 1e-9);
  // Sorted descending.
  for (size_t i = 1; i < n; ++i) {
    EXPECT_GE(r->values[i - 1], r->values[i] - 1e-12);
  }
  // SPD => all eigenvalues positive.
  EXPECT_GT(r->values[n - 1], 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// ---- TopKEigen -------------------------------------------------------------

double InfNorm(const Matrix& a) {
  double norm = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    double row = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) row += std::fabs(a.at(i, j));
    norm = std::max(norm, row);
  }
  return norm;
}

// Q diag(spectrum) Q^T for a random orthogonal Q.
Matrix WithSpectrum(const std::vector<double>& spectrum, uint64_t seed) {
  const size_t n = spectrum.size();
  const Matrix q = ComputeQr(RandomMatrix(n, n, seed)).value().q;
  Matrix scaled = q;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) scaled.at(i, j) *= spectrum[j];
  }
  Matrix a = scaled * q.Transpose();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) a.at(j, i) = a.at(i, j);
  }
  return a;
}

// n=120: the four wanted eigenvalues are positive, ten larger ones in
// magnitude are negative, the rest fill [-1, 1]. The ten outnumber the
// spare columns of the 12-column block, so an unshifted iteration would
// lock onto them and lose the wanted 3 and 2.5.
Matrix NegativeDominatedMatrix() {
  std::vector<double> spectrum = {5.0, 4.0, 3.0, 2.5};
  for (int i = 0; i < 10; ++i) spectrum.push_back(-6.0 - 0.4 * i);
  Rng rng(31);
  while (spectrum.size() < 120) spectrum.push_back(rng.Uniform(-1.0, 1.0));
  return WithSpectrum(spectrum, 32);
}

// The normalised NJW affinity of three well-separated 2-d blobs (n=150).
Matrix ThreeBlobAffinity() {
  auto ds = MakeBlobs({{{0, 0}, 0.5, 50}, {{6, 0}, 0.5, 50},
                       {{3, 5}, 0.5, 50}},
                      17);
  return NormalizedAffinity(GaussianKernelMatrix(ds->data(), 0.5));
}

// ||U U^T - V V^T||_F: zero iff the column spans agree.
double SubspaceDistance(const Matrix& u, const Matrix& v) {
  return (u * u.Transpose() - v * v.Transpose()).FrobeniusNorm();
}

// Every TopKEigen answer is checked against the full Jacobi solve: the
// eigenvalues, the spanned subspace and each residual.
void ExpectMatchesJacobi(const Matrix& a, size_t k, double tol) {
  const double sigma = InfNorm(a);
  auto top = TopKEigen(a, k, tol);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  auto full = EigenSymmetric(a);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(top->values.size(), k);
  ASSERT_EQ(top->vectors.rows(), a.rows());
  ASSERT_EQ(top->vectors.cols(), k);
  EXPECT_GT(top->iterations, 0u);
  std::vector<size_t> first(k);
  std::iota(first.begin(), first.end(), 0);
  for (size_t j = 0; j < k; ++j) {
    EXPECT_NEAR(top->values[j], full->values[j], 1e-9 * sigma) << j;
    if (j > 0) {
      EXPECT_GE(top->values[j - 1], top->values[j]);
    }
  }
  EXPECT_LE(SubspaceDistance(top->vectors, full->vectors.SelectColumns(first)),
            1e-8);
  const Matrix av = a * top->vectors;
  for (size_t j = 0; j < k; ++j) {
    double r = 0.0;
    for (size_t i = 0; i < a.rows(); ++i) {
      const double d = av.at(i, j) - top->values[j] * top->vectors.at(i, j);
      r += d * d;
    }
    EXPECT_LE(std::sqrt(r), tol * sigma) << "residual of pair " << j;
  }
  const Matrix vtv = top->vectors.Transpose() * top->vectors;
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(k)), 1e-12);
}

TEST(TopKEigenTest, MatchesJacobiWithNegativeEigenvalues) {
  ExpectMatchesJacobi(NegativeDominatedMatrix(), 4, 1e-11);
}

TEST(TopKEigenTest, MatchesJacobiOnThreeBlobAffinity) {
  const Matrix a = ThreeBlobAffinity();
  ExpectMatchesJacobi(a, 3, kDefaultEigenTol);
  // Three separated blobs: three eigenvalues near 1, then a clear gap.
  const auto top = TopKEigen(a, 4).value();
  EXPECT_GT(top.values[2], 0.999);
  EXPECT_LT(top.values[3], 0.99) << top.values[3];
}

TEST(TopKEigenTest, RejectsInvalidArguments) {
  EXPECT_EQ(TopKEigen(Matrix(4, 5), 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TopKEigen(Matrix::Identity(4), 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TopKEigen(Matrix::Identity(4), 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TopKEigenTest, SmallProblemFallsBackToFullJacobi) {
  // k = 2 gives a block of 10 columns; 2 * 10 >= 20, so no iteration runs
  // and the answer is the truncated full solve, bit for bit.
  const Matrix a = RandomSpd(20, 5);
  const auto top = TopKEigen(a, 2).value();
  const auto full = EigenSymmetric(a).value();
  EXPECT_EQ(top.iterations, 0u);
  ASSERT_EQ(top.values.size(), 2u);
  EXPECT_EQ(top.values[0], full.values[0]);
  EXPECT_EQ(top.values[1], full.values[1]);
  EXPECT_EQ(top.vectors.MaxAbsDiff(full.vectors.SelectColumns({0, 1})), 0.0);
}

TEST(TopKEigenTest, IterationCapIsAComputationError) {
  auto r = TopKEigen(NegativeDominatedMatrix(), 4, kDefaultEigenTol, {}, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kComputationError);
}

TEST(TopKEigenTest, PreCancelledTokenStopsBeforeTheFirstProduct) {
  CancelToken cancel;
  cancel.Cancel();
  RunBudget budget;
  budget.cancel = &cancel;
  auto r = TopKEigen(NegativeDominatedMatrix(), 4, kDefaultEigenTol, budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(TopKEigenTest, ExpiredDeadlineReturnsCurrentRitzApproximation) {
  const auto r = TopKEigen(NegativeDominatedMatrix(), 4, kDefaultEigenTol,
                           RunBudget::Deadline(1e-6));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->iterations, 1u);
  const Matrix vtv = r->vectors.Transpose() * r->vectors;
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(4)), 1e-12);
}

TEST(TopKEigenTest, IdenticalPointsEndCleanly) {
  // Every affinity is 1: eigenvalue 1 once, -1/(n-1) n-1 times. The
  // repeated eigenvalue straddles k; any basis of it is an answer.
  const Matrix a =
      NormalizedAffinity(GaussianKernelMatrix(Matrix(200, 2, 3.25), 0.0));
  auto r = TopKEigen(a, 3);
  if (r.ok()) {
    ASSERT_EQ(r->values.size(), 3u);
    EXPECT_NEAR(r->values[0], 1.0, 1e-9);
    for (double v : r->values) EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(ValidateMatrix("test", r->vectors).code(), StatusCode::kOk);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kComputationError);
  }
}

// -2 I: every Ritz value is -sigma, so the Chebyshev interval
// [-sigma, theta_b] has zero width. Every vector is an eigenvector, so the
// first Rayleigh-Ritz step converges and the solve must end there, before
// any filter. n = 60 with k = 2 keeps the block path (2b = 20 < n); any
// orthonormal pair is an answer.
TEST(TopKEigenTest, DegenerateIntervalMatrixEndsCleanly) {
  const Matrix a = Matrix::Identity(60) * -2.0;
  const auto r = TopKEigen(a, 2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->iterations, 0u);
  for (double v : r->values) EXPECT_NEAR(v, -2.0, 1e-12);
  const Matrix vtv = r->vectors.Transpose() * r->vectors;
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(2)), 1e-12);
}

// One product with the affinity of the block solves: 2 n^2 b flops.
double ProductFlops(size_t n, size_t k) {
  const double b = static_cast<double>(k + std::max<size_t>(k, 8));
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) * b;
}

// diag(1, 0.5, -1, ..., -1): the Gershgorin bound is tight (sigma = 1) and
// a random 10-column block sees the -1 eigenspace in eight directions, so
// theta_b = -sigma to rounding while the wanted pairs are far from
// converged. Rather than divide by that near-zero width, the solver takes
// the shifted step (a + I), one product, which keeps only the two wanted
// directions; the next Rayleigh-Ritz step finds them exactly. That is two
// products plus Gram-Schmidt and Rayleigh-Ritz work (about 4.5 products'
// worth of flops at n = 60); one filter alone would add seven products.
TEST(TopKEigenTest, DegenerateIntervalTakesTheShiftedStep) {
  Matrix a = Matrix::Identity(60) * -1.0;
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 0.5;
  telemetry::ResourceScope scope;
  const auto r = TopKEigen(a, 2);
  const uint64_t flops = scope.Snapshot().flops;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->iterations, 2u);
  EXPECT_LT(static_cast<double>(flops), 6.0 * ProductFlops(60, 2));
  EXPECT_NEAR(r->values[0], 1.0, 1e-12);
  EXPECT_NEAR(r->values[1], 0.5, 1e-12);
  EXPECT_NEAR(std::fabs(r->vectors.at(0, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::fabs(r->vectors.at(1, 1)), 1.0, 1e-12);
}

// The 250-point two-view affinity of SpectralFlopsCoverTheEigensolver: the
// plain shifted step would take about 106 products here, the filter 4-5
// outer iterations of 8. All the solve's counted flops (the products plus
// the Gram-Schmidt, Rayleigh-Ritz and filter work) stay under 48 products.
TEST(TopKEigenTest, FilterKeepsTheProductCountLow) {
  std::vector<ViewSpec> views(2);
  views[0] = {3, 3, 8.0, 1.0, ""};
  views[1] = {3, 3, 8.0, 1.0, ""};
  const Matrix data = MakeMultiView(250, views, 0, 4)->data();
  const Matrix a = NormalizedAffinity(GaussianKernelMatrix(data, 0.0));
  telemetry::ResourceScope scope;
  const auto r = TopKEigen(a, 3);
  const uint64_t flops = scope.Snapshot().flops;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(static_cast<double>(flops), r->iterations * ProductFlops(250, 3));
  EXPECT_LE(static_cast<double>(flops), 48.0 * ProductFlops(250, 3));
}

// The normalised affinity of three 2-d blobs of 400 points: one product
// takes a few milliseconds, and the first Rayleigh-Ritz step is far from
// converged, so the first filter (seven products) always runs.
Matrix MidSizeBlobAffinity() {
  auto ds = MakeBlobs({{{0, 0}, 1.0, 400}, {{6, 0}, 1.0, 400},
                       {{3, 5}, 1.0, 400}},
                      23);
  return NormalizedAffinity(GaussianKernelMatrix(ds->data(), 0.0));
}

// A cancel tripped once the first filter product has been counted lands
// inside the filter; the solver polls after every product, so it returns
// before the filter's seven products are done (a poll per outer iteration
// would return after eight products at the earliest).
TEST(TopKEigenTest, CancelMidFilterReturnsWithinAProduct) {
  const Matrix a = MidSizeBlobAffinity();
  const double product = ProductFlops(a.rows(), 3);
  CancelToken cancel;
  RunBudget budget;
  budget.cancel = &cancel;
  telemetry::ResourceScope scope;
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load() && scope.Snapshot().flops < 2.0 * product) {
      std::this_thread::yield();
    }
    cancel.Cancel();
  });
  const auto r = TopKEigen(a, 3, kDefaultEigenTol, budget);
  const uint64_t flops = scope.Snapshot().flops;
  done.store(true);
  watcher.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_LT(static_cast<double>(flops), 8.0 * product);
}

// A deadline that expires inside the first filter returns the Ritz pairs of
// the first Rayleigh-Ritz step, bit for bit, after part of the filter ran.
// The first deadline, three first-step times, lands about two products
// into the filter's seven; under heavy load it may land before or after
// the filter, so the deadline is moved towards it and tried again. A
// solver polling only once per outer iteration never returns
// iterations == 1 after a filter product, so it never lands.
TEST(TopKEigenTest, DeadlineMidFilterReturnsTheLastRitzPairs) {
  const Matrix a = MidSizeBlobAffinity();
  const double product = ProductFlops(a.rows(), 3);
  // The first Rayleigh-Ritz step (set-up plus one product) and its time.
  SymmetricEigen first;
  double first_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    first = TopKEigen(a, 3, kDefaultEigenTol, RunBudget::Deadline(1e-6))
                .value();
    first_ms = std::min(
        first_ms, std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  }
  ASSERT_EQ(first.iterations, 1u);
  bool landed = false;
  double deadline_ms = 3.0 * first_ms;
  for (int attempt = 0; attempt < 10 && !landed; ++attempt) {
    telemetry::ResourceScope scope;
    const auto r =
        TopKEigen(a, 3, kDefaultEigenTol, RunBudget::Deadline(deadline_ms));
    const uint64_t flops = scope.Snapshot().flops;
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->iterations > 1) {
      deadline_ms *= 0.6;  // expired after the first filter
    } else if (static_cast<double>(flops) < 1.5 * product) {
      deadline_ms *= 1.6;  // expired before it
    } else {
      landed = true;
      EXPECT_EQ(r->values, first.values);
      EXPECT_EQ(r->vectors.MaxAbsDiff(first.vectors), 0.0);
    }
  }
  EXPECT_TRUE(landed) << "no deadline expired inside the first filter";
}

class SvdPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SvdPropertyTest, ReconstructionAndOrthonormality) {
  const auto [m, n] = GetParam();
  const Matrix a = RandomMatrix(m, n, 7 * m + n);
  auto r = ComputeSvd(a);
  ASSERT_TRUE(r.ok());
  const size_t rank = std::min(m, n);
  ASSERT_EQ(r->sigma.size(), rank);
  // Non-negative, sorted descending.
  for (size_t i = 0; i < rank; ++i) {
    EXPECT_GE(r->sigma[i], 0.0);
    if (i > 0) {
      EXPECT_GE(r->sigma[i - 1], r->sigma[i] - 1e-12);
    }
  }
  // Reconstruction.
  Matrix us = r->u;
  for (size_t j = 0; j < rank; ++j) {
    for (size_t i = 0; i < us.rows(); ++i) us.at(i, j) *= r->sigma[j];
  }
  const Matrix rec = us * r->v.Transpose();
  EXPECT_LT(rec.MaxAbsDiff(a), 1e-8 * (1.0 + a.FrobeniusNorm()));
  // U^T U = I (columns with nonzero sigma).
  const Matrix utu = r->u.Transpose() * r->u;
  for (size_t i = 0; i < rank; ++i) {
    if (r->sigma[i] > 1e-9) {
      EXPECT_NEAR(utu.at(i, i), 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdPropertyTest,
    ::testing::Values(std::make_pair<size_t, size_t>(3, 3),
                      std::make_pair<size_t, size_t>(5, 2),
                      std::make_pair<size_t, size_t>(2, 5),
                      std::make_pair<size_t, size_t>(8, 8),
                      std::make_pair<size_t, size_t>(10, 4),
                      std::make_pair<size_t, size_t>(4, 10)));

TEST(CholeskyTest, ReconstructsSpd) {
  const Matrix a = RandomSpd(5, 5);
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_LT((l.value() * l->Transpose()).MaxAbsDiff(a), 1e-9);
  // Lower triangular.
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) EXPECT_DOUBLE_EQ(l->at(i, j), 0.0);
  }
}

TEST(CholeskyTest, RejectsIndefinite) {
  const Matrix m = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(m).ok());
}

TEST(SolveSpdTest, SolvesKnownSystem) {
  const Matrix a = Matrix::FromRows({{4, 1}, {1, 3}});
  auto x = SolveSpd(a, {1, 2});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(4 * (*x)[0] + (*x)[1], 1.0, 1e-12);
  EXPECT_NEAR((*x)[0] + 3 * (*x)[1], 2.0, 1e-12);
}

TEST(SolveSpdTest, RandomRoundTrip) {
  const Matrix a = RandomSpd(6, 17);
  Rng rng(9);
  std::vector<double> x_true(6);
  for (double& v : x_true) v = rng.Gaussian(0, 1);
  const std::vector<double> b = a.Apply(x_true);
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-8);
}

TEST(InverseTest, RandomRoundTrip) {
  const Matrix a = RandomSpd(5, 23);
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  EXPECT_LT((a * inv.value()).MaxAbsDiff(Matrix::Identity(5)), 1e-8);
}

TEST(InverseTest, RejectsSingular) {
  Matrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(1, 1) = 4;
  EXPECT_FALSE(Inverse(m).ok());
}

TEST(SqrtSymmetricTest, SquaresBack) {
  const Matrix a = RandomSpd(4, 31);
  auto s = SqrtSymmetric(a);
  ASSERT_TRUE(s.ok());
  EXPECT_LT((s.value() * s.value()).MaxAbsDiff(a), 1e-8);
}

TEST(InverseSqrtSymmetricTest, WhitensCovariance) {
  const Matrix a = RandomSpd(4, 37);
  auto w = InverseSqrtSymmetric(a);
  ASSERT_TRUE(w.ok());
  // W * A * W = I.
  const Matrix id = w.value() * a * w.value();
  EXPECT_LT(id.MaxAbsDiff(Matrix::Identity(4)), 1e-7);
}

TEST(QrTest, ReconstructionAndTriangularity) {
  const Matrix a = RandomMatrix(7, 4, 41);
  auto qr = ComputeQr(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_LT((qr->q * qr->r).MaxAbsDiff(a), 1e-9);
  const Matrix qtq = qr->q.Transpose() * qr->q;
  EXPECT_LT(qtq.MaxAbsDiff(Matrix::Identity(4)), 1e-9);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(qr->r.at(i, j), 0.0);
  }
}

TEST(QrTest, RejectsWide) { EXPECT_FALSE(ComputeQr(Matrix(2, 5)).ok()); }

TEST(PcaTest, RecoversDominantAxis) {
  // Data stretched along (1, 1)/sqrt(2).
  Rng rng(43);
  Matrix data(300, 2);
  for (size_t i = 0; i < 300; ++i) {
    const double t = rng.Gaussian(0, 5);
    const double s = rng.Gaussian(0, 0.5);
    data.at(i, 0) = t + s;
    data.at(i, 1) = t - s;
  }
  auto pca = FitPca(data);
  ASSERT_TRUE(pca.ok());
  EXPECT_GT(pca->eigenvalues[0], pca->eigenvalues[1]);
  const double c0 = std::fabs(pca->components.at(0, 0));
  const double c1 = std::fabs(pca->components.at(1, 0));
  EXPECT_NEAR(c0, 1.0 / std::sqrt(2.0), 0.05);
  EXPECT_NEAR(c1, 1.0 / std::sqrt(2.0), 0.05);
}

TEST(PcaTest, ComponentsForVariance) {
  PcaModel model;
  model.eigenvalues = {8, 1, 1};
  EXPECT_EQ(model.ComponentsForVariance(0.75), 1u);
  EXPECT_EQ(model.ComponentsForVariance(0.95), 3u);
  EXPECT_EQ(model.ComponentsForVariance(0.9), 2u);
}

TEST(PcaTest, ProjectionCentersData) {
  const Matrix data = Matrix::FromRows({{1, 1}, {3, 3}});
  auto pca = FitPca(data);
  ASSERT_TRUE(pca.ok());
  const std::vector<double> p = pca->Project({2, 2}, 2);
  EXPECT_NEAR(p[0], 0.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(PcaTest, RejectsEmpty) { EXPECT_FALSE(FitPca(Matrix()).ok()); }

}  // namespace
}  // namespace multiclust
