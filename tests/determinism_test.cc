// Determinism suite: every randomised algorithm in the library takes an
// explicit seed and must be bit-reproducible — identical labels on
// identical inputs. This is what makes the experiment harness and the
// regression tests trustworthy.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "altspace/cami.h"
#include "altspace/cib.h"
#include "cluster/dbscan.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/decomposition.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "metrics/clustering_quality.h"
#include "stats/hsic.h"
#include "subspace/enclus.h"
#include "altspace/conditional_ensemble.h"
#include "altspace/dec_kmeans.h"
#include "altspace/disparate.h"
#include "altspace/meta_clustering.h"
#include "altspace/min_centropy.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "core/pipeline.h"
#include "data/discrete.h"
#include "data/generators.h"
#include "multiview/co_em.h"
#include "multiview/consensus.h"
#include "subspace/doc.h"
#include "subspace/msc.h"
#include "subspace/orclus.h"
#include "subspace/proclus.h"
#include "support/restart_algorithms.h"

namespace multiclust {
namespace {

Matrix TestData(uint64_t seed) {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 12.0, 0.8, ""};
  views[1] = {2, 2, 8.0, 0.8, ""};
  return MakeMultiView(120, views, 1, seed)->data();
}

TEST(DeterminismTest, KMeans) {
  const Matrix data = TestData(1);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 4;
  opts.seed = 99;
  EXPECT_EQ(RunKMeans(data, opts)->labels, RunKMeans(data, opts)->labels);
}

TEST(DeterminismTest, Gmm) {
  const Matrix data = TestData(2);
  GmmOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.seed = 99;
  EXPECT_EQ(RunGmm(data, opts)->labels, RunGmm(data, opts)->labels);
}

TEST(DeterminismTest, Spectral) {
  const Matrix data = TestData(3);
  SpectralOptions opts;
  opts.k = 2;
  opts.seed = 99;
  EXPECT_EQ(RunSpectral(data, opts)->labels,
            RunSpectral(data, opts)->labels);
}

TEST(DeterminismTest, DecKMeans) {
  const Matrix data = TestData(4);
  DecKMeansOptions opts;
  opts.ks = {2, 2};
  opts.restarts = 2;
  opts.seed = 99;
  auto a = RunDecorrelatedKMeans(data, opts);
  auto b = RunDecorrelatedKMeans(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->solutions.at(0).labels, b->solutions.at(0).labels);
  EXPECT_EQ(a->solutions.at(1).labels, b->solutions.at(1).labels);
  EXPECT_DOUBLE_EQ(a->objective, b->objective);
}

TEST(DeterminismTest, Cami) {
  const Matrix data = TestData(5);
  CamiOptions opts;
  opts.restarts = 2;
  opts.seed = 99;
  auto a = RunCami(data, opts);
  auto b = RunCami(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->solutions.at(0).labels, b->solutions.at(0).labels);
  EXPECT_DOUBLE_EQ(a->objective, b->objective);
}

TEST(DeterminismTest, MinCEntropy) {
  const Matrix data = TestData(6);
  const std::vector<int> given(data.rows(), 0);
  MinCEntropyOptions opts;
  opts.k = 2;
  opts.seed = 99;
  EXPECT_EQ(RunMinCEntropy(data, {given}, opts)->labels,
            RunMinCEntropy(data, {given}, opts)->labels);
}

TEST(DeterminismTest, MetaClustering) {
  const Matrix data = TestData(7);
  MetaClusteringOptions opts;
  opts.num_base = 10;
  opts.k = 2;
  opts.meta_k = 3;
  opts.seed = 99;
  auto a = RunMetaClustering(data, opts);
  auto b = RunMetaClustering(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->group_of_base, b->group_of_base);
  ASSERT_EQ(a->representatives.size(), b->representatives.size());
  for (size_t i = 0; i < a->representatives.size(); ++i) {
    EXPECT_EQ(a->representatives.at(i).labels,
              b->representatives.at(i).labels);
  }
}

TEST(DeterminismTest, Cib) {
  DocumentTermSpec spec;
  spec.num_documents = 80;
  spec.seed = 8;
  auto ds = MakeDocumentTerm(spec);
  const auto known = ds->GroundTruth("topicsA").value();
  CibOptions opts;
  opts.k = 2;
  opts.restarts = 2;
  opts.seed = 99;
  EXPECT_EQ(RunCib(ds->data(), known, opts)->clustering.labels,
            RunCib(ds->data(), known, opts)->clustering.labels);
}

TEST(DeterminismTest, Disparate) {
  const Matrix data = TestData(9);
  DisparateOptions opts;
  opts.restarts = 2;
  opts.seed = 99;
  auto a = RunDisparateClustering(data, opts);
  auto b = RunDisparateClustering(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->solutions.at(0).labels, b->solutions.at(0).labels);
  EXPECT_EQ(a->solutions.at(1).labels, b->solutions.at(1).labels);
}

TEST(DeterminismTest, ConditionalEnsemble) {
  const Matrix data = TestData(10);
  const std::vector<int> given(data.rows(), 0);
  ConditionalEnsembleOptions opts;
  opts.k = 2;
  opts.ensemble_size = 8;
  opts.seed = 99;
  EXPECT_EQ(RunConditionalEnsemble(data, given, opts)->clustering.labels,
            RunConditionalEnsemble(data, given, opts)->clustering.labels);
}

TEST(DeterminismTest, Proclus) {
  const Matrix data = TestData(11);
  ProclusOptions opts;
  opts.k = 3;
  opts.seed = 99;
  EXPECT_EQ(RunProclus(data, opts)->clustering.labels,
            RunProclus(data, opts)->clustering.labels);
}

TEST(DeterminismTest, Doc) {
  const Matrix data = TestData(12);
  DocOptions opts;
  opts.k = 2;
  opts.w = 2.0;
  opts.seed = 99;
  auto a = RunDoc(data, opts);
  auto b = RunDoc(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->clusters.size(), b->clusters.size());
  for (size_t i = 0; i < a->clusters.size(); ++i) {
    EXPECT_EQ(a->clusters[i].objects, b->clusters[i].objects);
    EXPECT_EQ(a->clusters[i].dims, b->clusters[i].dims);
  }
}

TEST(DeterminismTest, Orclus) {
  const Matrix data = TestData(13);
  OrclusOptions opts;
  opts.k = 2;
  opts.l = 2;
  opts.seed = 99;
  EXPECT_EQ(RunOrclus(data, opts)->clustering.labels,
            RunOrclus(data, opts)->clustering.labels);
}

TEST(DeterminismTest, Msc) {
  const Matrix data = TestData(14);
  MscOptions opts;
  opts.num_views = 2;
  opts.k = 2;
  opts.seed = 99;
  auto a = RunMultipleSpectralViews(data, opts);
  auto b = RunMultipleSpectralViews(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->views.size(), b->views.size());
  for (size_t v = 0; v < a->views.size(); ++v) {
    EXPECT_EQ(a->views[v].dims, b->views[v].dims);
    EXPECT_EQ(a->views[v].clustering.labels, b->views[v].clustering.labels);
  }
}

TEST(DeterminismTest, CoEm) {
  const Matrix data = TestData(15);
  const Matrix v1 = data.SelectColumns({0, 1});
  const Matrix v2 = data.SelectColumns({2, 3});
  CoEmOptions opts;
  opts.k = 2;
  opts.seed = 99;
  EXPECT_EQ(RunCoEm(v1, v2, opts)->consensus.labels,
            RunCoEm(v1, v2, opts)->consensus.labels);
}

TEST(DeterminismTest, Consensus) {
  const Matrix data = TestData(16);
  ConsensusOptions opts;
  opts.ensemble_size = 4;
  opts.k_member = 2;
  opts.k_final = 2;
  opts.seed = 99;
  EXPECT_EQ(RunEnsembleConsensus(data, opts)->consensus.labels,
            RunEnsembleConsensus(data, opts)->consensus.labels);
}

TEST(DeterminismTest, Pipeline) {
  const Matrix data = TestData(17);
  DiscoveryOptions opts;
  opts.num_solutions = 2;
  opts.k = 2;
  opts.seed = 99;
  auto a = DiscoverMultipleClusterings(data, opts);
  auto b = DiscoverMultipleClusterings(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->solutions.size(), b->solutions.size());
  for (size_t i = 0; i < a->solutions.size(); ++i) {
    EXPECT_EQ(a->solutions.at(i).labels, b->solutions.at(i).labels);
  }
}

// Runs `fn` with an explicit pool size, restoring the default afterwards.
template <typename Fn>
auto WithThreads(size_t threads, Fn fn) {
  SetThreadCount(threads);
  auto result = fn();
  SetThreadCount(0);
  return result;
}

// The parallelized kernels promise bit-identical output for every thread
// count (deterministic chunked reduction, fixed chunk boundaries). These
// tests pin that guarantee with exact comparisons — EXPECT_EQ on doubles
// is intentional.

// Field-by-field trace comparison. budget_remaining_ms is wall-clock
// dependent and deliberately excluded.
void ExpectSameTrace(const ConvergenceTrace& a, const ConvergenceTrace& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.winning_restart, b.winning_restart);
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].restart, b.points[i].restart) << "point " << i;
    EXPECT_EQ(a.points[i].iteration, b.points[i].iteration) << "point " << i;
    EXPECT_EQ(a.points[i].objective, b.points[i].objective) << "point " << i;
    EXPECT_EQ(a.points[i].delta, b.points[i].delta) << "point " << i;
    EXPECT_EQ(a.points[i].reseeds, b.points[i].reseeds) << "point " << i;
  }
}

// Bit-for-bit comparison of two runs of one restart-driven algorithm.
void ExpectSameRun(const test::RestartRun& serial,
                   const test::RestartRun& parallel) {
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.objective, parallel.objective);
  EXPECT_EQ(serial.converged, parallel.converged);
  ASSERT_EQ(serial.model.size(), parallel.model.size());
  for (size_t m = 0; m < serial.model.size(); ++m) {
    EXPECT_EQ(serial.model[m].MaxAbsDiff(parallel.model[m]), 0.0)
        << "model " << m;
  }
  ExpectSameTrace(serial.diagnostics.trace, parallel.diagnostics.trace);
}

TEST(ThreadInvarianceTest, RestartDrivenAlgorithms) {
  // Large enough that assignment, D^2 updates and the SSE reduction all
  // span multiple chunks.
  std::vector<ViewSpec> views(2);
  views[0] = {3, 4, 10.0, 1.0, ""};
  views[1] = {3, 4, 10.0, 1.0, ""};
  const Matrix data = MakeMultiView(3000, views, 0, 21)->data();
  for (const test::RestartAlgorithm& a : test::RestartAlgorithms(4, 7)) {
    SCOPED_TRACE(a.site);
    const auto run = [&] { return a.run(data, 2); };
    const test::RestartRun serial = WithThreads(1, run);
    ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
    ASSERT_FALSE(serial.diagnostics.trace.points.empty());
    for (const size_t threads : {2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const test::RestartRun parallel = WithThreads(threads, run);
      ASSERT_TRUE(parallel.status.ok()) << parallel.status.ToString();
      ExpectSameRun(serial, parallel);
    }
  }
}

TEST(ThreadInvarianceTest, DbscanBruteForceAndIndexed) {
  std::vector<ViewSpec> views(1);
  views[0] = {3, 3, 6.0, 0.9, ""};
  const Matrix data = MakeMultiView(900, views, 0, 22)->data();
  for (const bool use_index : {false, true}) {
    DbscanOptions opts;
    opts.eps = 1.5;
    opts.min_pts = 4;
    opts.use_index = use_index;
    const auto run = [&] { return RunDbscan(data, opts).value(); };
    const Clustering serial = WithThreads(1, run);
    for (const size_t threads : {2u, 4u}) {
      EXPECT_EQ(serial.labels, WithThreads(threads, run).labels)
          << "use_index=" << use_index << " threads=" << threads;
    }
  }
}

TEST(ThreadInvarianceTest, SpectralLabels) {
  const Matrix data = TestData(31);
  SpectralOptions opts;
  opts.k = 2;
  opts.seed = 7;
  const auto run = [&] { return RunSpectral(data, opts).value(); };
  const Clustering serial = WithThreads(1, run);
  for (const size_t threads : {2u, 4u}) {
    const Clustering parallel = WithThreads(threads, run);
    EXPECT_EQ(serial.labels, parallel.labels) << "threads=" << threads;
    EXPECT_EQ(serial.quality, parallel.quality) << "threads=" << threads;
  }
}

TEST(ThreadInvarianceTest, TopKEigenVectors) {
  // n = 300 keeps TopKEigen on its block iteration (2b = 22 < n).
  std::vector<ViewSpec> views(2);
  views[0] = {2, 3, 12.0, 0.8, ""};
  views[1] = {2, 2, 8.0, 0.8, ""};
  const Matrix data = MakeMultiView(300, views, 1, 33)->data();
  const Matrix a = NormalizedAffinity(GaussianKernelMatrix(data, 0.0));
  const auto run = [&] { return TopKEigen(a, 3).value(); };
  const SymmetricEigen serial = WithThreads(1, run);
  ASSERT_GT(serial.iterations, 0u);
  for (const size_t threads : {2u, 4u}) {
    const SymmetricEigen parallel = WithThreads(threads, run);
    EXPECT_EQ(serial.values, parallel.values) << "threads=" << threads;
    EXPECT_EQ(serial.iterations, parallel.iterations);
    EXPECT_EQ(serial.vectors.MaxAbsDiff(parallel.vectors), 0.0)
        << "threads=" << threads;
  }
}

TEST(ThreadInvarianceTest, MatmulCovarianceKernel) {
  Rng rng(5);
  Matrix a(700, 9);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) a.at(i, j) = rng.Gaussian(0, 3);
  }
  const Matrix b = a.Transpose();
  const auto product = [&] { return b * a; };
  const auto covariance = [&] { return Covariance(a); };
  const Matrix prod1 = WithThreads(1, product);
  const Matrix cov1 = WithThreads(1, covariance);
  for (const size_t threads : {2u, 4u}) {
    EXPECT_EQ(prod1.MaxAbsDiff(WithThreads(threads, product)), 0.0);
    EXPECT_EQ(cov1.MaxAbsDiff(WithThreads(threads, covariance)), 0.0);
  }
}

TEST(ThreadInvarianceTest, AffinityAndHsic) {
  const Matrix data = TestData(32);
  const Matrix x = data.SelectColumns({0, 1});
  const Matrix y = data.SelectColumns({2, 3});
  const auto kernel = [&] { return GaussianKernelMatrix(data, 0.0); };
  const auto hsic = [&] { return Hsic(x, y).value(); };
  const Matrix k1 = WithThreads(1, kernel);
  const double h1 = WithThreads(1, hsic);
  for (const size_t threads : {2u, 4u}) {
    EXPECT_EQ(k1.MaxAbsDiff(WithThreads(threads, kernel)), 0.0);
    EXPECT_EQ(h1, WithThreads(threads, hsic));
  }
}

TEST(ThreadInvarianceTest, Silhouette) {
  // 1000 rows = 15 full 64-row blocks plus a partial one; noise rows and
  // a singleton cluster ride along.
  std::vector<ViewSpec> views(2);
  views[0] = {3, 4, 6.0, 1.0, ""};
  views[1] = {3, 3, 6.0, 1.0, ""};
  const Matrix data = MakeMultiView(1000, views, 0, 23)->data();
  std::vector<int> labels(data.rows());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = i % 17 == 0 ? -1 : static_cast<int>((i * 7) % 5);
  }
  labels[999] = 42;
  const auto run = [&] { return Silhouette(data, labels).value(); };
  const double serial = WithThreads(1, run);
  for (const size_t threads : {2u, 4u}) {
    const double parallel = WithThreads(threads, run);
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "threads=" << threads;
  }
}

TEST(ThreadInvarianceTest, EnclusSubspaces) {
  const Matrix data = TestData(33);
  EnclusOptions opts;
  opts.xi = 6;
  opts.omega = 6.0;
  opts.max_dims = 3;
  const auto run = [&] { return RunEnclus(data, opts).value(); };
  const std::vector<ScoredSubspace> serial = WithThreads(1, run);
  for (const size_t threads : {2u, 4u}) {
    const std::vector<ScoredSubspace> parallel = WithThreads(threads, run);
    ASSERT_EQ(serial.size(), parallel.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].dims, parallel[i].dims);
      EXPECT_EQ(serial[i].entropy, parallel[i].entropy);
      EXPECT_EQ(serial[i].interest, parallel[i].interest);
    }
  }
}

TEST(DeterminismTest, KMeansConvergenceTrace) {
  const Matrix data = TestData(21);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 3;
  opts.seed = 99;
  RunDiagnostics da, db;
  opts.diagnostics = &da;
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  opts.diagnostics = &db;
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  ASSERT_FALSE(da.trace.empty());
  ExpectSameTrace(da.trace, db.trace);
}

TEST(DeterminismTest, GmmConvergenceTrace) {
  const Matrix data = TestData(22);
  GmmOptions opts;
  opts.k = 2;
  opts.restarts = 2;
  opts.seed = 99;
  RunDiagnostics da, db;
  opts.diagnostics = &da;
  ASSERT_TRUE(RunGmm(data, opts).ok());
  opts.diagnostics = &db;
  ASSERT_TRUE(RunGmm(data, opts).ok());
  ASSERT_FALSE(da.trace.empty());
  ExpectSameTrace(da.trace, db.trace);
}

TEST(ThreadInvarianceTest, KMeansConvergenceTrace) {
  // The recorded objectives/deltas come from deterministic chunked
  // reductions, so the trace must be bit-identical at any thread count.
  const Matrix data = TestData(23);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.seed = 99;
  const auto run = [&] {
    RunDiagnostics diag;
    opts.diagnostics = &diag;
    EXPECT_TRUE(RunKMeans(data, opts).ok());
    return diag;
  };
  const RunDiagnostics serial = WithThreads(1, run);
  ASSERT_FALSE(serial.trace.empty());
  for (const size_t threads : {2u, 4u}) {
    const RunDiagnostics parallel = WithThreads(threads, run);
    ExpectSameTrace(serial.trace, parallel.trace);
  }
}

// --- SIMD backend invariance. -------------------------------------------
//
// The kernel layer promises bit-identical results whether it was compiled
// with intrinsics (-DMULTICLUST_SIMD=ON) or with the portable scalar
// backend: both share one fixed 4-lane/8-lane reduction order and never
// fuse multiply-add. `kernels::ref` is the forced-scalar instantiation of
// the same templates, so comparing fast vs ref *in process* pins exactly
// what a separate SIMD-OFF build would produce. Every kernel call being
// bit-identical makes whole algorithm trajectories (labels, objectives,
// traces) identical by induction. EXPECT_EQ on doubles is intentional.

TEST(SimdInvarianceTest, KMeansAssignmentMatchesScalarBackend) {
  std::vector<ViewSpec> views(2);
  views[0] = {3, 4, 10.0, 1.0, ""};
  views[1] = {2, 3, 8.0, 1.0, ""};  // 7 columns total: exercises the tail
  const Matrix data = MakeMultiView(500, views, 0, 41)->data();
  KMeansOptions opts;
  opts.k = 4;
  opts.seed = 7;
  const Clustering result = RunKMeans(data, opts).value();
  const Matrix& centers = result.centroids;
  const size_t d = data.cols();
  const size_t k = centers.rows();
  std::vector<double> cn(k), cn_ref(k);
  for (size_t c = 0; c < k; ++c) {
    cn[c] = kernels::SquaredNorm(centers.row_data(c), d);
    cn_ref[c] = kernels::ref::SquaredNorm(centers.row_data(c), d);
    ASSERT_EQ(cn[c], cn_ref[c]) << "center " << c;
  }
  const double* centers_flat = centers.row_data(0);
  for (size_t i = 0; i < data.rows(); ++i) {
    const double* row = data.row_data(i);
    const double xn = kernels::SquaredNorm(row, d);
    ASSERT_EQ(xn, kernels::ref::SquaredNorm(row, d)) << "point " << i;
    const size_t fast =
        kernels::NearestNormForm(row, centers_flat, k, d, xn, cn.data());
    const size_t ref = kernels::ref::NearestNormForm(row, centers_flat, k, d,
                                                     xn, cn_ref.data());
    ASSERT_EQ(fast, ref) << "point " << i;
    ASSERT_EQ(kernels::SquaredDistance(row, centers.row_data(fast), d),
              kernels::ref::SquaredDistance(row, centers.row_data(fast), d))
        << "point " << i;
  }
}

TEST(SimdInvarianceTest, MatmulMatchesScalarBackend) {
  // Matrix::operator* routes through the blocked fast GemmRows; the ref
  // instantiation must reproduce it bit-for-bit at blocking-relevant sizes
  // (crosses the 512-column and 64-k panel boundaries).
  Rng rng(6);
  Matrix a(37, 130), b(130, 600);
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) a.at(i, j) = rng.Gaussian(0, 2);
  for (size_t i = 0; i < b.rows(); ++i)
    for (size_t j = 0; j < b.cols(); ++j) b.at(i, j) = rng.Gaussian(0, 2);
  const Matrix fast = a * b;
  Matrix ref(a.rows(), b.cols());  // zero-filled; GemmRows accumulates
  kernels::ref::GemmRows(a.row_data(0), a.cols(), b.row_data(0), b.cols(),
                         ref.row_data(0), 0, a.rows());
  EXPECT_EQ(fast.MaxAbsDiff(ref), 0.0);
}

TEST(SimdInvarianceTest, GaussianKernelMatchesScalarBackend) {
  const Matrix data = TestData(42);
  const double gamma = 0.5;
  const Matrix k = GaussianKernelMatrix(data, gamma);
  const size_t n = data.rows();
  std::vector<double> row(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    kernels::ref::GaussianRow(data.row_data(i), data.row_data(i + 1),
                              n - i - 1, data.cols(), gamma, row.data());
    for (size_t j = i + 1; j < n; ++j) {
      ASSERT_EQ(k.at(i, j), row[j - i - 1]) << "entry (" << i << "," << j
                                            << ")";
    }
  }
}

// --- Float32 assignment path. -------------------------------------------

TEST(DeterminismTest, KMeansFloat32) {
  const Matrix data = TestData(43);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 3;
  opts.seed = 99;
  opts.assign_float32 = true;
  const auto a = RunKMeans(data, opts).value();
  const auto b = RunKMeans(data, opts).value();
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.centroids.MaxAbsDiff(b.centroids), 0.0);
}

TEST(ThreadInvarianceTest, KMeansFloat32LabelsAndObjective) {
  // The f32 assignment sweep and D^2 scans use the same fixed-boundary
  // chunking as the f64 path; updates/objective stay f64. Labels and the
  // objective must be bit-identical at any thread count.
  std::vector<ViewSpec> views(2);
  views[0] = {3, 4, 10.0, 1.0, ""};
  views[1] = {3, 4, 10.0, 1.0, ""};
  const Matrix data = MakeMultiView(3000, views, 0, 44)->data();
  KMeansOptions opts;
  opts.k = 4;
  opts.restarts = 2;
  opts.seed = 7;
  opts.assign_float32 = true;
  const auto run = [&] { return RunKMeans(data, opts).value(); };
  const Clustering serial = WithThreads(1, run);
  for (const size_t threads : {2u, 4u}) {
    const Clustering parallel = WithThreads(threads, run);
    EXPECT_EQ(serial.labels, parallel.labels) << "threads=" << threads;
    EXPECT_EQ(serial.quality, parallel.quality) << "threads=" << threads;
    EXPECT_EQ(serial.centroids.MaxAbsDiff(parallel.centroids), 0.0);
  }
}

TEST(DeterminismTest, SeedsActuallyMatter) {
  // Sanity counterpart: different seeds should (generically) change the
  // random restarts' trajectory. Use meta clustering, whose output is
  // highly seed-dependent by construction.
  const Matrix data = TestData(18);
  MetaClusteringOptions opts;
  opts.num_base = 8;
  opts.k = 2;
  opts.meta_k = 4;
  opts.seed = 1;
  auto a = RunMetaClustering(data, opts);
  opts.seed = 2;
  auto b = RunMetaClustering(data, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_difference = false;
  for (size_t i = 0; i < a->base.size(); ++i) {
    if (a->base[i].labels != b->base[i].labels) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace multiclust
