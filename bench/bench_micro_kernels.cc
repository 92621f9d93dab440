// Micro-benchmarks (google-benchmark) of the hot kernels underneath the
// algorithms: pairwise distances, Jacobi eigendecomposition, one-sided
// Jacobi SVD, a Lloyd iteration, dense-unit mining, kernel matrices, the
// HSIC dependence matrix, the exact silhouette and the nearest-centre
// assignment.
//
// The harness flags (--json=PATH, --quick) are consumed before
// benchmark::Initialize, so the usual --benchmark_* flags still work.
// Every per-size timing lands in the JSON document as a timing scalar
// (bench_diff warns, never fails, on those).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "common/rng.h"
#include "data/generators.h"
#include "harness.h"
#include "linalg/decomposition.h"
#include "linalg/kernels.h"
#include "metrics/clustering_quality.h"
#include "stats/grid.h"
#include "stats/hsic.h"
#include "support/nearest_oracle.h"
#include "support/silhouette_oracle.h"

using namespace multiclust;

namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.at(i, j) = rng.Gaussian(0, 1);
  }
  return m;
}

void BM_PairwiseDistances(benchmark::State& state) {
  const Matrix data = RandomMatrix(state.range(0), 8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PairwiseDistances(data));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PairwiseDistances)->Range(64, 512)->Complexity();

void BM_EigenSymmetric(benchmark::State& state) {
  const size_t n = state.range(0);
  Matrix a = RandomMatrix(n + 4, n, 2);
  Matrix spd = a.Transpose() * a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EigenSymmetric(spd));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_EigenSymmetric)->Range(8, 128)->Complexity();

void BM_Svd(benchmark::State& state) {
  const Matrix a = RandomMatrix(state.range(0), state.range(0) / 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSvd(a));
  }
}
BENCHMARK(BM_Svd)->Range(16, 128);

void BM_KMeans(benchmark::State& state) {
  auto ds = MakeBlobs({{{0, 0, 0, 0}, 1.0, 200},
                       {{8, 0, 8, 0}, 1.0, 200},
                       {{0, 8, 0, 8}, 1.0, 200}},
                      4);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 1;
  opts.seed = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(ds->data(), opts));
  }
}
BENCHMARK(BM_KMeans);

void BM_MineDenseUnits(benchmark::State& state) {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 10.0, 0.6, ""};
  views[1] = {2, 3, 10.0, 0.6, ""};
  auto ds = MakeMultiView(300, views, state.range(0), 5);
  auto grid = Grid::Build(ds->data(), 8);
  const std::vector<size_t> thresholds(ds->num_dims() + 1, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineDenseUnits(*grid, thresholds, 3));
  }
}
BENCHMARK(BM_MineDenseUnits)->Arg(0)->Arg(2)->Arg(4);

void BM_GaussianKernelMatrix(benchmark::State& state) {
  const Matrix data = RandomMatrix(state.range(0), 6, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GaussianKernelMatrix(data, 0.5));
  }
}
BENCHMARK(BM_GaussianKernelMatrix)->Range(64, 512);

// mSC's pairwise dependence matrix over n rows in 6 dimensions (median
// bandwidth): six packed Gram builds and fifteen traces, the HSIC phase
// of a spectral-views job.
void BM_HsicMatrix(benchmark::State& state) {
  const Matrix data = RandomMatrix(state.range(0), 6, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HsicMatrix(data));
  }
}
BENCHMARK(BM_HsicMatrix)->Arg(250)->Unit(benchmark::kMillisecond);

// n rows in 6 dimensions under a fixed 3-cluster labelling: the shape of
// every Silhouette call of an auto-k dec-kmeans job.
struct SilhouetteInput {
  Matrix data;
  std::vector<int> labels;
};

SilhouetteInput MakeSilhouetteInput(size_t n) {
  SilhouetteInput in{RandomMatrix(n, 6, 5), std::vector<int>(n)};
  for (size_t i = 0; i < n; ++i) {
    in.labels[i] = static_cast<int>(i % 3);
    in.data.at(i, 0) += 3.0 * static_cast<double>(in.labels[i]);
  }
  return in;
}

void BM_Silhouette(benchmark::State& state) {
  const SilhouetteInput in = MakeSilhouetteInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Silhouette(in.data, in.labels));
  }
}
BENCHMARK(BM_Silhouette)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

// The same rows under select_k's candidate labellings, k = 2..6, scored in
// one Silhouettes pass: the shape of select_k in an auto-k job.
std::vector<std::vector<int>> CandidateLabellings(size_t n) {
  std::vector<std::vector<int>> labellings;
  for (size_t k = 2; k <= 6; ++k) {
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % k);
    labellings.push_back(std::move(labels));
  }
  return labellings;
}

void BM_SilhouetteBatch(benchmark::State& state) {
  const SilhouetteInput in = MakeSilhouetteInput(state.range(0));
  const std::vector<std::vector<int>> labellings =
      CandidateLabellings(in.data.rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Silhouettes(in.data, labellings));
  }
}
BENCHMARK(BM_SilhouetteBatch)->Arg(8000)->Unit(benchmark::kMillisecond);

// n rows in 6 dimensions against 5 centres: the shape of every
// dec-kmeans assignment step of an auto-k job.
struct AssignInput {
  Matrix data;
  Matrix centers;
};

AssignInput MakeAssignInput(size_t n) {
  AssignInput in{RandomMatrix(n, 6, 9), Matrix(5, 6)};
  for (size_t c = 0; c < 5; ++c) in.centers.CopyRowFrom(in.data, 97 * c, c);
  return in;
}

void BM_AssignToNearest(benchmark::State& state) {
  const AssignInput in = MakeAssignInput(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignToNearest(in.data, in.centers));
  }
}
BENCHMARK(BM_AssignToNearest)->Arg(8000)->Unit(benchmark::kMillisecond);

double TimeUnitToMs(benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kNanosecond:
      return 1e-6;
    case benchmark::kMicrosecond:
      return 1e-3;
    case benchmark::kMillisecond:
      return 1.0;
    case benchmark::kSecond:
      return 1e3;
  }
  return 1e-6;
}

// ConsoleReporter that additionally records every per-size iteration run
// into the harness as a timing scalar (aggregates and BigO fits skipped).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::Harness* harness) : harness_(harness) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.report_big_o ||
          run.report_rms) {
        continue;
      }
      if (run.error_occurred) {
        ++errors_;
        continue;
      }
      harness_->Timing(run.benchmark_name() + "_ms",
                       run.GetAdjustedRealTime() * TimeUnitToMs(run.time_unit));
      ++recorded_;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  size_t recorded() const { return recorded_; }
  size_t errors() const { return errors_; }

 private:
  bench::Harness* harness_;
  size_t recorded_ = 0;
  size_t errors_ = 0;
};

// --- Kernel-layer GFLOP/s: scalar (kernels::ref) vs SIMD (kernels::) ----
//
// Direct chrono timings of the vectorized kernel layer against its
// forced-scalar instantiation, reported as GFLOP/s plus a speedup ratio.
// All of these are host-dependent: registered with timing=true so
// bench_diff warns (never fails) on drift, and the >=2x expectations are
// warn-checks for the same reason.

// Host-dependent scalar with a non-ms unit (ValueOptions::Timing pins
// "ms"; these are GFLOP/s and ratios).
bench::ValueOptions HostDependent(const char* unit) {
  bench::ValueOptions o;
  o.unit = unit;
  o.timing = true;
  return o;
}

// Best-of-3 wall time of `calls` invocations of `fn`, in seconds.
template <typename Fn>
double BestSeconds(size_t calls, Fn fn) {
  double best = 1e300;
  fn();  // warm caches and the branch predictor
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t c = 0; c < calls; ++c) fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// Unblocked, unvectorized i-j-k triple loop: the "what a straightforward
// implementation does" baseline for the GEMM comparison.
void NaiveGemm(const double* a, size_t m, size_t kdim, const double* b,
               size_t n, double* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < kdim; ++k) acc += a[i * kdim + k] * b[k * n + j];
      c[i * n + j] = acc;
    }
  }
}

void RecordKernelGflops(bench::Harness* h, bool quick) {
  Rng rng(99);
  const size_t n = 8192;
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Gaussian(0, 1);
    y[i] = rng.Gaussian(0, 1);
  }
  const size_t vec_calls = quick ? 500 : 2000;
  double sink = 0.0;

  struct VecKernel {
    const char* name;
    double flops_per_call;
    double (*fast)(const double*, const double*, size_t);
    double (*ref)(const double*, const double*, size_t);
  };
  const VecKernel vec_kernels[] = {
      {"dot", 2.0 * n, &kernels::Dot, &kernels::ref::Dot},
      {"squared_distance", 3.0 * n, &kernels::SquaredDistance,
       &kernels::ref::SquaredDistance},
  };
  for (const VecKernel& kn : vec_kernels) {
    const double fast_s = BestSeconds(vec_calls, [&] {
      sink += kn.fast(x.data(), y.data(), n);
      benchmark::DoNotOptimize(sink);
    });
    const double ref_s = BestSeconds(vec_calls, [&] {
      sink += kn.ref(x.data(), y.data(), n);
      benchmark::DoNotOptimize(sink);
    });
    const double work = kn.flops_per_call * static_cast<double>(vec_calls);
    const double fast_gflops = work / fast_s / 1e9;
    const double ref_gflops = work / ref_s / 1e9;
    const double speedup = ref_s / fast_s;
    const std::string base = std::string("kernel_") + kn.name;
    h->Scalar(base + "_scalar_gflops", ref_gflops, HostDependent("GFLOP/s"));
    h->Scalar(base + "_simd_gflops", fast_gflops, HostDependent("GFLOP/s"));
    h->Scalar(base + "_speedup", speedup, HostDependent("x"));
  }

  // GEMM: naive triple loop vs blocked-scalar (ref) vs blocked+SIMD
  // (fast), at a size that crosses the cache-blocking panel boundaries.
  const size_t m = 96, kdim = 160, ncols = 600;
  std::vector<double> a(m * kdim), b(kdim * ncols), c(m * ncols);
  for (double& v : a) v = rng.Gaussian(0, 1);
  for (double& v : b) v = rng.Gaussian(0, 1);
  const size_t gemm_calls = quick ? 3 : 10;
  const double gemm_work = 2.0 * static_cast<double>(m) *
                           static_cast<double>(kdim) *
                           static_cast<double>(ncols) *
                           static_cast<double>(gemm_calls);
  const double naive_s = BestSeconds(gemm_calls, [&] {
    NaiveGemm(a.data(), m, kdim, b.data(), ncols, c.data());
    benchmark::DoNotOptimize(c.data());
  });
  const double ref_s = BestSeconds(gemm_calls, [&] {
    std::fill(c.begin(), c.end(), 0.0);  // GemmRows accumulates
    kernels::ref::GemmRows(a.data(), kdim, b.data(), ncols, c.data(), 0, m);
    benchmark::DoNotOptimize(c.data());
  });
  const double fast_s = BestSeconds(gemm_calls, [&] {
    std::fill(c.begin(), c.end(), 0.0);
    kernels::GemmRows(a.data(), kdim, b.data(), ncols, c.data(), 0, m);
    benchmark::DoNotOptimize(c.data());
  });
  h->Scalar("kernel_gemm_naive_gflops", gemm_work / naive_s / 1e9,
            HostDependent("GFLOP/s"));
  h->Scalar("kernel_gemm_blocked_scalar_gflops", gemm_work / ref_s / 1e9,
            HostDependent("GFLOP/s"));
  h->Scalar("kernel_gemm_simd_gflops", gemm_work / fast_s / 1e9,
            HostDependent("GFLOP/s"));
  // Two ratios: _simd_speedup isolates the SIMD gain (blocked-scalar vs
  // blocked+SIMD, same blocking); _speedup is the whole kernel-layer gain
  // over the straightforward triple loop the library used before (which
  // the compiler still auto-vectorizes at the baseline -march, so it is
  // a conservative baseline, not a strawman).
  h->Scalar("kernel_gemm_simd_speedup", ref_s / fast_s, HostDependent("x"));
  const double gemm_speedup = naive_s / fast_s;
  h->Scalar("kernel_gemm_speedup", gemm_speedup, HostDependent("x"));

  // The acceptance bar for the SIMD layer on an AVX2 host. Host-dependent
  // by nature (warn-only): a scalar-only build or a loaded machine must
  // not fail CI.
  const bool simd_on = kernels::Info().compiled_simd;
  const double sq_speedup =
      h->ScalarValue("kernel_squared_distance_speedup", 0.0);
  h->WarnCheck("squared_distance_speedup_2x", !simd_on || sq_speedup >= 2.0,
               "SIMD squared-distance should be >=2x the scalar kernel "
               "(got " + std::to_string(sq_speedup) + "x)");
  h->WarnCheck("gemm_speedup_2x", !simd_on || gemm_speedup >= 2.0,
               "blocked+SIMD GEMM should be >=2x the naive triple loop "
               "(got " + std::to_string(gemm_speedup) + "x)");
}

// Wall time of one call of `fn`, in ms.
template <typename Fn>
double OnceMs(Fn fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Silhouette (vectorised kernel, parallel over row blocks) against the
// serial scalar loop it replaced, one call each. The speedup is
// host-dependent; bitwise equality is not.
void RecordSilhouette(bench::Harness* h) {
  bool identical = true;
  for (const size_t n : {2000, 8000}) {
    const SilhouetteInput in = MakeSilhouetteInput(n);
    double fast = 0.0, serial = 0.0;
    const double fast_ms =
        OnceMs([&] { fast = Silhouette(in.data, in.labels).value(); });
    const double serial_ms = OnceMs(
        [&] { serial = test::SerialSilhouette(in.data, in.labels).value(); });
    const std::string base = "silhouette_" + std::to_string(n);
    h->Scalar(base + "_serial_ms", serial_ms, HostDependent("ms"));
    h->Scalar(base + "_speedup", serial_ms / fast_ms, HostDependent("x"));
    identical = identical && std::memcmp(&fast, &serial, sizeof(double)) == 0;
  }
  // n = 2001 ends in a partial quad and a partial 256-row block; checked,
  // not timed.
  const SilhouetteInput odd = MakeSilhouetteInput(2001);
  const double fast = Silhouette(odd.data, odd.labels).value();
  const double serial = test::SerialSilhouette(odd.data, odd.labels).value();
  identical = identical && std::memcmp(&fast, &serial, sizeof(double)) == 0;
  h->Check("silhouette_bitwise_equal_serial", identical,
           "Silhouette must return the serial loop's bits at n=2000, "
           "n=2001 and n=8000");

  // One Silhouettes pass over select_k's five candidate labellings against
  // five Silhouette calls: the same bits, one distance pass instead of five.
  const SilhouetteInput in = MakeSilhouetteInput(8000);
  const std::vector<std::vector<int>> labellings =
      CandidateLabellings(in.data.rows());
  std::vector<Result<double>> batch;
  std::vector<double> single;
  const double batch_ms =
      OnceMs([&] { batch = Silhouettes(in.data, labellings).value(); });
  const double single_ms = OnceMs([&] {
    for (const std::vector<int>& labels : labellings) {
      single.push_back(Silhouette(in.data, labels).value());
    }
  });
  h->Scalar("silhouette_batch_8000_single_ms", single_ms, HostDependent("ms"));
  h->Scalar("silhouette_batch_8000_speedup", single_ms / batch_ms,
            HostDependent("x"));
  bool batch_equal = batch.size() == single.size();
  for (size_t l = 0; batch_equal && l < batch.size(); ++l) {
    batch_equal = batch[l].ok() && std::memcmp(&batch[l].value(), &single[l],
                                               sizeof(double)) == 0;
  }
  h->Check("silhouette_batch_equal_single", batch_equal,
           "Silhouettes over k = 2..6 must return the bits of five "
           "Silhouette calls at n=8000");
}

// AssignToNearest (row-lane kernel, parallel over row blocks) against the
// per-pair NearestSquared loop it replaced, one call each. The labels
// must be equal; the speedup is host-dependent.
void RecordAssignToNearest(bench::Harness* h) {
  const AssignInput in = MakeAssignInput(8000);
  const size_t n = in.data.rows(), k = in.centers.rows();
  std::vector<int> fast, per_pair(n);
  const double fast_ms =
      OnceMs([&] { fast = AssignToNearest(in.data, in.centers); });
  const double per_pair_ms = OnceMs([&] {
    for (size_t i = 0; i < n; ++i) {
      per_pair[i] = test::NearestSquared(
          in.data.row_data(i), in.centers.row_data(0), k, in.data.cols());
    }
  });
  h->Scalar("assign_8000_per_pair_ms", per_pair_ms, HostDependent("ms"));
  h->Scalar("assign_8000_speedup", per_pair_ms / fast_ms, HostDependent("x"));
  h->Check("assign_to_nearest_equal_per_pair", fast == per_pair,
           "AssignToNearest must return the per-pair NearestSquared labels "
           "at n=8000, d=6, k=5");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_micro_kernels",
                   "micro-benchmarks of the hot kernels");
  if (!h.ParseArgs(&argc, argv)) return h.ExitCode();

  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (h.quick()) args.push_back(min_time.data());
  args.push_back(nullptr);
  int bench_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  CapturingReporter reporter(&h);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  RecordKernelGflops(&h, h.quick());
  RecordSilhouette(&h);
  RecordAssignToNearest(&h);

  // 2+3+3+1+3+2+1+2+1+1 registered (name, size) combinations — a
  // registration that silently disappears should fail the diff, not just
  // shrink it.
  h.Scalar("benchmarks_recorded", static_cast<double>(reporter.recorded()));
  h.Check("all_microbenchmarks_ran",
          reporter.recorded() == 19 && reporter.errors() == 0,
          "all 19 registered micro-benchmark cases must run without error");
  return h.Finish();
}
