// P1: thread-pool scaling of the hot kernels (see DESIGN.md "Threading
// model"). For each kernel, reports wall time and speedup at 1/2/4/8
// threads plus a bit-identity check against the 1-thread result — the
// determinism guarantee is half the point of the pool design.
//
// Expected shape on multicore hardware: near-linear scaling for the
// k-means assignment and matmul kernels (>= 2.5x at 4 threads), somewhat
// less for the affinity matrix (upper-triangle imbalance) and the
// brute-force neighbourhood scan (the parallel path gives up the symmetry
// halving). On a single-core host every speedup is ~1.0 and only the
// "identical" column is informative.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/dbscan.h"
#include "cluster/kmeans.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"
#include "harness.h"
#include "linalg/matrix.h"
#include "stats/hsic.h"

using namespace multiclust;

namespace {

// Set from --quick before any kernel's function-local static workload is
// materialised; the statics bake the scale in on first use.
bool g_quick = false;
int g_reps = 3;

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.at(i, j) = rng.Gaussian(0, 1);
  }
  return m;
}

double Checksum(const Matrix& m) {
  double s = 0.0;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) s += m.at(i, j) * (1.0 + j % 7);
  }
  return s;
}

struct Kernel {
  const char* name;
  const char* id;  // harness metric prefix
  // Runs the kernel once and returns a checksum of its result.
  double (*run)();
};

// n = 20k points, d = 16, k = 8: dominated by the parallel assignment step.
double KMeansKernel() {
  static const Matrix data = RandomMatrix(g_quick ? 4000 : 20000, 16, 11);
  KMeansOptions opts;
  opts.k = 8;
  opts.restarts = 1;
  opts.max_iters = 12;
  opts.seed = 3;
  const Clustering c = RunKMeans(data, opts).value();
  double s = c.quality;
  for (size_t i = 0; i < c.labels.size(); ++i) s += c.labels[i] * 1e-6;
  return s;
}

// (20000 x 48) * (48 x 48): the parallel Matrix::operator* row loop.
double MatmulKernel() {
  static const Matrix a = RandomMatrix(g_quick ? 4000 : 20000, 48, 12);
  static const Matrix b = RandomMatrix(48, 48, 13);
  return Checksum(a * b);
}

// 3000 x 3000 Gaussian affinity matrix (spectral/HSIC substrate).
double AffinityKernel() {
  static const Matrix data = RandomMatrix(g_quick ? 900 : 3000, 8, 14);
  return Checksum(GaussianKernelMatrix(data, 0.5));
}

// Brute-force eps-neighbourhoods over 6000 points.
double NeighborhoodKernel() {
  static const Matrix data = RandomMatrix(g_quick ? 1500 : 6000, 8, 15);
  const auto neighbors = EpsNeighborhoods(data, 2.5, {});
  double s = 0.0;
  for (const auto& list : neighbors) s += static_cast<double>(list.size());
  return s;
}

double TimeIt(double (*fn)(), double* checksum) {
  using clock = std::chrono::steady_clock;
  *checksum = fn();  // warm-up run also produces the checksum
  const auto start = clock::now();
  for (int r = 0; r < g_reps; ++r) fn();
  const std::chrono::duration<double, std::milli> elapsed =
      clock::now() - start;
  return elapsed.count() / g_reps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_parallel_scaling",
                   "P1: thread-pool scaling of the hot kernels");
  if (!h.ParseArgs(&argc, argv)) return h.ExitCode();
  g_quick = h.quick();
  g_reps = h.quick() ? 1 : 3;

  const Kernel kernels[] = {
      {"kmeans-assign(n=20k,d=16,k=8)", "kmeans", KMeansKernel},
      {"matmul(20k x 48 * 48 x 48)", "matmul", MatmulKernel},
      {"affinity(n=3000)", "affinity", AffinityKernel},
      {"eps-neighbors(n=6000)", "neighbors", NeighborhoodKernel},
  };
  const size_t thread_counts[] = {1, 2, 4, 8};

  std::printf("P1: parallel scaling (host reports %zu hardware threads)\n\n",
              HardwareConcurrency());
  std::printf("%-32s %8s %10s %9s %10s\n", "kernel", "threads", "ms/iter",
              "speedup", "identical");
  bool all_identical = true;
  double min_4thread_speedup_fast_kernels = 1e9;
  for (const Kernel& kernel : kernels) {
    bench::Series* ms_series =
        h.AddSeries(std::string(kernel.id) + "_ms", "threads", "ms",
                    bench::ValueOptions::Timing());
    double base_ms = 0.0, base_sum = 0.0;
    for (const size_t threads : thread_counts) {
      SetThreadCount(threads);
      double sum = 0.0;
      const double ms = TimeIt(kernel.run, &sum);
      if (threads == 1) {
        base_ms = ms;
        base_sum = sum;
      }
      std::printf("%-32s %8zu %10.2f %8.2fx %10s\n", kernel.name, threads,
                  ms, base_ms / ms, sum == base_sum ? "yes" : "NO");
      ms_series->Add(static_cast<double>(threads), ms);
      all_identical = all_identical && sum == base_sum;
      if (threads == 4 && (kernel.run == KMeansKernel ||
                           kernel.run == MatmulKernel)) {
        min_4thread_speedup_fast_kernels =
            std::min(min_4thread_speedup_fast_kernels, base_ms / ms);
      }
    }
    std::printf("\n");
  }
  SetThreadCount(0);
  std::printf("expected shape: kmeans/matmul >= 2.5x at 4 threads on >= 4\n"
              "cores; all kernels bit-identical at every thread count.\n");
  h.Check("bit_identical_across_thread_counts", all_identical,
          "every kernel must produce bit-identical results at every thread "
          "count");
  h.WarnCheck("kmeans_matmul_scale_at_4_threads",
              HardwareConcurrency() < 4 ||
                  min_4thread_speedup_fast_kernels >= 2.0,
              "kmeans/matmul should scale near-linearly at 4 threads on a "
              ">= 4-core host (host-dependent)");

  // T1 companion: what the span tracer costs the most span-dense kernel
  // (k-means: four spans per outer iteration) when armed, relative to the
  // disarmed default. The spans sit outside the per-point inner loops, so
  // the delta should be well under the 2% observability budget.
  std::printf("\ntracer overhead (kmeans kernel, 4 threads):\n");
  SetThreadCount(4);
  double sum_off = 0.0, sum_on = 0.0;
  trace::Disable();
  const double ms_off = TimeIt(KMeansKernel, &sum_off);
  trace::Enable();
  trace::Reset();
  const double ms_on = TimeIt(KMeansKernel, &sum_on);
  trace::Disable();
  trace::Reset();
  SetThreadCount(0);
  const double delta_pct = 100.0 * (ms_on - ms_off) / ms_off;
  std::printf("  disarmed %8.2f ms/iter   armed %8.2f ms/iter   "
              "delta %+.2f%%   identical %s\n",
              ms_off, ms_on, delta_pct, sum_off == sum_on ? "yes" : "NO");
  bench::ValueOptions pct_opts;
  pct_opts.unit = "%";
  pct_opts.timing = true;  // derived from wall-clock: warn-only in diffs
  h.Scalar("tracer_overhead_pct", delta_pct, pct_opts);
  h.Check("tracer_preserves_results", sum_off == sum_on,
          "arming the tracer must not change the kernel's result");
  h.WarnCheck("tracer_overhead_within_budget", delta_pct < 5.0,
              "armed-tracer overhead should stay within the observability "
              "budget (host-dependent)");
  return h.Finish();
}
