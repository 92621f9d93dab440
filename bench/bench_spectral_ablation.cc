// A2 (ablation): the TopKEigen tolerance behind spectral clustering.
// Sweeps the residual tolerance of the block eigensolver and measures wall
// time and clustering quality on the two-rings benchmark — documenting
// where the embedding becomes exact and what each tighter decade costs.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "data/generators.h"
#include "harness.h"
#include "metrics/partition_similarity.h"
#include "stats/hsic.h"

using namespace multiclust;

namespace {

// RunSpectral with the eigensolver tolerance exposed as the knob under
// ablation.
Result<Clustering> SpectralWithTol(const Matrix& data, size_t k, double gamma,
                                   double tol, uint64_t seed) {
  MC_ASSIGN_OR_RETURN(Matrix embed,
                      SpectralEmbedding(GaussianKernelMatrix(data, gamma), k,
                                        RunBudget{}, tol));
  KMeansOptions km;
  km.k = k;
  km.restarts = 5;
  km.seed = seed;
  return RunKMeans(embed, km);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_spectral_ablation",
                   "A2: TopKEigen tolerance vs spectral quality");
  if (!h.ParseArgs(&argc, argv)) return h.ExitCode();

  auto ds = MakeTwoRings(h.quick() ? 80 : 100, 1.5, 6.0, 0.08, 111);
  const auto truth = ds->GroundTruth("rings").value();

  std::printf("A2: TopKEigen tolerance vs spectral quality\n\n");
  std::printf("%10s %12s %10s\n", "tol", "time(ms)", "ARI");
  bench::Series* ari_series = h.AddSeries(
      "ari_vs_tol", "-log10(tol)", "ARI",
      bench::ValueOptions::Tolerance(1e-6));
  bench::Series* time_series = h.AddSeries(
      "time_vs_tol", "-log10(tol)", "ms", bench::ValueOptions::Timing());
  bool tight_exact = true;
  double loose_ari = 1.0;
  const std::vector<double> tols =
      h.quick() ? std::vector<double>{0.5, 1e-4, 1e-10}
                : std::vector<double>{0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6,
                                      1e-8, 1e-10, 1e-12};
  for (double tol : tols) {
    const auto t0 = std::chrono::steady_clock::now();
    auto c = SpectralWithTol(ds->data(), 2, 2.0, tol, 111);
    const auto t1 = std::chrono::steady_clock::now();
    if (!c.ok()) continue;
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double ari = AdjustedRandIndex(c->labels, truth).value();
    std::printf("%10.0e %12.1f %10.3f\n", tol, ms, ari);
    ari_series->Add(-std::log10(tol), ari);
    time_series->Add(-std::log10(tol), ms);
    if (tol <= 1e-4 && ari < 0.999) tight_exact = false;
    if (tol >= 0.5) loose_ari = ari;
  }
  h.Check("loose_tolerance_breaks_embedding", loose_ari < 0.9,
          "tol=0.5 should stop the iteration before the rings separate");
  h.Check("tight_tolerance_exact", tight_exact,
          "every tol <= 1e-4 must separate the rings exactly");
  std::printf("\nexpected shape: a loose tolerance stops the iteration"
              " before the ring\nembedding separates; from ~1e-4 on the"
              " result is exact and each tighter\ndecade only adds"
              " iterations (the rings' graph has many eigenvalues near 1,\n"
              "so convergence here is slow). The library default is"
              " 1e-10.\n");
  return h.Finish();
}
