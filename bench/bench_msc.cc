// E19 (tutorial slide 90): multiple spectral clustering views (mSC,
// axis-aligned variant). HSIC partitions the dimensions into statistically
// independent blocks; spectral clustering inside each block recovers one
// planted view per block — including non-convex (ring) structure that
// centroid methods cannot represent.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "common/rng.h"
#include "data/generators.h"
#include "harness.h"
#include "metrics/multi_solution.h"
#include "metrics/partition_similarity.h"
#include "stats/hsic.h"
#include "subspace/msc.h"

using namespace multiclust;

int main(int argc, char** argv) {
  bench::Harness h("bench_msc",
                   "E19: multiple spectral views via HSIC");
  if (!h.ParseArgs(&argc, argv)) return h.ExitCode();

  // View 1 (dims 0-1): two concentric rings. View 2 (dims 2-3): two blobs.
  // Assignments are independent.
  Rng rng(41);
  const size_t n = h.quick() ? 130 : 200;
  Matrix data(n, 4);
  std::vector<int> rings(n), blobs(n);
  for (size_t i = 0; i < n; ++i) {
    const bool outer = rng.NextDouble() < 0.5;
    rings[i] = outer ? 1 : 0;
    const double r = (outer ? 6.0 : 2.0) + rng.Gaussian(0, 0.15);
    const double theta = rng.Uniform(0, 2 * M_PI);
    data.at(i, 0) = r * std::cos(theta);
    data.at(i, 1) = r * std::sin(theta);
    const bool right = rng.NextDouble() < 0.5;
    blobs[i] = right ? 1 : 0;
    data.at(i, 2) = rng.Gaussian(right ? 5.0 : -5.0, 0.8);
    data.at(i, 3) = rng.Gaussian(right ? 3.0 : -3.0, 0.8);
  }

  std::printf("E19: multiple spectral views via HSIC (slide 90)\n");
  std::printf("planted: rings in dims {0,1}; blobs in dims {2,3};"
              " independent assignments\n\n");

  MscOptions opts;
  opts.num_views = 2;
  opts.k = 2;
  // Local affinity scale suited to the ring thickness (the median
  // heuristic over-smooths concentric rings).
  opts.gamma = 1.0;
  opts.seed = 41;
  auto r = RunMultipleSpectralViews(data, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "mSC failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  bench::Table* views_table = h.AddTable(
      "views", {"dims", "nmi_rings", "nmi_blobs"},
      bench::ValueOptions::Tolerance(1e-6));
  std::set<std::set<size_t>> recovered_blocks;
  double best_rings_nmi = 0.0;
  for (const auto& view : r->views) {
    std::string dims;
    for (size_t d : view.dims) dims += std::to_string(d) + " ";
    const double nmi_rings =
        NormalizedMutualInformation(view.clustering.labels, rings).value();
    const double nmi_blobs =
        NormalizedMutualInformation(view.clustering.labels, blobs).value();
    std::printf("view over dims { %s}: NMI(rings)=%.3f NMI(blobs)=%.3f\n",
                dims.c_str(), nmi_rings, nmi_blobs);
    views_table->Row();
    views_table->TextCell(dims);
    views_table->Cell(nmi_rings);
    views_table->Cell(nmi_blobs);
    recovered_blocks.insert(
        std::set<size_t>(view.dims.begin(), view.dims.end()));
    best_rings_nmi = std::max(best_rings_nmi, nmi_rings);
  }
  auto match = MatchSolutionsToTruths({rings, blobs}, r->solutions.Labels());
  std::printf("\nrecovery of both planted views: %.3f\n",
              match->mean_recovery);
  std::printf("pairwise dim dependence (HSIC):\n");
  for (size_t a = 0; a < 4; ++a) {
    std::printf("  ");
    for (size_t b = 0; b < 4; ++b) {
      std::printf("%8.4f", r->dim_dependence.at(a, b));
    }
    std::printf("\n");
  }
  h.Scalar("mean_recovery", match->mean_recovery,
           bench::ValueOptions::Tolerance(1e-6));
  h.Scalar("best_rings_nmi", best_rings_nmi,
           bench::ValueOptions::Tolerance(1e-6));
  const bool blocks_exact =
      recovered_blocks.count({0, 1}) == 1 && recovered_blocks.count({2, 3}) == 1;
  h.Check("dimension_blocks_recovered", blocks_exact,
          "HSIC must partition the dims into exactly {0,1} and {2,3}");
  h.Check("nonconvex_view_clustered", best_rings_nmi > 0.95,
          "the rings view must be solved — k-means-based methods cannot");
  h.Check("both_views_recovered", match->mean_recovery > 0.95,
          "both planted views must be recovered");
  // mSC's dependence matrix builds each dimension's Gram once; every
  // entry must keep the bits of the per-pair Hsic loop it replaced, with
  // the fixed bandwidth used above and with the median heuristic.
  bool hsic_equal = true;
  for (const double gamma : {opts.gamma, 0.0}) {
    const auto start = std::chrono::steady_clock::now();
    const Matrix m = HsicMatrix(data, gamma).value();
    h.Timing(gamma == 0.0 ? "hsic_matrix_median_ms" : "hsic_matrix_ms",
             std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count());
    for (size_t a = 0; a < data.cols(); ++a) {
      for (size_t b = a + 1; b < data.cols(); ++b) {
        const double pair = Hsic(data.SelectColumns({a}),
                                 data.SelectColumns({b}), gamma, gamma)
                                .value();
        const double ab = m.at(a, b), ba = m.at(b, a);
        hsic_equal = hsic_equal &&
                     std::memcmp(&ab, &pair, sizeof(double)) == 0 &&
                     std::memcmp(&ba, &pair, sizeof(double)) == 0;
      }
    }
  }
  h.Check("hsic_matrix_equal_pairwise", hsic_equal,
          "HsicMatrix must return the bits of the per-pair Hsic loop");
  std::printf("\nexpected shape: the dimension blocks {0,1} and {2,3} are"
              " recovered from the\nHSIC matrix (high within-view, ~0"
              " across), and the ring view is clustered\ncorrectly —"
              " something k-means-based multi-clusterers cannot do.\n");
  return h.Finish();
}
