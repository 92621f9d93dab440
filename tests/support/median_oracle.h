#ifndef MULTICLUST_TESTS_SUPPORT_MEDIAN_ORACLE_H_
#define MULTICLUST_TESTS_SUPPORT_MEDIAN_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "common/runguard.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"

namespace multiclust {
namespace test {

inline bool OracleCancelled(const BudgetTracker* budget) {
  return budget != nullptr && budget->Cancelled();
}

/// The buffered median heuristic that the in-place select replaced, kept
/// verbatim as the bit-identity oracle: every pair distance into one
/// n(n-1)/2 buffer, then a serial nth_element. `MedianSquaredDistance()`
/// and the gamma of every `gamma <= 0` Gram must have exactly these bits.
inline double BufferedMedianSquaredDistance(const Matrix& data,
                                            const BudgetTracker* budget) {
  const size_t n = data.rows();
  if (n < 2) return 1.0;
  std::vector<double> dists(n * (n - 1) / 2);
  // Pair (i, j), j > i, lands at a closed-form offset, so rows fill
  // disjoint slices in parallel and the vector matches the serial fill.
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi && !OracleCancelled(budget); ++i) {
      size_t idx = i * (n - 1) - i * (i - 1) / 2;
      for (size_t j = i + 1; j < n; ++j) {
        dists[idx++] = kernels::SquaredDistance(data.row_data(i),
                                                data.row_data(j), data.cols());
      }
    }
  });
  if (dists.empty() || OracleCancelled(budget)) return 1.0;
  std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                   dists.end());
  const double med = dists[dists.size() / 2];
  return med > 1e-12 ? med : 1.0;
}

/// The fused Gaussian row kernel that the distance and exp kernels
/// replaced, on the scalar reference backend (what a SIMD-off build
/// computes): out[j] = exp(-gamma * ||x - rows_j||^2), rows_j = rows + j*d.
inline void GaussianRowOracle(const double* x, const double* rows,
                              size_t count, size_t d, double gamma,
                              double* out) {
  for (size_t j = 0; j < count; ++j) {
    const double s = kernels::ref::SquaredDistance(x, rows + j * d, d);
    out[j] = std::exp(-gamma * s);
  }
}

/// The dense Gram the old fused path built: 1.0 on the diagonal, row i's
/// tail from one GaussianRowOracle call, the lower triangle mirrored.
inline Matrix GaussianGramOracle(const Matrix& data, double gamma) {
  const size_t n = data.rows();
  Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    k.at(i, i) = 1.0;
    if (i + 1 < n) {
      GaussianRowOracle(data.row_data(i), data.row_data(i + 1), n - i - 1,
                        data.cols(), gamma, &k.at(i, i + 1));
    }
    for (size_t j = 0; j < i; ++j) k.at(i, j) = k.at(j, i);
  }
  return k;
}

}  // namespace test
}  // namespace multiclust

#endif  // MULTICLUST_TESTS_SUPPORT_MEDIAN_ORACLE_H_
