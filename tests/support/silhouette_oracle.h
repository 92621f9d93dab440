#ifndef MULTICLUST_TESTS_SUPPORT_SILHOUETTE_ORACLE_H_
#define MULTICLUST_TESTS_SUPPORT_SILHOUETTE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "stats/contingency.h"

namespace multiclust {
namespace test {

/// The serial scalar mean-silhouette loop that `Silhouette()` replaced,
/// kept verbatim as the bit-identity oracle: the vectorised, parallel
/// library version must return exactly these bits and these statuses.
/// Header-only so metrics_test, determinism_test and bench_micro_kernels
/// share one copy.
inline Result<double> SerialSilhouette(const Matrix& data,
                                       const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("Silhouette: size mismatch");
  }
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  if (k < 2) {
    return Status::FailedPrecondition("Silhouette: needs >= 2 clusters");
  }
  const size_t n = data.rows();
  std::vector<size_t> sizes(k, 0);
  for (int l : dense) {
    if (l >= 0) ++sizes[l];
  }

  double total = 0.0;
  size_t counted = 0;
  std::vector<double> dist_sum(k);
  for (size_t i = 0; i < n; ++i) {
    if (dense[i] < 0) continue;
    std::fill(dist_sum.begin(), dist_sum.end(), 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j == i || dense[j] < 0) continue;
      double s = 0.0;
      for (size_t c = 0; c < data.cols(); ++c) {
        const double d = data.at(i, c) - data.at(j, c);
        s += d * d;
      }
      dist_sum[dense[j]] += std::sqrt(s);
    }
    const size_t own = dense[i];
    if (sizes[own] <= 1) continue;  // silhouette undefined; skip
    const double a = dist_sum[own] / static_cast<double>(sizes[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      if (c == own || sizes[c] == 0) continue;
      b = std::min(b, dist_sum[c] / static_cast<double>(sizes[c]));
    }
    if (!std::isfinite(b)) continue;
    const double denom = std::max(a, b);
    if (denom > 0) {
      total += (b - a) / denom;
      ++counted;
    }
  }
  if (counted == 0) {
    return Status::FailedPrecondition("Silhouette: no scorable objects");
  }
  return total / static_cast<double>(counted);
}

}  // namespace test
}  // namespace multiclust

#endif  // MULTICLUST_TESTS_SUPPORT_SILHOUETTE_ORACLE_H_
