#ifndef MULTICLUST_TESTS_SUPPORT_NEAREST_ORACLE_H_
#define MULTICLUST_TESTS_SUPPORT_NEAREST_ORACLE_H_

#include <cstddef>

#include "linalg/kernels.h"

namespace multiclust {
namespace test {

/// The per-pair nearest-centre scans that the row-lane kernels
/// (kernels::NearestSquaredRows / NearestNormFormRows) replaced, kept as
/// their label oracle: one SquaredDistance (or Dot) per (row, centre)
/// pair, strict `<`, so ties and NaN distances keep the lowest index.
/// Pass the kernels::ref:: reductions to get the scalar backend's scan.
/// Header-only so simd_kernel_test, determinism_test and
/// bench_micro_kernels share one copy.
using PairReduction = double (*)(const double*, const double*, size_t);

/// argmin_c ||x - centers_c||^2, ties -> lowest index.
inline int NearestSquared(
    const double* x, const double* centers, size_t k, size_t d,
    PairReduction squared_distance = kernels::SquaredDistance) {
  double best = 0.0;
  int best_c = 0;
  for (size_t c = 0; c < k; ++c) {
    const double s = squared_distance(x, centers + c * d, d);
    if (c == 0 || s < best) {
      best = s;
      best_c = static_cast<int>(c);
    }
  }
  return best_c;
}

/// argmin_c x_norm - 2*x.center_c + center_norms[c], ties -> lowest index.
inline int NearestNormForm(const double* x, const double* centers, size_t k,
                           size_t d, double x_norm,
                           const double* center_norms,
                           PairReduction dot = kernels::Dot) {
  double best = 0.0;
  int best_c = 0;
  for (size_t c = 0; c < k; ++c) {
    // 2*dot is exact, so the sum's bits do not depend on FP contraction.
    const double dist = x_norm - 2.0 * dot(x, centers + c * d, d) +
                        center_norms[c];
    if (c == 0 || dist < best) {
      best = dist;
      best_c = static_cast<int>(c);
    }
  }
  return best_c;
}

}  // namespace test
}  // namespace multiclust

#endif  // MULTICLUST_TESTS_SUPPORT_NEAREST_ORACLE_H_
