#ifndef MULTICLUST_TESTS_SUPPORT_HSIC_ORACLE_H_
#define MULTICLUST_TESTS_SUPPORT_HSIC_ORACLE_H_

#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "stats/hsic.h"

namespace multiclust {
namespace test {

/// The dense HSIC that the packed-Gram `Hsic()` replaced, kept verbatim
/// as the bit-identity oracle: two full n x n Grams, two centred n x n
/// copies, and the row-against-row trace over 256-row chunks. `Hsic()`
/// and every off-diagonal entry of `HsicMatrix()` must return exactly
/// these bits. Header-only so stats_test and determinism_test share one
/// copy. DenseHsicOfGrams takes the two Grams ready-made.
inline double DenseHsicOfGrams(const Matrix& k, const Matrix& l) {
  const size_t n = k.rows();
  auto centre = [n](const Matrix& m) {
    std::vector<double> row_mean(n, 0.0);
    ParallelFor(0, n, 128, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        row_mean[i] = kernels::Sum(m.row_data(i), n) / static_cast<double>(n);
      }
    });
    const double total =
        kernels::Sum(row_mean.data(), n) / static_cast<double>(n);
    Matrix c(n, n);
    ParallelFor(0, n, 128, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        kernels::CenterRow(m.row_data(i), row_mean[i], row_mean.data(), total,
                           c.row_data(i), n);
      }
    });
    return c;
  };
  const Matrix kc = centre(k);
  const Matrix lc = centre(l);
  const double trace = ParallelReduce(
      0, n, 256, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          s += kernels::Dot(kc.row_data(i), lc.row_data(i), n);
        }
        return s;
      },
      [](double a, double b) { return a + b; });
  const double denom = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  return trace / denom;
}

inline Result<double> DenseHsic(const Matrix& x, const Matrix& y,
                                double gamma_x = 0.0, double gamma_y = 0.0) {
  if (x.rows() != y.rows()) {
    return Status::InvalidArgument("Hsic: samples must be paired (same rows)");
  }
  if (x.rows() < 2) return Status::InvalidArgument("Hsic: need at least 2 rows");
  return DenseHsicOfGrams(GaussianKernelMatrix(x, gamma_x),
                          GaussianKernelMatrix(y, gamma_y));
}

}  // namespace test
}  // namespace multiclust

#endif  // MULTICLUST_TESTS_SUPPORT_HSIC_ORACLE_H_
