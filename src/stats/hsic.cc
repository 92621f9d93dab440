#include "stats/hsic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "common/profile.h"
#include "common/trace.h"
#include "linalg/kernels.h"

namespace multiclust {

namespace {

bool Cancelled(const BudgetTracker* budget) {
  return budget != nullptr && budget->Cancelled();
}

// Once `budget` is cancelled the fill stops and the value is meaningless.
double MedianSquaredDistance(const Matrix& data, const BudgetTracker* budget) {
  const size_t n = data.rows();
  if (n < 2) return 1.0;
  std::vector<double> dists(n * (n - 1) / 2);
  // Pair (i, j), j > i, lands at a closed-form offset, so rows fill
  // disjoint slices in parallel and the vector matches the serial fill.
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi && !Cancelled(budget); ++i) {
      size_t idx = i * (n - 1) - i * (i - 1) / 2;
      for (size_t j = i + 1; j < n; ++j) {
        dists[idx++] = kernels::SquaredDistance(data.row_data(i),
                                                data.row_data(j), data.cols());
      }
    }
  });
  if (dists.empty() || Cancelled(budget)) return 1.0;
  std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                   dists.end());
  const double med = dists[dists.size() / 2];
  return med > 1e-12 ? med : 1.0;
}

// Writes row i of the Gram's upper triangle, entries (i, i..n-1), to
// row_start(i): 1.0, then one GaussianRow over the tail rows i+1..n-1.
// Rows are independent (bit-identical at any thread count); they are left
// unfilled once `budget` is cancelled.
template <typename RowStart>
void FillGaussianUpper(const Matrix& data, double gamma,
                       const RowStart& row_start,
                       const BudgetTracker* budget = nullptr) {
  const size_t n = data.rows();
  if (gamma <= 0.0) gamma = 1.0 / MedianSquaredDistance(data, budget);
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi && !Cancelled(budget); ++i) {
      double* out = row_start(i);
      out[0] = 1.0;
      if (i + 1 >= n) continue;
      kernels::GaussianRow(data.row_data(i), data.row_data(i + 1), n - i - 1,
                           data.cols(), gamma, out + 1);
    }
  });
}

// A Gram as its packed upper triangle, with the row means and grand mean
// of its double centring Kc = H K H (DESIGN.md, "packed Grams").
struct PackedGram {
  size_t n = 0;
  std::vector<double> upper;
  std::vector<double> row_mean;
  double total = 0.0;

  size_t Offset(size_t i) const { return i * (2 * n - i + 1) / 2; }

  // Full row i: entry (j, i) of packed row j for j < i, then packed row i
  // -- the doubles GaussianKernelMatrix mirrors, so the dense row's bits.
  void Row(size_t i, double* out) const {
    for (size_t j = 0, idx = i; j < i; idx += n - j - 1, ++j) {
      out[j] = upper[idx];
    }
    std::copy_n(upper.data() + Offset(i), n - i, out + i);
  }
};

PackedGram BuildPackedGram(const Matrix& data, double gamma,
                           const BudgetTracker* budget) {
  MULTICLUST_TRACE_SPAN("stats.hsic.kernel");
  const size_t n = data.rows();
  PackedGram g;
  g.n = n;
  g.upper.resize(n * (n + 1) / 2);
  telemetry::CountAlloc(g.upper.size() * sizeof(double));
  FillGaussianUpper(
      data, gamma, [&](size_t i) { return &g.upper[g.Offset(i)]; }, budget);
  g.row_mean.resize(n);
  ParallelFor(0, n, 128, [&](size_t lo, size_t hi) {
    std::vector<double> row(n);
    for (size_t i = lo; i < hi && !Cancelled(budget); ++i) {
      g.Row(i, row.data());
      g.row_mean[i] = kernels::Sum(row.data(), n) / static_cast<double>(n);
    }
  });
  g.total = kernels::Sum(g.row_mean.data(), n) / static_cast<double>(n);
  return g;
}

// HSIC tr(Kc_a Kc_b) / (n-1)^2 of every pair a < b of `grams`, row-major,
// as sum_i <Kc_a row i, Kc_b row i> over fixed 256-row chunks (same bits
// at any thread count). Each centred row is shared by all its pairs.
std::vector<double> PairwiseHsic(const std::vector<PackedGram>& grams,
                                 const BudgetTracker* budget) {
  const size_t n = grams.front().n, num_grams = grams.size();
  const size_t num_pairs = num_grams * (num_grams - 1) / 2;
  std::vector<double> hsic = ParallelReduce(
      0, n, 256, std::vector<double>(num_pairs, 0.0),
      [&](size_t lo, size_t hi) {
        std::vector<double> sum(num_pairs, 0.0), row(n), c(num_grams * n);
        for (size_t i = lo; i < hi && !Cancelled(budget); ++i) {
          for (size_t a = 0; a < num_grams; ++a) {
            grams[a].Row(i, row.data());
            kernels::CenterRow(row.data(), grams[a].row_mean[i],
                               grams[a].row_mean.data(), grams[a].total,
                               &c[a * n], n);
          }
          for (size_t a = 0, p = 0; a < num_grams; ++a) {
            for (size_t b = a + 1; b < num_grams; ++b, ++p) {
              sum[p] += kernels::Dot(&c[a * n], &c[b * n], n);
            }
          }
        }
        return sum;
      },
      [](std::vector<double> acc, const std::vector<double>& part) {
        for (size_t p = 0; p < acc.size(); ++p) acc[p] = acc[p] + part[p];
        return acc;
      });
  // 3 flops per centred entry, 2 per trace product; one double each.
  const uint64_t flops = n * n * (3 * num_grams + 2 * num_pairs);
  telemetry::CountFlops(flops, flops * sizeof(double));
  const double denom = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  for (double& h : hsic) h /= denom;
  return hsic;
}

}  // namespace

Matrix GaussianKernelMatrix(const Matrix& data, double gamma,
                            const BudgetTracker* budget) {
  MULTICLUST_TRACE_SPAN("stats.hsic.kernel");
  const size_t n = data.rows();
  Matrix k(n, n);
  // Upper triangle in parallel, then a mirror pass for the lower triangle.
  FillGaussianUpper(
      data, gamma, [&](size_t i) { return &k.at(i, i); }, budget);
  if (Cancelled(budget)) return k;
  ParallelFor(0, n, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = 0; j < i; ++j) k.at(i, j) = k.at(j, i);
    }
  });
  return k;
}

Result<double> Hsic(const Matrix& x, const Matrix& y, double gamma_x,
                    double gamma_y) {
  if (x.rows() != y.rows()) {
    return Status::InvalidArgument("Hsic: samples must be paired (same rows)");
  }
  if (x.rows() < 2) return Status::InvalidArgument("Hsic: need at least 2 rows");
  std::vector<PackedGram> grams;
  grams.push_back(BuildPackedGram(x, gamma_x, nullptr));
  grams.push_back(BuildPackedGram(y, gamma_y, nullptr));
  return PairwiseHsic(grams, nullptr).front();
}

Result<Matrix> HsicMatrix(const Matrix& data, double gamma,
                          const BudgetTracker* budget) {
  const size_t d = data.cols();
  if (data.rows() < 2 || d < 2) {
    return Status::InvalidArgument(
        "HsicMatrix: need at least 2 rows and 2 columns");
  }
  std::vector<PackedGram> grams;
  for (size_t a = 0; a < d && !Cancelled(budget); ++a) {
    grams.push_back(BuildPackedGram(data.SelectColumns({a}), gamma, budget));
  }
  if (Cancelled(budget)) return budget->CancelledStatus();
  const std::vector<double> hsic = PairwiseHsic(grams, budget);
  if (Cancelled(budget)) return budget->CancelledStatus();
  Matrix out(d, d);
  for (size_t a = 0, p = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b, ++p) {
      out.at(a, b) = out.at(b, a) = hsic[p];
    }
  }
  return out;
}

}  // namespace multiclust
