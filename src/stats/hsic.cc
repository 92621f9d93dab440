#include "stats/hsic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

// Entry (i, j), j > i, of a Gram's strict upper triangle lives at
// tail(i)[j - i - 1]: row i's tail is contiguous in the packed and in the
// dense layout alike. Every pass below polls `budget` once per row; once it
// is cancelled the rows left are skipped and the values are meaningless.

// Writes each pair's squared distance into the triangle, once.
template <typename Tail>
void FillSquaredDistances(const Matrix& data, const Tail& tail,
                          const BudgetTracker* budget) {
  const size_t n = data.rows();
  if (n < 2) return;
  ParallelFor(0, n - 1, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi && !Cancelled(budget); ++i) {
      kernels::SquaredDistanceRow(data.row_data(i), data.row_data(i + 1),
                                  n - i - 1, data.cols(), tail(i));
    }
  });
}

// The median heuristic's scale, read in place from a filled triangle: the
// element of rank m/2 (0-based, ascending) of its m = n(n-1)/2 squared
// distances -- the double std::nth_element puts there -- or 1.0 when that
// is <= 1e-12. Squared distances are non-negative (never -0), so their
// IEEE bit patterns sort like the values and an exact radix select finds
// the same double: each level counts, in per-chunk integer histograms,
// the entries that match the bits fixed so far by their next 12 bits, and
// fixes the digit holding the target rank. Once that bucket is small it is
// gathered and nth_element picks the target inside it. Integer counts and
// an order statistic do not depend on the chunking, so neither does the
// result. Scratch: the histograms and the final bucket.
template <typename Tail>
double TriangleMedian(size_t n, const Tail& tail,
                      const BudgetTracker* budget) {
  const size_t m = n < 2 ? 0 : n * (n - 1) / 2;
  if (m == 0) return 1.0;
  // Row ranges [bounds[c], bounds[c + 1]) of about equal pair counts.
  constexpr size_t kChunkPairs = size_t{1} << 16, kMaxChunks = 16;
  const size_t num_chunks =
      std::min(kMaxChunks, (m + kChunkPairs - 1) / kChunkPairs);
  std::vector<size_t> bounds(num_chunks + 1, n - 1);
  bounds[0] = 0;
  for (size_t i = 0, c = 1, seen = 0; i + 1 < n; ++i) {
    seen += n - 1 - i;
    while (c < num_chunks && seen * num_chunks >= c * m) bounds[c++] = i + 1;
  }
  const auto for_each_pair = [&](size_t lo, size_t hi, const auto& fn) {
    for (size_t c = lo; c < hi; ++c) {
      for (size_t i = bounds[c]; i < bounds[c + 1] && !Cancelled(budget);
           ++i) {
        const double* row = tail(i);
        for (size_t j = 0; j < n - i - 1; ++j) fn(row[j]);
      }
    }
  };

  constexpr int kDigitBits = 12;
  constexpr size_t kGatherMax = 4096;
  uint64_t prefix = 0, fixed = 0;  // the target's bits fixed so far
  size_t rank = m / 2, bucket = m;
  int shift = 64;
  while (shift > 0 && bucket > kGatherMax) {
    const int width = std::min(kDigitBits, shift);
    shift -= width;
    const uint64_t digit_mask = (uint64_t{1} << width) - 1;
    const std::vector<uint64_t> hist = ParallelReduce(
        0, num_chunks, 1, std::vector<uint64_t>(digit_mask + 1, 0),
        [&](size_t lo, size_t hi) {
          std::vector<uint64_t> h(digit_mask + 1, 0);
          for_each_pair(lo, hi, [&](double v) {
            const uint64_t u = std::bit_cast<uint64_t>(v);
            if ((u & fixed) == prefix) ++h[(u >> shift) & digit_mask];
          });
          return h;
        },
        [](std::vector<uint64_t> acc, const std::vector<uint64_t>& part) {
          for (size_t b = 0; b < acc.size(); ++b) acc[b] += part[b];
          return acc;
        });
    if (Cancelled(budget)) return 1.0;
    uint64_t digit = 0;
    while (rank >= hist[digit]) rank -= hist[digit++];
    bucket = hist[digit];
    prefix |= digit << shift;
    fixed |= digit_mask << shift;
  }
  double med = std::bit_cast<double>(prefix);  // once every bit is fixed
  if (shift > 0) {
    std::vector<double> vals = ParallelReduce(
        0, num_chunks, 1, std::vector<double>(),
        [&](size_t lo, size_t hi) {
          std::vector<double> part;
          for_each_pair(lo, hi, [&](double v) {
            if ((std::bit_cast<uint64_t>(v) & fixed) == prefix) {
              part.push_back(v);
            }
          });
          return part;
        },
        [](std::vector<double> acc, const std::vector<double>& part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
    if (Cancelled(budget)) return 1.0;
    std::nth_element(vals.begin(), vals.begin() + rank, vals.end());
    med = vals[rank];
  }
  return med > 1e-12 ? med : 1.0;
}

// Fills the Gram's upper triangle, entries (i, i..n-1) of row i at
// row_start(i): squared distances, the median gamma when gamma <= 0, then
// exp(-gamma * s) in place and 1.0 on the diagonal. Rows are independent
// (bit-identical at any thread count).
template <typename RowStart>
void FillGaussianUpper(const Matrix& data, double gamma,
                       const RowStart& row_start,
                       const BudgetTracker* budget = nullptr) {
  const size_t n = data.rows();
  const auto tail = [&](size_t i) { return row_start(i) + 1; };
  FillSquaredDistances(data, tail, budget);
  if (gamma <= 0.0 && !Cancelled(budget)) {
    gamma = 1.0 / TriangleMedian(n, tail, budget);
  }
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi && !Cancelled(budget); ++i) {
      double* out = row_start(i);
      out[0] = 1.0;
      kernels::GaussianFromSquared(gamma, out + 1, n - i - 1);
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

double MedianSquaredDistance(const Matrix& data,
                             const BudgetTracker* budget) {
  const size_t n = data.rows();
  std::vector<double> triangle(n < 2 ? 0 : n * (n - 1) / 2);
  const auto tail = [&](size_t i) {
    return triangle.data() + i * (n - 1) - i * (i - 1) / 2;
  };
  FillSquaredDistances(data, tail, budget);
  return TriangleMedian(n, tail, budget);
}

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
    for (size_t i = lo; i < hi && !Cancelled(budget); ++i) {
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
