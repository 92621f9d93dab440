#include "metrics/clustering_quality.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/trace.h"
#include "linalg/kernels.h"
#include "stats/contingency.h"

namespace multiclust {

Result<double> SumSquaredError(const Matrix& data,
                               const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("SumSquaredError: size mismatch");
  }
  MC_ASSIGN_OR_RETURN(Matrix means, ClusterMeans(data, labels));
  std::vector<int> dense;
  DenseRelabel(labels, &dense);
  double sse = 0.0;
  for (size_t i = 0; i < data.rows(); ++i) {
    if (dense[i] < 0) continue;
    const double* row = data.row_data(i);
    const double* mean = means.row_data(dense[i]);
    for (size_t j = 0; j < data.cols(); ++j) {
      const double d = row[j] - mean[j];
      sse += d * d;
    }
  }
  return sse;
}

Result<double> Silhouette(const Matrix& data,
                          const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("Silhouette: size mismatch");
  }
  MULTICLUST_TRACE_SPAN("metrics.silhouette");
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  if (k < 2) {
    return Status::FailedPrecondition("Silhouette: needs >= 2 clusters");
  }
  const size_t n = data.rows();
  // Counting sort of the non-noise rows by cluster: cluster c's members
  // are members[offsets[c] .. offsets[c+1]), in ascending row order, so
  // every per-cluster distance sum adds its terms in ascending j.
  std::vector<size_t> offsets(k + 1, 0);
  for (int l : dense) {
    if (l >= 0) ++offsets[l + 1];
  }
  for (size_t c = 0; c < k; ++c) offsets[c + 1] += offsets[c];
  std::vector<size_t> members(offsets[k]);
  {
    std::vector<size_t> next(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      if (dense[i] >= 0) members[next[dense[i]]++] = i;
    }
  }
  const auto size_of = [&](size_t c) { return offsets[c + 1] - offsets[c]; };

  // s(i) per row, over fixed row blocks. The sum for row i includes the
  // j == i term sqrt(0) = +0, an exact identity on a non-negative sum.
  constexpr size_t kRowBlock = 64;
  std::vector<double> score(n, 0.0);
  std::vector<unsigned char> scored(n, 0);
  ParallelFor(0, n, kRowBlock, [&](size_t lo, size_t hi) {
    std::vector<double> dist_sum(kRowBlock * k);
    for (size_t block = lo; block < hi; block += kRowBlock) {
      const size_t block_end = std::min(block + kRowBlock, hi);
      kernels::ClusterDistanceSums(data.row_data(block), block_end - block,
                                   data.row_data(0), data.cols(),
                                   members.data(), offsets.data(), k,
                                   dist_sum.data());
      for (size_t i = block; i < block_end; ++i) {
        if (dense[i] < 0) continue;
        const double* sums = dist_sum.data() + (i - block) * k;
        const size_t own = dense[i];
        if (size_of(own) <= 1) continue;  // silhouette undefined; skip
        const double a = sums[own] / static_cast<double>(size_of(own) - 1);
        double b = std::numeric_limits<double>::infinity();
        for (size_t c = 0; c < k; ++c) {
          if (c == own) continue;
          b = std::min(b, sums[c] / static_cast<double>(size_of(c)));
        }
        if (!std::isfinite(b)) continue;
        const double denom = std::max(a, b);
        if (denom > 0) {
          score[i] = (b - a) / denom;
          scored[i] = 1;
        }
      }
    }
  });

  // Ascending serial reduction: the same bits for any thread count.
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!scored[i]) continue;
    total += score[i];
    ++counted;
  }
  if (counted == 0) {
    return Status::FailedPrecondition("Silhouette: no scorable objects");
  }
  return total / static_cast<double>(counted);
}

Result<double> DunnIndex(const Matrix& data, const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("DunnIndex: size mismatch");
  }
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  if (k < 2) {
    return Status::FailedPrecondition("DunnIndex: needs >= 2 clusters");
  }
  const size_t n = data.rows();
  double min_inter = std::numeric_limits<double>::infinity();
  double max_diam = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (dense[i] < 0) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (dense[j] < 0) continue;
      double s = 0.0;
      for (size_t c = 0; c < data.cols(); ++c) {
        const double d = data.at(i, c) - data.at(j, c);
        s += d * d;
      }
      const double dist = std::sqrt(s);
      if (dense[i] == dense[j]) {
        max_diam = std::max(max_diam, dist);
      } else {
        min_inter = std::min(min_inter, dist);
      }
    }
  }
  if (max_diam <= 0.0) {
    return Status::FailedPrecondition("DunnIndex: zero intra-cluster spread");
  }
  return min_inter / max_diam;
}

Result<Matrix> ClusterMeans(const Matrix& data,
                            const std::vector<int>& labels) {
  if (data.rows() != labels.size()) {
    return Status::InvalidArgument("ClusterMeans: size mismatch");
  }
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  Matrix means(k, data.cols());
  std::vector<size_t> counts(k, 0);
  for (size_t i = 0; i < data.rows(); ++i) {
    if (dense[i] < 0) continue;
    ++counts[dense[i]];
    for (size_t j = 0; j < data.cols(); ++j) {
      means.at(dense[i], j) += data.at(i, j);
    }
  }
  for (size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    for (size_t j = 0; j < data.cols(); ++j) {
      means.at(c, j) /= static_cast<double>(counts[c]);
    }
  }
  return means;
}

double NoiseFraction(const std::vector<int>& labels) {
  if (labels.empty()) return 0.0;
  size_t noise = 0;
  for (int l : labels) {
    if (l < 0) ++noise;
  }
  return static_cast<double>(noise) / static_cast<double>(labels.size());
}

size_t NumClusters(const std::vector<int>& labels) {
  std::vector<int> dense;
  return DenseRelabel(labels, &dense);
}

}  // namespace multiclust
