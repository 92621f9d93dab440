#include "metrics/clustering_quality.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/clustering.h"
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

Result<std::vector<Result<double>>> Silhouettes(
    const Matrix& data, const std::vector<std::vector<int>>& labellings,
    const CancelToken* cancel) {
  MULTICLUST_TRACE_SPAN("metrics.silhouette");
  const size_t n = data.rows();
  // The labellings the pass scores: dense labels (noise stays -1) and
  // cluster sizes. The rest get their status here.
  struct Scored {
    size_t index;
    std::vector<int> dense;
    std::vector<size_t> sizes;
  };
  std::vector<Result<double>> results;
  std::vector<Scored> scored;
  for (size_t index = 0; index < labellings.size(); ++index) {
    if (labellings[index].size() != n) {
      results.push_back(Status::InvalidArgument("Silhouette: size mismatch"));
      continue;
    }
    Scored s{index, {}, {}};
    const size_t k = DenseRelabel(labellings[index], &s.dense);
    if (k < 2) {
      results.push_back(
          Status::FailedPrecondition("Silhouette: needs >= 2 clusters"));
      continue;
    }
    s.sizes.assign(k, 0);
    for (int l : s.dense) {
      if (l >= 0) ++s.sizes[l];
    }
    results.push_back(Status::Internal("Silhouette: not scored"));
    scored.push_back(std::move(s));
  }
  if (scored.empty()) return results;
  const size_t num = scored.size();
  std::vector<const int*> label_ptrs(num);
  std::vector<size_t> ks(num);
  for (size_t l = 0; l < num; ++l) {
    label_ptrs[l] = scored[l].dense.data();
    ks[l] = scored[l].sizes.size();
  }

  // s(i) per labelling and row, over fixed row blocks. Each sum for row
  // i includes the j == i term sqrt(0) = +0, an exact identity on a
  // non-negative sum. The token is polled once per block.
  constexpr size_t kRowBlock = 64;
  std::vector<double> score(num * n, 0.0);
  std::vector<unsigned char> counted_row(num * n, 0);
  const auto cancelled = [&] {
    return cancel != nullptr && cancel->cancelled();
  };
  ParallelFor(0, n, kRowBlock, [&](size_t lo, size_t hi) {
    std::vector<std::vector<double>> dist_sum(num);
    std::vector<double*> out(num);
    for (size_t l = 0; l < num; ++l) {
      dist_sum[l].resize(kRowBlock * ks[l]);
      out[l] = dist_sum[l].data();
    }
    for (size_t block = lo; block < hi; block += kRowBlock) {
      if (cancelled()) return;
      const size_t block_end = std::min(block + kRowBlock, hi);
      kernels::ClusterDistanceSumsMulti(
          data.row_data(block), block_end - block, data.row_data(0), n,
          data.cols(), label_ptrs.data(), ks.data(), num, out.data());
      for (size_t l = 0; l < num; ++l) {
        const std::vector<int>& dense = scored[l].dense;
        const std::vector<size_t>& sizes = scored[l].sizes;
        for (size_t i = block; i < block_end; ++i) {
          if (dense[i] < 0) continue;
          const double* sums = out[l] + (i - block) * ks[l];
          const size_t own = dense[i];
          if (sizes[own] <= 1) continue;  // silhouette undefined; skip
          const double a = sums[own] / static_cast<double>(sizes[own] - 1);
          double b = std::numeric_limits<double>::infinity();
          for (size_t c = 0; c < ks[l]; ++c) {
            if (c == own) continue;
            b = std::min(b, sums[c] / static_cast<double>(sizes[c]));
          }
          if (!std::isfinite(b)) continue;
          const double denom = std::max(a, b);
          if (denom > 0) {
            score[l * n + i] = (b - a) / denom;
            counted_row[l * n + i] = 1;
          }
        }
      }
    }
  });
  // The token only ever goes from unset to set, so a skipped block
  // implies it is set here.
  if (cancelled()) return Status::Cancelled("silhouette: cancelled by caller");

  // Ascending serial reduction: the same bits for any thread count.
  for (size_t l = 0; l < num; ++l) {
    double total = 0.0;
    size_t counted = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!counted_row[l * n + i]) continue;
      total += score[l * n + i];
      ++counted;
    }
    results[scored[l].index] =
        counted == 0
            ? Result<double>(Status::FailedPrecondition(
                  "Silhouette: no scorable objects"))
            : Result<double>(total / static_cast<double>(counted));
  }
  return results;
}

Result<double> Silhouette(const Matrix& data, const std::vector<int>& labels,
                          const CancelToken* cancel) {
  MC_ASSIGN_OR_RETURN(std::vector<Result<double>> scores,
                      Silhouettes(data, {labels}, cancel));
  return scores[0];
}

Result<double> DunnIndex(const Matrix& data, const std::vector<int>& labels,
                         const CancelToken* cancel) {
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
    if (i % 64 == 0 && cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("DunnIndex: cancelled by caller");
    }
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
  return SumByCluster(data, dense, k).TakeMeans();
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
