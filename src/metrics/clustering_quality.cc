#include "metrics/clustering_quality.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>

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
  std::vector<size_t> ks(num), base(num);
  size_t slots = 1;  // the discard slot
  for (size_t l = 0; l < num; ++l) {
    label_ptrs[l] = scored[l].dense.data();
    ks[l] = scored[l].sizes.size();
    base[l] = slots - 1;
    slots += ks[l];
  }

  // Every row's per-cluster distance sums, 4 * (sum of ks + 1) doubles per
  // four rows (the tile kernel's layout), 64-byte aligned so no slot
  // straddles a cache line. calloc hands a large array over as fresh zero
  // pages instead of filling it. Each sum for row i includes the i == i
  // term sqrt(0) = +0, an exact identity on a non-negative sum.
  const size_t stride = 4 * slots;
  const size_t size = (n + 3) / 4 * stride;
  const std::unique_ptr<void, decltype(&std::free)> storage(
      std::calloc(size + 8, sizeof(double)), &std::free);
  if (storage == nullptr) throw std::bad_alloc();
  void* aligned = storage.get();
  size_t space = (size + 8) * sizeof(double);
  double* const acc = static_cast<double*>(
      std::align(64, size * sizeof(double), aligned, space));

  // Tile (I, J), I <= J, of kRowBlock-row blocks runs on anti-diagonal
  // I + J: the tiles of one anti-diagonal share no block, so they touch
  // disjoint sums and run in parallel, and every sum of a block meets the
  // tiles in ascending partner order (the blocks below it, itself, the
  // blocks above it). So the bits do not depend on the pool size. The
  // token is polled once per tile.
  constexpr size_t kRowBlock = 256;
  const size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  const auto cancelled = [&] {
    return cancel != nullptr && cancel->cancelled();
  };
  for (size_t w = 0; w + 1 < 2 * blocks && !cancelled(); ++w) {
    const size_t first = w < blocks ? 0 : w - (blocks - 1);
    ParallelFor(first, w / 2 + 1, 1, [&](size_t lo, size_t hi) {
      for (size_t block = lo; block < hi; ++block) {
        if (cancelled()) return;
        const size_t rows = block * kRowBlock;
        const size_t cols = (w - block) * kRowBlock;
        kernels::ClusterDistanceSumsTile(
            data.row_data(0), data.cols(), label_ptrs.data(), ks.data(), num,
            rows, std::min(rows + kRowBlock, n), cols,
            std::min(cols + kRowBlock, n), acc);
      }
    });
  }
  // The token only ever goes from unset to set, so a skipped tile
  // implies it is set here.
  if (cancelled()) return Status::Cancelled("silhouette: cancelled by caller");

  // s(i) per labelling, summed over the rows in ascending order: the
  // same bits for any thread count.
  for (size_t l = 0; l < num; ++l) {
    const std::vector<int>& dense = scored[l].dense;
    const std::vector<size_t>& sizes = scored[l].sizes;
    double total = 0.0;
    size_t counted = 0;
    for (size_t i = 0; i < n; ++i) {
      if (dense[i] < 0) continue;
      const size_t own = dense[i];
      if (sizes[own] <= 1) continue;  // silhouette undefined; skip
      const double* sums = acc + i / 4 * stride + 4 * base[l] + i % 4;
      const double a = sums[4 * own] / static_cast<double>(sizes[own] - 1);
      double b = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < ks[l]; ++c) {
        if (c == own) continue;
        b = std::min(b, sums[4 * c] / static_cast<double>(sizes[c]));
      }
      if (!std::isfinite(b)) continue;
      const double denom = std::max(a, b);
      if (denom > 0) {
        total += (b - a) / denom;
        ++counted;
      }
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
