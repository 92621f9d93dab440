#include "cluster/clustering.h"

#include <utility>

#include "common/parallel.h"
#include "linalg/kernels.h"
#include "stats/contingency.h"

namespace multiclust {

size_t Clustering::NumClusters() const {
  std::vector<int> dense;
  return DenseRelabel(labels, &dense);
}

std::vector<std::vector<int>> Clustering::ClusterMembers() const {
  std::vector<int> dense;
  const size_t k = DenseRelabel(labels, &dense);
  std::vector<std::vector<int>> members(k);
  for (size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] >= 0) members[dense[i]].push_back(static_cast<int>(i));
  }
  return members;
}

void Clustering::Canonicalize() {
  std::vector<int> dense;
  DenseRelabel(labels, &dense);
  labels = std::move(dense);
}

std::vector<int> AssignToNearest(const Matrix& data, const Matrix& centers) {
  std::vector<int> labels(data.rows(), -1);
  if (centers.rows() == 0) return labels;
  // Labels are written per row, so the result is the same for any thread
  // count.
  ParallelFor(0, data.rows(), 256, [&](size_t lo, size_t hi) {
    kernels::NearestSquaredRows(data.row_data(lo), hi - lo,
                                centers.row_data(0), centers.rows(),
                                data.cols(), labels.data() + lo);
  });
  return labels;
}

Matrix ClusterSums::TakeMeans() {
  Matrix means = std::exchange(sums, Matrix());
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] == 0) continue;
    double* m = means.row_data(c);
    for (size_t j = 0; j < means.cols(); ++j) {
      m[j] /= static_cast<double>(counts[c]);
    }
  }
  return means;
}

ClusterSums SumByCluster(const Matrix& data, const std::vector<int>& labels,
                         size_t k) {
  ClusterSums cs{std::vector<size_t>(k, 0), Matrix(k, data.cols())};
  for (size_t i = 0; i < data.rows(); ++i) {
    const int c = labels[i];
    if (c < 0) continue;
    ++cs.counts[c];
    kernels::Add(cs.sums.row_data(c), data.row_data(i), data.cols());
  }
  return cs;
}

}  // namespace multiclust
