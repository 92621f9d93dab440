#include "cluster/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/runguard.h"
#include "linalg/kernels.h"

namespace multiclust {

Matrix PairwiseDistances(const Matrix& data) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  Matrix dist(n, n);
  // Upper triangle in parallel (each row owned by one chunk), then a
  // mirror pass — every entry comes from the same expression regardless of
  // thread count. Row i's tail rows i+1..n-1 are contiguous, so one row
  // kernel call fills its squared distances.
  ParallelFor(0, n, 16, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const double* row = data.row_data(i);
      double* upper = dist.row_data(i) + i + 1;
      kernels::SquaredDistanceRow(row, row + d, n - i - 1, d, upper);
      for (size_t j = 0; j < n - i - 1; ++j) upper[j] = std::sqrt(upper[j]);
    }
  });
  ParallelFor(0, n, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = 0; j < i; ++j) dist.at(i, j) = dist.at(j, i);
    }
  });
  return dist;
}

Result<AgglomerativeResult> AgglomerateFromDistances(
    const Matrix& distances, const AgglomerativeOptions& options) {
  const size_t n = distances.rows();
  if (n == 0 || distances.cols() != n) {
    return Status::InvalidArgument(
        "agglomerative: distance matrix must be square and non-empty");
  }
  if (options.k == 0 || options.k > n) {
    return Status::InvalidArgument("agglomerative: invalid k");
  }

  Matrix dist = distances;
  std::vector<int> cluster_id(n);
  std::vector<size_t> sizes(n, 1);
  std::vector<char> active(n, 1);
  for (size_t i = 0; i < n; ++i) cluster_id[i] = static_cast<int>(i);

  AgglomerativeResult result;
  result.merges.reserve(n - 1);
  std::vector<int> flat(n);
  for (size_t i = 0; i < n; ++i) flat[i] = static_cast<int>(i);
  std::vector<std::vector<int>> members(n);
  for (size_t i = 0; i < n; ++i) members[i] = {static_cast<int>(i)};

  size_t remaining = n;
  int next_id = static_cast<int>(n);
  while (remaining > 1) {
    double best = std::numeric_limits<double>::infinity();
    size_t bi = 0, bj = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        if (dist.at(i, j) < best) {
          best = dist.at(i, j);
          bi = i;
          bj = j;
        }
      }
    }
    result.merges.push_back({cluster_id[bi], cluster_id[bj], best});

    const double ni = static_cast<double>(sizes[bi]);
    const double nj = static_cast<double>(sizes[bj]);
    for (size_t h = 0; h < n; ++h) {
      if (!active[h] || h == bi || h == bj) continue;
      const double dih = dist.at(bi, h);
      const double djh = dist.at(bj, h);
      double v = 0.0;
      switch (options.linkage) {
        case Linkage::kSingle:
          v = std::min(dih, djh);
          break;
        case Linkage::kComplete:
          v = std::max(dih, djh);
          break;
        case Linkage::kAverage:
          v = (ni * dih + nj * djh) / (ni + nj);
          break;
      }
      dist.at(bi, h) = v;
      dist.at(h, bi) = v;
    }
    sizes[bi] += sizes[bj];
    active[bj] = 0;
    cluster_id[bi] = next_id++;
    members[bi].insert(members[bi].end(), members[bj].begin(),
                       members[bj].end());
    members[bj].clear();
    --remaining;

    if (remaining == options.k) {
      int label = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!active[i]) continue;
        for (int obj : members[i]) flat[obj] = label;
        ++label;
      }
    }
  }
  if (options.k == n) {
    for (size_t i = 0; i < n; ++i) flat[i] = static_cast<int>(i);
  }

  result.flat.labels = std::move(flat);
  result.flat.algorithm = "agglomerative";
  result.flat.Canonicalize();
  return result;
}

Result<AgglomerativeResult> RunAgglomerative(
    const Matrix& data, const AgglomerativeOptions& options) {
  if (data.rows() == 0) {
    return Status::InvalidArgument("agglomerative: empty data");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("agglomerative", data));
  return AgglomerateFromDistances(PairwiseDistances(data), options);
}

Result<Clustering> AgglomerativeClusterer::Cluster(const Matrix& data) {
  MC_ASSIGN_OR_RETURN(AgglomerativeResult r, RunAgglomerative(data, options_));
  return r.flat;
}

}  // namespace multiclust
