#include "subspace/subclu.h"

#include <algorithm>
#include <map>

#include "cluster/dbscan.h"
#include "common/runguard.h"

namespace multiclust {

namespace {

// DBSCAN restricted to `candidates` (object ids) in subspace `dims`.
// Returns clusters as sorted object-id lists.
std::vector<std::vector<int>> DbscanOnSubset(
    const Matrix& data, const std::vector<int>& candidates,
    const std::vector<size_t>& dims, double eps, size_t min_pts) {
  const size_t m = candidates.size();
  const double eps2 = eps * eps;
  std::vector<std::vector<int>> neighbors(m);
  for (size_t i = 0; i < m; ++i) {
    neighbors[i].push_back(static_cast<int>(i));
    for (size_t j = i + 1; j < m; ++j) {
      double s = 0.0;
      const double* a = data.row_data(candidates[i]);
      const double* b = data.row_data(candidates[j]);
      for (size_t d : dims) {
        const double diff = a[d] - b[d];
        s += diff * diff;
        if (s > eps2) break;
      }
      if (s <= eps2) {
        neighbors[i].push_back(static_cast<int>(j));
        neighbors[j].push_back(static_cast<int>(i));
      }
    }
  }
  const Clustering c = DbscanFromNeighbors(neighbors, min_pts);
  std::vector<std::vector<int>> clusters(c.NumClusters());
  for (size_t i = 0; i < m; ++i) {
    if (c.labels[i] >= 0) clusters[c.labels[i]].push_back(candidates[i]);
  }
  for (auto& cl : clusters) std::sort(cl.begin(), cl.end());
  return clusters;
}

}  // namespace

Result<SubspaceClustering> RunSubclu(const Matrix& data,
                                     const SubcluOptions& options) {
  if (options.eps <= 0 || options.min_pts == 0) {
    return Status::InvalidArgument("SUBCLU: eps and min_pts must be positive");
  }
  const size_t n = data.rows();
  const size_t d = data.cols();
  if (n == 0 || d == 0) return Status::InvalidArgument("SUBCLU: empty data");
  MC_RETURN_IF_ERROR(ValidateMatrix("SUBCLU", data));
  const size_t max_dims =
      options.max_dims == 0 ? d : std::min(options.max_dims, d);

  SubspaceClustering result;
  // clusters_by_subspace[S] = clusters found in subspace S.
  std::map<std::vector<size_t>, std::vector<std::vector<int>>> level;

  // Level 1: DBSCAN in each single dimension over all objects.
  std::vector<int> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<int>(i);
  for (size_t dim = 0; dim < d; ++dim) {
    const std::vector<size_t> dims = {dim};
    auto clusters =
        DbscanOnSubset(data, all, dims, options.eps, options.min_pts);
    if (clusters.empty()) continue;
    for (const auto& c : clusters) {
      result.clusters.push_back({dims, c, "subclu"});
    }
    level[dims] = std::move(clusters);
  }

  // Levels 2..max_dims: apriori candidate subspaces.
  for (size_t depth = 2; depth <= max_dims && level.size() >= 2; ++depth) {
    std::map<std::vector<size_t>, std::vector<std::vector<int>>> next;
    std::vector<std::vector<size_t>> subspaces;
    subspaces.reserve(level.size());
    for (const auto& [s, c] : level) subspaces.push_back(s);

    for (const std::vector<size_t>& cand : AprioriCandidates(subspaces)) {
      // Pick the (k-1)-dim projection with the fewest clustered objects
      // (SUBCLU's best-subspace heuristic) and re-cluster only those.
      size_t best_count = n + 1;
      const std::vector<std::vector<int>>* best = nullptr;
      for (size_t skip = 0; skip < cand.size(); ++skip) {
        std::vector<size_t> proj;
        for (size_t p = 0; p < cand.size(); ++p) {
          if (p != skip) proj.push_back(cand[p]);
        }
        // AprioriCandidates keeps only candidates whose every projection
        // is in `level`.
        const std::vector<std::vector<int>>& clusters = level.at(proj);
        size_t count = 0;
        for (const auto& c : clusters) count += c.size();
        if (count < best_count) {
          best_count = count;
          best = &clusters;
        }
      }

      std::vector<std::vector<int>> found;
      for (const std::vector<int>& base_cluster : *best) {
        auto clusters = DbscanOnSubset(data, base_cluster, cand, options.eps,
                                       options.min_pts);
        for (auto& c : clusters) found.push_back(std::move(c));
      }
      if (found.empty()) continue;
      // Deduplicate identical object sets from different base clusters.
      std::sort(found.begin(), found.end());
      found.erase(std::unique(found.begin(), found.end()), found.end());
      for (const auto& c : found) {
        result.clusters.push_back({cand, c, "subclu"});
      }
      next[cand] = std::move(found);
    }
    level = std::move(next);
  }
  return result;
}

}  // namespace multiclust
