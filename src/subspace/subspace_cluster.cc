#include "subspace/subspace_cluster.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

namespace multiclust {

size_t SubspaceCluster::ObjectOverlap(const SubspaceCluster& other) const {
  size_t count = 0;
  size_t i = 0, j = 0;
  while (i < objects.size() && j < other.objects.size()) {
    if (objects[i] == other.objects[j]) {
      ++count;
      ++i;
      ++j;
    } else if (objects[i] < other.objects[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

size_t SubspaceCluster::DimOverlap(const SubspaceCluster& other) const {
  size_t count = 0;
  size_t i = 0, j = 0;
  while (i < dims.size() && j < other.dims.size()) {
    if (dims[i] == other.dims[j]) {
      ++count;
      ++i;
      ++j;
    } else if (dims[i] < other.dims[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

std::vector<std::vector<size_t>> SubspaceClustering::GroupBySubspace() const {
  std::map<std::vector<size_t>, std::vector<size_t>> by_subspace;
  for (size_t i = 0; i < clusters.size(); ++i) {
    by_subspace[clusters[i].dims].push_back(i);
  }
  std::vector<std::vector<size_t>> groups;
  groups.reserve(by_subspace.size());
  for (auto& [dims, idx] : by_subspace) groups.push_back(std::move(idx));
  return groups;
}

std::vector<int> SubspaceClustering::LabelsForGroup(
    const std::vector<size_t>& group, size_t num_objects) const {
  std::vector<int> labels(num_objects, -1);
  int next = 0;
  for (size_t idx : group) {
    for (int obj : clusters[idx].objects) {
      if (obj >= 0 && static_cast<size_t>(obj) < num_objects) {
        labels[obj] = next;
      }
    }
    ++next;
  }
  return labels;
}

size_t SubspaceClustering::NumSubspaces() const {
  std::set<std::vector<size_t>> subspaces;
  for (const SubspaceCluster& c : clusters) subspaces.insert(c.dims);
  return subspaces.size();
}

Result<double> SubspacePairF1(const SubspaceClustering& found,
                              const std::vector<int>& truth) {
  const size_t n = truth.size();
  if (n == 0) return Status::InvalidArgument("SubspacePairF1: empty truth");
  // Predicted co-clustered pairs: union over found clusters.
  std::set<std::pair<int, int>> predicted;
  for (const SubspaceCluster& c : found.clusters) {
    for (size_t i = 0; i < c.objects.size(); ++i) {
      for (size_t j = i + 1; j < c.objects.size(); ++j) {
        predicted.emplace(c.objects[i], c.objects[j]);
      }
    }
  }
  double truth_pairs = 0.0, hit = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (truth[i] < 0) continue;
    for (size_t j = i + 1; j < n; ++j) {
      if (truth[j] != truth[i]) continue;
      truth_pairs += 1.0;
      if (predicted.count({static_cast<int>(i), static_cast<int>(j)})) {
        hit += 1.0;
      }
    }
  }
  double correct_predicted = 0.0;
  for (const auto& [a, b] : predicted) {
    if (truth[a] >= 0 && truth[a] == truth[b]) correct_predicted += 1.0;
  }
  if (predicted.empty() || truth_pairs == 0.0) return 0.0;
  const double precision =
      correct_predicted / static_cast<double>(predicted.size());
  const double recall = hit / truth_pairs;
  if (precision + recall <= 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

std::vector<std::vector<size_t>> AprioriCandidates(
    const std::vector<std::vector<size_t>>& level) {
  std::vector<std::vector<size_t>> candidates;
  for (size_t i = 0; i < level.size(); ++i) {
    const std::vector<size_t>& a = level[i];
    for (size_t j = i + 1; j < level.size(); ++j) {
      const std::vector<size_t>& b = level[j];
      // Sorted: entries sharing a's (k-1)-prefix are contiguous after it.
      if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
      std::vector<size_t> cand = a;
      cand.push_back(b.back());
      // Dropping either of the last two dimensions gives a parent; every
      // other projection must have survived too (downward closure).
      bool all_present = true;
      for (size_t skip = 0; skip + 2 < cand.size() && all_present; ++skip) {
        std::vector<size_t> proj = cand;
        proj.erase(proj.begin() + static_cast<std::ptrdiff_t>(skip));
        all_present = std::binary_search(level.begin(), level.end(), proj);
      }
      if (all_present) candidates.push_back(std::move(cand));
    }
  }
  return candidates;
}

std::vector<SubspaceCluster> UnitsToClusters(
    const std::vector<GridUnit>& units, const std::string& source) {
  // Group unit indices by subspace.
  std::map<std::vector<size_t>, std::vector<size_t>> by_subspace;
  for (size_t i = 0; i < units.size(); ++i) {
    by_subspace[units[i].Dims()].push_back(i);
  }

  std::vector<SubspaceCluster> clusters;
  for (const auto& [dims, idx] : by_subspace) {
    // Union-find over units of this subspace; two units are adjacent when
    // their intervals differ by exactly one step in one dimension and match
    // elsewhere.
    const size_t m = idx.size();
    std::vector<size_t> parent(m);
    for (size_t i = 0; i < m; ++i) parent[i] = i;
    std::function<size_t(size_t)> find = [&](size_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    auto unite = [&](size_t a, size_t b) { parent[find(a)] = find(b); };

    for (size_t a = 0; a < m; ++a) {
      for (size_t b = a + 1; b < m; ++b) {
        const auto& ca = units[idx[a]].constraints;
        const auto& cb = units[idx[b]].constraints;
        int diff_steps = 0;
        bool adjacent = true;
        for (size_t p = 0; p < ca.size(); ++p) {
          const int delta = ca[p].second - cb[p].second;
          if (delta == 0) continue;
          if (delta == 1 || delta == -1) {
            ++diff_steps;
            if (diff_steps > 1) {
              adjacent = false;
              break;
            }
          } else {
            adjacent = false;
            break;
          }
        }
        if (adjacent && diff_steps == 1) unite(a, b);
      }
    }

    std::map<size_t, SubspaceCluster> components;
    for (size_t a = 0; a < m; ++a) {
      const size_t root = find(a);
      SubspaceCluster& c = components[root];
      if (c.dims.empty()) {
        c.dims = dims;
        c.source = source;
      }
      c.objects.insert(c.objects.end(), units[idx[a]].objects.begin(),
                       units[idx[a]].objects.end());
    }
    for (auto& [root, c] : components) {
      std::sort(c.objects.begin(), c.objects.end());
      c.objects.erase(std::unique(c.objects.begin(), c.objects.end()),
                      c.objects.end());
      clusters.push_back(std::move(c));
    }
  }
  return clusters;
}

}  // namespace multiclust
