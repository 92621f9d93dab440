#ifndef MULTICLUST_TESTS_SUPPORT_APRIORI_ORACLE_H_
#define MULTICLUST_TESTS_SUPPORT_APRIORI_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace multiclust {
namespace test {

/// Brute-force apriori level step, the oracle of AprioriCandidates: every
/// (k+1)-subset of [0, d) whose k-subsets are all in `level` (a list of
/// k-dimensional subspaces, each ascending), in lexicographic order. No
/// join, no prefix: the downward-closure definition enumerated directly.
/// Meant for small d (it visits all 2^d subsets).
inline std::vector<std::vector<size_t>> AprioriOracle(
    const std::vector<std::vector<size_t>>& level, size_t k, size_t d) {
  std::vector<std::vector<size_t>> sorted_level = level;
  std::sort(sorted_level.begin(), sorted_level.end());
  std::vector<std::vector<size_t>> out;
  for (size_t mask = 0; mask < (size_t{1} << d); ++mask) {
    std::vector<size_t> subset;
    for (size_t j = 0; j < d; ++j) {
      if (mask & (size_t{1} << j)) subset.push_back(j);
    }
    if (subset.size() != k + 1) continue;
    bool all_present = true;
    for (size_t skip = 0; skip < subset.size() && all_present; ++skip) {
      std::vector<size_t> proj = subset;
      proj.erase(proj.begin() + static_cast<std::ptrdiff_t>(skip));
      all_present = std::binary_search(sorted_level.begin(),
                                       sorted_level.end(), proj);
    }
    if (all_present) out.push_back(std::move(subset));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace test
}  // namespace multiclust

#endif  // MULTICLUST_TESTS_SUPPORT_APRIORI_ORACLE_H_
