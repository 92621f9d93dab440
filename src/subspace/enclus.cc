#include "subspace/enclus.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/trace.h"
#include "stats/grid.h"
#include "subspace/subspace_cluster.h"

namespace multiclust {

Result<std::vector<ScoredSubspace>> RunEnclus(const Matrix& data,
                                              const EnclusOptions& options) {
  if (options.omega <= 0) {
    return Status::InvalidArgument("ENCLUS: omega must be positive");
  }
  MC_ASSIGN_OR_RETURN(Grid grid, Grid::Build(data, options.xi));
  const size_t d = data.cols();
  const size_t max_dims =
      options.max_dims == 0 ? d : std::min(options.max_dims, d);

  MULTICLUST_TRACE_SPAN("subspace.enclus.run");
  std::vector<double> dim_entropy(d);
  {
    MULTICLUST_TRACE_SPAN("subspace.enclus.entropy_scan");
    ParallelFor(0, d, 1, [&](size_t lo, size_t hi) {
      for (size_t j = lo; j < hi; ++j) {
        dim_entropy[j] = grid.SubspaceEntropy({j});
      }
    });
  }

  std::vector<ScoredSubspace> result;
  // Level 1: all single dimensions below the entropy ceiling.
  std::vector<std::vector<size_t>> level;
  for (size_t j = 0; j < d; ++j) {
    if (dim_entropy[j] < options.omega) {
      ScoredSubspace s;
      s.dims = {j};
      s.entropy = dim_entropy[j];
      s.interest = 0.0;  // single dimension has no correlation gain
      if (s.interest >= options.epsilon) result.push_back(s);
      level.push_back({j});
    }
  }

  // Bottom-up: entropy is monotone non-decreasing in dims, so any subspace
  // with a pruned projection is pruned too (downward closure, slide 71).
  for (size_t depth = 2; depth <= max_dims && level.size() >= 2; ++depth) {
    // The entropy scan per candidate subspace is the expensive part of a
    // level; precompute all of them in parallel, then filter serially so
    // the result order matches the serial algorithm.
    const std::vector<std::vector<size_t>> cands = AprioriCandidates(level);
    std::vector<double> cand_entropy(cands.size());
    {
      MULTICLUST_TRACE_SPAN("subspace.enclus.entropy_scan");
      ParallelFor(0, cands.size(), 1, [&](size_t lo, size_t hi) {
        for (size_t c = lo; c < hi; ++c) {
          cand_entropy[c] = grid.SubspaceEntropy(cands[c]);
        }
      });
    }
    std::vector<std::vector<size_t>> next;
    for (size_t c = 0; c < cands.size(); ++c) {
      const std::vector<size_t>& cand = cands[c];
      const double h = cand_entropy[c];
      if (h >= options.omega) continue;
      double sum_h = 0.0;
      for (size_t dim : cand) sum_h += dim_entropy[dim];
      ScoredSubspace s;
      s.dims = cand;
      s.entropy = h;
      s.interest = sum_h - h;
      if (s.interest >= options.epsilon) result.push_back(s);
      next.push_back(cand);
    }
    level = std::move(next);
  }

  std::sort(result.begin(), result.end(),
            [](const ScoredSubspace& a, const ScoredSubspace& b) {
              if (a.entropy != b.entropy) return a.entropy < b.entropy;
              return a.dims < b.dims;
            });
  return result;
}

}  // namespace multiclust
