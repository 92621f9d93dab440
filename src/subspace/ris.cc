#include "subspace/ris.h"

#include <algorithm>
#include <cmath>

#include "subspace/subspace_cluster.h"

namespace multiclust {

namespace {

// Fraction of objects whose eps-neighbourhood in `dims` has >= min_pts
// members (including the object).
double CoreFraction(const Matrix& data, const std::vector<size_t>& dims,
                    double eps, size_t min_pts) {
  const size_t n = data.rows();
  const double eps2 = eps * eps;
  std::vector<size_t> neighbor_count(n, 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double s = 0.0;
      const double* a = data.row_data(i);
      const double* b = data.row_data(j);
      for (size_t dim : dims) {
        const double diff = a[dim] - b[dim];
        s += diff * diff;
        if (s > eps2) break;
      }
      if (s <= eps2) {
        ++neighbor_count[i];
        ++neighbor_count[j];
      }
    }
  }
  size_t cores = 0;
  for (size_t c : neighbor_count) {
    if (c >= min_pts) ++cores;
  }
  return static_cast<double>(cores) / static_cast<double>(n);
}

}  // namespace

Result<std::vector<RankedSubspace>> RunRis(const Matrix& data,
                                           const RisOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  if (n == 0 || d == 0) return Status::InvalidArgument("RIS: empty data");
  if (options.eps <= 0 || options.min_pts == 0) {
    return Status::InvalidArgument("RIS: eps and min_pts must be positive");
  }
  const size_t max_dims =
      options.max_dims == 0 ? d : std::min(options.max_dims, d);

  // Per-dimension data spans, for the uniform baseline.
  std::vector<double> span(d, 1.0);
  for (size_t j = 0; j < d; ++j) {
    double mn = data.at(0, j), mx = data.at(0, j);
    for (size_t i = 1; i < n; ++i) {
      mn = std::min(mn, data.at(i, j));
      mx = std::max(mx, data.at(i, j));
    }
    span[j] = std::max(mx - mn, 1e-9);
  }
  // Expected core fraction for uniform data in subspace S: the expected
  // neighbourhood count is n * prod_j min(1, 2 eps / span_j) (an upper
  // bound using the L_inf box that contains the eps-ball); cores appear
  // when that expectation reaches min_pts. We use the smooth ratio
  // expected_neighbors / min_pts capped at 1 as baseline.
  auto baseline = [&](const std::vector<size_t>& dims) {
    double vol = 1.0;
    for (size_t j : dims) {
      vol *= std::min(1.0, 2.0 * options.eps / span[j]);
    }
    const double expected = static_cast<double>(n) * vol;
    return std::min(1.0, expected / static_cast<double>(options.min_pts));
  };

  std::vector<RankedSubspace> result;
  std::vector<std::vector<size_t>> level;
  for (size_t j = 0; j < d; ++j) {
    const std::vector<size_t> dims = {j};
    const double frac = CoreFraction(data, dims, options.eps,
                                     options.min_pts);
    if (frac <= 0) continue;  // monotonicity: no cores, prune supersets
    RankedSubspace rs;
    rs.dims = dims;
    rs.core_fraction = frac;
    rs.quality = frac / std::max(baseline(dims), 1e-6);
    if (rs.quality >= options.min_quality) result.push_back(rs);
    level.push_back(dims);
  }

  for (size_t depth = 2; depth <= max_dims && level.size() >= 2; ++depth) {
    std::vector<std::vector<size_t>> next;
    for (const std::vector<size_t>& cand : AprioriCandidates(level)) {
      const double frac = CoreFraction(data, cand, options.eps,
                                       options.min_pts);
      if (frac <= 0) continue;
      RankedSubspace rs;
      rs.dims = cand;
      rs.core_fraction = frac;
      rs.quality = frac / std::max(baseline(cand), 1e-6);
      if (rs.quality >= options.min_quality) result.push_back(rs);
      next.push_back(cand);
    }
    level = std::move(next);
  }

  std::sort(result.begin(), result.end(),
            [](const RankedSubspace& a, const RankedSubspace& b) {
              if (a.quality != b.quality) return a.quality > b.quality;
              return a.dims < b.dims;
            });
  return result;
}

}  // namespace multiclust
