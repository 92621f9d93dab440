#include "altspace/coala.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "cluster/hierarchical.h"
#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace multiclust {

namespace {

// Full merge-loop state of one COALA run. The dist/violations matrices are
// Lance-Williams-mutated in place, so resuming means restoring them
// verbatim — everything else (active set, group sizes, memberships, merge
// stats) rides along.
struct CoalaCkptState {
  size_t step = 0;
  size_t iter = 0;
  Matrix dist;
  Matrix violations;
  std::vector<int> active;
  std::vector<size_t> sizes;
  std::vector<std::vector<int>> members;
  size_t quality_merges = 0;
  size_t dissimilarity_merges = 0;
  ConvergenceTrace trace;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("step", step);
    ar("iter", iter);
    ar("dist", dist);
    ar("violations", violations);
    ar("active", active);
    ar("sizes", sizes);
    ar("members", members);
    ar("quality_merges", quality_merges);
    ar("dissimilarity_merges", dissimilarity_merges);
    ar("trace", trace);
  }
};

uint64_t CoalaFingerprint(const Matrix& data, const std::vector<int>& given,
                          const CoalaOptions& options) {
  Fingerprint fp;
  fp.Mix("coala");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.MixDouble(options.w);
  for (int g : given) fp.Mix(static_cast<uint64_t>(static_cast<int64_t>(g)));
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<Clustering> RunCoala(const Matrix& data, const std::vector<int>& given,
                            const CoalaOptions& options, CoalaStats* stats) {
  const size_t n = data.rows();
  if (n == 0) return Status::InvalidArgument("COALA: empty data");
  if (given.size() != n) {
    return Status::InvalidArgument("COALA: given clustering size mismatch");
  }
  if (options.k == 0 || options.k > n) {
    return Status::InvalidArgument("COALA: invalid k");
  }
  if (options.w <= 0) {
    return Status::InvalidArgument("COALA: w must be positive");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("COALA", data));
  MULTICLUST_TRACE_SPAN("altspace.coala.run");
  BudgetTracker guard(options.budget, "coala");
  ConvergenceRecorder recorder(options.diagnostics, &guard);
  // Agglomerative: one merge per outer iteration, from n singleton groups
  // down to k.
  recorder.SetExpectedIterations(n > options.k ? n - options.k : 0);

  // Average-link distances between current groups, maintained with the
  // Lance-Williams update. violations(i, j) counts cannot-link pairs between
  // groups i and j; a "dissimilarity merge" requires violations == 0.
  Matrix dist = PairwiseDistances(data);
  Matrix violations(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (given[i] >= 0 && given[i] == given[j]) {
        violations.at(i, j) = 1.0;
        violations.at(j, i) = 1.0;
      }
    }
  }

  std::vector<char> active(n, 1);
  std::vector<size_t> sizes(n, 1);
  std::vector<std::vector<int>> members(n);
  for (size_t i = 0; i < n; ++i) members[i] = {static_cast<int>(i)};

  CoalaStats local_stats;
  size_t remaining = n;
  size_t iter = 0;
  bool stopped_early = false;

  Checkpointer* ckp = options.budget.checkpoint;
  const ckpt::Slot slot{
      ckp, "coala", ckp != nullptr ? CoalaFingerprint(data, given, options) : 0,
      options.diagnostics};
  CoalaCkptState state;
  size_t ckpt_step = 0;
  // Post-restore shape check: every merge-state array covers n objects.
  const auto check_shape = [n](const CoalaCkptState& s) -> Status {
    const bool ok = s.dist.rows() == n && s.dist.cols() == n &&
                    s.violations.rows() == n && s.violations.cols() == n &&
                    s.active.size() == n && s.sizes.size() == n &&
                    s.members.size() == n;
    return ok ? Status::OK()
              : Status::ComputationError("checkpoint: state shape mismatch");
  };
  if (slot.Restore(&state, check_shape)) {
    dist = std::move(state.dist);
    violations = std::move(state.violations);
    for (size_t i = 0; i < n; ++i) active[i] = state.active[i] != 0;
    sizes = std::move(state.sizes);
    members = std::move(state.members);
    local_stats.quality_merges = state.quality_merges;
    local_stats.dissimilarity_merges = state.dissimilarity_merges;
    iter = state.iter;
    ckpt_step = state.step;
    remaining = 0;
    for (size_t i = 0; i < n; ++i) remaining += active[i] ? 1 : 0;
  }
  // Persists the full merge state; `flush` forces an unconditional write
  // (cancellation path), otherwise the policy decides. The O(n^2) state
  // capture runs only for snapshots the checkpointer actually serializes.
  auto snapshot = [&](bool flush) -> Status {
    return slot.Snapshot(&ckpt_step, flush, [&] {
      CoalaCkptState s;
      s.step = ckpt_step;
      s.iter = iter;
      s.dist = dist;
      s.violations = violations;
      s.active.assign(active.begin(), active.end());
      s.sizes = sizes;
      s.members = members;
      s.quality_merges = local_stats.quality_merges;
      s.dissimilarity_merges = local_stats.dissimilarity_merges;
      return s;
    });
  };

  while (remaining > options.k) {
    if (guard.Cancelled()) {
      (void)snapshot(/*flush=*/true);
      return guard.CancelledStatus();
    }
    if (guard.ShouldStop(iter)) {
      stopped_early = true;
      break;
    }
    const double inf = std::numeric_limits<double>::infinity();
    double d_qual = inf, d_diss = inf;
    size_t qi = 0, qj = 0, di = 0, dj = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        const double d = dist.at(i, j);
        if (d < d_qual) {
          d_qual = d;
          qi = i;
          qj = j;
        }
        if (violations.at(i, j) == 0.0 && d < d_diss) {
          d_diss = d;
          di = i;
          dj = j;
        }
      }
    }

    if (MC_FAULT_FIRES("coala", FaultKind::kInjectNaN, iter)) {
      d_qual = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("coala", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "COALA: injected allocation failure growing the merge distance "
          "matrix at merge " + std::to_string(iter));
    }
    // The Lance-Williams recurrence cannot produce NaN from finite
    // distances, so a NaN here means an injected fault or corrupted state.
    if (std::isnan(d_qual) || std::isnan(d_diss)) {
      return Status::ComputationError(
          "COALA: non-finite merge distance at merge " + std::to_string(iter));
    }

    size_t mi, mj;
    // Quality merge when it is much better than the best constraint-
    // respecting merge (d_qual < w * d_diss), or when no dissimilarity
    // merge exists at all.
    double merged_dist;
    if (d_diss == inf || d_qual < options.w * d_diss) {
      mi = qi;
      mj = qj;
      merged_dist = d_qual;
      ++local_stats.quality_merges;
      MC_METRIC_COUNT("altspace.coala.quality_merges", 1);
    } else {
      mi = di;
      mj = dj;
      merged_dist = d_diss;
      ++local_stats.dissimilarity_merges;
      MC_METRIC_COUNT("altspace.coala.dissimilarity_merges", 1);
    }
    if (recorder.enabled()) {
      // The "objective" of a merge step is the chosen linkage distance;
      // delta is the gap between the two candidate merges (0 when only
      // one candidate exists).
      const double gap = d_diss == inf ? 0.0 : std::fabs(d_diss - d_qual);
      recorder.Record(0, iter, merged_dist, gap, 0);
    }

    // Merge mj into mi.
    const double ni = static_cast<double>(sizes[mi]);
    const double nj = static_cast<double>(sizes[mj]);
    for (size_t h = 0; h < n; ++h) {
      if (!active[h] || h == mi || h == mj) continue;
      const double v =
          (ni * dist.at(mi, h) + nj * dist.at(mj, h)) / (ni + nj);
      dist.at(mi, h) = v;
      dist.at(h, mi) = v;
      const double viol = violations.at(mi, h) + violations.at(mj, h);
      violations.at(mi, h) = viol;
      violations.at(h, mi) = viol;
    }
    sizes[mi] += sizes[mj];
    active[mj] = 0;
    members[mi].insert(members[mi].end(), members[mj].begin(),
                       members[mj].end());
    members[mj].clear();
    --remaining;
    ++iter;
    // Persistence point: the merge is complete and all state is
    // self-consistent. Covers the final merge too — a resume then simply
    // falls through the loop condition.
    MC_RETURN_IF_ERROR(snapshot(/*flush=*/false));
  }

  // A budget-stopped run returns the partial dendrogram cut: more than
  // `k` clusters, flagged via `converged == false`.
  recorder.Finish("coala", iter, !stopped_early);
  Clustering out;
  out.labels.assign(n, -1);
  out.algorithm = "coala";
  out.iterations = iter;
  out.converged = !stopped_early;
  int label = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    for (int obj : members[i]) out.labels[obj] = label;
    ++label;
  }
  if (stats != nullptr) *stats = local_stats;
  return out;
}

}  // namespace multiclust
