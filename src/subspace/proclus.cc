#include "subspace/proclus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"

namespace multiclust {

namespace {

double SubspaceManhattan(const Matrix& data, size_t i, size_t medoid,
                         const std::vector<size_t>& dims) {
  const double* a = data.row_data(i);
  const double* b = data.row_data(medoid);
  double s = 0.0;
  for (size_t d : dims) s += std::fabs(a[d] - b[d]);
  return s / static_cast<double>(dims.size());
}

double FullDistance(const Matrix& data, size_t i, size_t j) {
  const double* a = data.row_data(i);
  const double* b = data.row_data(j);
  double s = 0.0;
  for (size_t d = 0; d < data.cols(); ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return std::sqrt(s);
}

// Checkpoint state between medoid-search rounds. The candidate pool is
// serialized (not recomputed) because building it consumes the rng stream
// the loop's bad-medoid replacement continues from.
struct ProclusCkptState {
  size_t step = 0;
  size_t next_iter = 0;
  Rng rng;
  std::vector<size_t> pool;
  std::vector<size_t> medoids;
  bool has_best = false;  // best_cost starts at +inf, unrepresentable in JSON
  std::vector<int> best_labels;
  std::vector<std::vector<size_t>> best_dims;
  double best_cost = 0.0;
  size_t iterations = 0;
  ConvergenceTrace trace;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("step", step);
    ar("next_iter", next_iter);
    ar("rng", rng);
    ar("pool", pool);
    ar("medoids", medoids);
    if (ar.Guard("has_best", has_best)) {
      ar("best_labels", best_labels);
      ar("best_dims", best_dims);
      ar("best_cost", best_cost);
    }
    ar("iterations", iterations);
    ar("trace", trace);
  }
};

uint64_t ProclusFingerprint(const Matrix& data,
                            const ProclusOptions& options) {
  Fingerprint fp;
  fp.Mix("proclus");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.avg_dims));
  fp.Mix(static_cast<uint64_t>(options.a_factor));
  fp.Mix(static_cast<uint64_t>(options.max_iters));
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

SubspaceClustering ProclusResult::AsSubspaceClustering() const {
  SubspaceClustering out;
  const size_t k = dims.size();
  std::vector<SubspaceCluster> clusters(k);
  for (size_t c = 0; c < k; ++c) {
    clusters[c].dims = dims[c];
    std::sort(clusters[c].dims.begin(), clusters[c].dims.end());
    clusters[c].source = "proclus";
  }
  for (size_t i = 0; i < clustering.labels.size(); ++i) {
    const int l = clustering.labels[i];
    if (l >= 0 && static_cast<size_t>(l) < k) {
      clusters[l].objects.push_back(static_cast<int>(i));
    }
  }
  out.clusters = std::move(clusters);
  return out;
}

Result<ProclusResult> RunProclus(const Matrix& data,
                                 const ProclusOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  if (options.k == 0 || options.k > n) {
    return Status::InvalidArgument("PROCLUS: invalid k");
  }
  if (options.avg_dims < 2 || options.avg_dims > d) {
    return Status::InvalidArgument(
        "PROCLUS: avg_dims must be in [2, num dims]");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("PROCLUS", data));
  MULTICLUST_TRACE_SPAN("subspace.proclus.run");
  BudgetTracker guard(options.budget, "proclus");
  ConvergenceRecorder recorder(options.diagnostics, &guard);
  recorder.SetExpectedIterations(options.max_iters);
  Rng rng(options.seed);
  const size_t k = options.k;

  std::vector<size_t> pool;
  std::vector<size_t> medoids;
  std::vector<int> best_labels(n, -1);
  std::vector<std::vector<size_t>> best_dims(k);
  double best_cost = std::numeric_limits<double>::infinity();
  size_t iterations = 0;
  bool stopped_early = false;
  size_t start_iter = 0;

  Checkpointer* ckp = options.budget.checkpoint;
  const ckpt::Slot slot{
      ckp, "proclus", ckp != nullptr ? ProclusFingerprint(data, options) : 0,
      options.diagnostics};
  size_t ckpt_step = 0;
  ProclusCkptState state;
  const auto check_shape = [&](const ProclusCkptState& s) -> Status {
    return s.medoids.size() == k &&
                   s.best_labels.size() == (s.has_best ? n : 0)
               ? Status::OK()
               : Status::ComputationError("checkpoint: state shape mismatch");
  };
  if (slot.Restore(&state, check_shape)) {
    rng = state.rng;
    pool = std::move(state.pool);
    medoids = std::move(state.medoids);
    if (state.has_best) {
      best_labels = std::move(state.best_labels);
      best_dims = std::move(state.best_dims);
      best_cost = state.best_cost;
    }
    iterations = state.iterations;
    start_iter = state.next_iter;
    ckpt_step = state.step;
  } else {
    // --- Initialisation: greedy farthest-point candidate pool. ---
    const size_t pool_size = std::min(n, options.a_factor * k);
    pool.push_back(rng.NextIndex(n));
    std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
    while (pool.size() < pool_size) {
      for (size_t i = 0; i < n; ++i) {
        min_dist[i] =
            std::min(min_dist[i], FullDistance(data, i, pool.back()));
      }
      size_t farthest = 0;
      for (size_t i = 1; i < n; ++i) {
        if (min_dist[i] > min_dist[farthest]) farthest = i;
      }
      pool.push_back(farthest);
    }
    // Current medoids: the first k pool members.
    medoids.assign(pool.begin(), pool.begin() + k);
  }

  // The pool/labels/trace capture runs only for snapshots that are
  // actually serialized, so an armed-but-not-due point pays only the
  // policy check.
  auto snapshot = [&](size_t next_iter, bool flush) -> Status {
    return slot.Snapshot(&ckpt_step, flush, [&] {
      ProclusCkptState s;
      s.step = ckpt_step;
      s.next_iter = next_iter;
      s.rng = rng;
      s.pool = pool;
      s.medoids = medoids;
      s.has_best = std::isfinite(best_cost);
      if (s.has_best) {
        s.best_labels = best_labels;
        s.best_dims = best_dims;
        s.best_cost = best_cost;
      }
      s.iterations = iterations;
      return s;
    });
  };

  for (size_t iter = start_iter; iter < options.max_iters; ++iter) {
    if (guard.Cancelled()) {
      (void)snapshot(iter, /*flush=*/true);
      return guard.CancelledStatus();
    }
    if (guard.ShouldStop(iter)) {
      stopped_early = true;
      break;
    }
    iterations = iter + 1;
    MC_METRIC_COUNT("subspace.proclus.iterations", 1);
    MULTICLUST_TRACE_SPAN("subspace.proclus.round");
    // --- Dimension selection per medoid. ---
    // Locality: points closer to this medoid than to any other.
    std::vector<double> locality_radius(k,
                                        std::numeric_limits<double>::infinity());
    for (size_t a = 0; a < k; ++a) {
      for (size_t b = 0; b < k; ++b) {
        if (a == b) continue;
        locality_radius[a] = std::min(
            locality_radius[a], FullDistance(data, medoids[a], medoids[b]));
      }
    }
    // Mean absolute deviation per (medoid, dim) over the locality.
    std::vector<std::vector<double>> x(k, std::vector<double>(d, 0.0));
    std::vector<size_t> local_counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < k; ++c) {
        if (FullDistance(data, i, medoids[c]) <= locality_radius[c]) {
          ++local_counts[c];
          const double* row = data.row_data(i);
          const double* m = data.row_data(medoids[c]);
          for (size_t j = 0; j < d; ++j) x[c][j] += std::fabs(row[j] - m[j]);
        }
      }
    }
    // z-score of each (c, j) against the per-medoid mean/std.
    struct Entry {
      double z;
      size_t c;
      size_t j;
    };
    std::vector<Entry> entries;
    for (size_t c = 0; c < k; ++c) {
      if (local_counts[c] == 0) continue;
      for (size_t j = 0; j < d; ++j) {
        x[c][j] /= static_cast<double>(local_counts[c]);
      }
      double mean = 0.0;
      for (size_t j = 0; j < d; ++j) mean += x[c][j];
      mean /= static_cast<double>(d);
      double var = 0.0;
      for (size_t j = 0; j < d; ++j) {
        var += (x[c][j] - mean) * (x[c][j] - mean);
      }
      const double sd = std::sqrt(var / std::max<size_t>(1, d - 1)) + 1e-12;
      for (size_t j = 0; j < d; ++j) {
        entries.push_back({(x[c][j] - mean) / sd, c, j});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.z < b.z; });

    // Pick 2 dims per medoid first, then greedily the globally best until
    // k * avg_dims dims are assigned.
    std::vector<std::vector<size_t>> dims(k);
    const size_t total_dims = k * options.avg_dims;
    size_t assigned = 0;
    for (const Entry& e : entries) {
      if (dims[e.c].size() < 2) {
        dims[e.c].push_back(e.j);
        ++assigned;
      }
    }
    for (const Entry& e : entries) {
      if (assigned >= total_dims) break;
      if (std::find(dims[e.c].begin(), dims[e.c].end(), e.j) !=
          dims[e.c].end()) {
        continue;
      }
      dims[e.c].push_back(e.j);
      ++assigned;
    }

    // --- Assignment by Manhattan segmental distance. ---
    std::vector<int> labels(n, -1);
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        if (dims[c].empty()) continue;
        const double dist = SubspaceManhattan(data, i, medoids[c], dims[c]);
        if (dist < best) {
          best = dist;
          labels[i] = static_cast<int>(c);
        }
      }
    }

    // --- Evaluation: mean within-cluster segmental deviation. ---
    double cost = 0.0;
    std::vector<size_t> sizes(k, 0);
    for (size_t i = 0; i < n; ++i) {
      if (labels[i] < 0) continue;
      ++sizes[labels[i]];
      cost += SubspaceManhattan(data, i, medoids[labels[i]],
                                dims[labels[i]]);
    }
    if (MC_FAULT_FIRES("proclus", FaultKind::kInjectNaN, iter)) {
      cost = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("proclus", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "PROCLUS: injected allocation failure growing the per-cluster "
          "dimension sets at iteration " + std::to_string(iter));
    }
    if (!std::isfinite(cost)) {
      return Status::ComputationError(
          "PROCLUS: non-finite segmental cost at iteration " +
          std::to_string(iter));
    }
    if (recorder.enabled()) {
      const double delta =
          std::isfinite(best_cost) ? std::fabs(best_cost - cost) : 0.0;
      recorder.Record(0, iter, cost, delta, 0);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_labels = labels;
      best_dims = dims;
    }

    // --- Replace the medoid of the smallest cluster with a random pool
    //     member (the paper's bad-medoid replacement). ---
    size_t worst = 0;
    for (size_t c = 1; c < k; ++c) {
      if (sizes[c] < sizes[worst]) worst = c;
    }
    medoids[worst] = pool[rng.NextIndex(pool.size())];
    // Persistence point: the round is complete (best-so-far updated, bad
    // medoid replaced). Persisting after the final round is harmless — a
    // resume falls straight through to result construction.
    MC_RETURN_IF_ERROR(snapshot(iter + 1, /*flush=*/false));
  }

  recorder.Finish("proclus", iterations, !stopped_early);
  ProclusResult result;
  result.clustering.labels = std::move(best_labels);
  result.clustering.algorithm = "proclus";
  result.clustering.quality = -best_cost;
  result.clustering.iterations = iterations;
  // PROCLUS is a fixed-round medoid search, so "converged" means the full
  // schedule ran rather than being cut short by a budget.
  result.clustering.converged = !stopped_early;
  result.dims = std::move(best_dims);
  return result;
}

}  // namespace multiclust
