#include "subspace/orclus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "linalg/decomposition.h"
#include "linalg/kernels.h"

namespace multiclust {

double ProjectedSquaredDistance(const double* x, size_t xd,
                                const std::vector<double>& centroid,
                                const Matrix& basis) {
  const size_t q = basis.cols();
  const size_t rows = basis.rows() < xd ? basis.rows() : xd;
  // proj = basis^T (x - c), accumulated row by row: each basis row is
  // contiguous, so the update vectorizes over the q output coordinates
  // (the column-strided dot in the naive form cannot).
  std::vector<double> proj(q, 0.0);
  for (size_t j = 0; j < rows; ++j) {
    kernels::Axpy(x[j] - centroid[j], basis.row_data(j), proj.data(), q);
  }
  return kernels::SquaredNorm(proj.data(), q);
}

double ProjectedSquaredDistance(const std::vector<double>& x,
                                const std::vector<double>& centroid,
                                const Matrix& basis) {
  return ProjectedSquaredDistance(x.data(), x.size(), centroid, basis);
}

namespace {

struct Group {
  std::vector<double> centroid;
  Matrix basis;  // d x q least-spread eigenvectors
  std::vector<int> members;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("c", centroid);
    ar("b", basis);
    ar("m", members);
  }
};

// Last q identity axes: the degenerate-group / failed-eigensolve fallback.
Matrix AxisFallbackBasis(size_t d, size_t q) {
  Matrix basis(d, q);
  for (size_t c = 0; c < q; ++c) basis.at(d - 1 - c, c) = 1.0;
  return basis;
}

// Least-spread orthonormal basis (q smallest-eigenvalue eigenvectors of the
// member covariance). Never fails: tiny groups, rank-deficient covariances
// and eigensolver breakdowns all degrade to the identity-axis basis so a
// single degenerate group cannot abort the whole run.
Matrix LeastSpreadBasis(const Matrix& data, const std::vector<int>& members,
                        size_t q) {
  const size_t d = data.cols();
  q = std::min(q, d);
  if (members.size() < 2) return AxisFallbackBasis(d, q);
  std::vector<size_t> rows(members.begin(), members.end());
  const Matrix sub = data.SelectRows(rows);
  Matrix cov = Covariance(sub);
  // Ridge regularisation: a collapsed group (duplicate points, members
  // confined to a hyperplane) yields a singular covariance on which the
  // Jacobi sweep can stall. The jitter is orders of magnitude below any
  // meaningful spread and leaves the eigenvectors of well-conditioned
  // covariances untouched to ~1e-10.
  double trace = 0.0;
  for (size_t j = 0; j < d; ++j) trace += cov.at(j, j);
  const double ridge = 1e-10 * (trace / static_cast<double>(d)) + 1e-12;
  for (size_t j = 0; j < d; ++j) cov.at(j, j) += ridge;
  Result<SymmetricEigen> eig = EigenSymmetric(cov);
  if (!eig.ok()) return AxisFallbackBasis(d, q);
  // Eigenvalues are sorted descending; take the trailing q columns.
  Matrix basis(d, q);
  for (size_t c = 0; c < q; ++c) {
    for (size_t j = 0; j < d; ++j) {
      const double v = eig->vectors.at(j, d - q + c);
      if (!std::isfinite(v)) return AxisFallbackBasis(d, q);
      basis.at(j, c) = v;
    }
  }
  return basis;
}

std::vector<double> CentroidOf(const Matrix& data,
                               const std::vector<int>& members) {
  std::vector<double> c(data.cols(), 0.0);
  if (members.empty()) return c;
  for (int m : members) {
    const double* row = data.row_data(m);
    for (size_t j = 0; j < data.cols(); ++j) c[j] += row[j];
  }
  for (double& x : c) x /= static_cast<double>(members.size());
  return c;
}

// Mean projected energy of a hypothetical merge of groups a and b in the
// merged group's own least-spread q-dim subspace (ORCLUS's merge cost).
Result<double> MergeCost(const Matrix& data, const Group& a, const Group& b,
                         size_t q) {
  std::vector<int> merged = a.members;
  merged.insert(merged.end(), b.members.begin(), b.members.end());
  if (merged.empty()) return 0.0;
  const Matrix basis = LeastSpreadBasis(data, merged, q);
  const std::vector<double> centroid = CentroidOf(data, merged);
  double energy = 0.0;
  for (int m : merged) {
    energy += ProjectedSquaredDistance(data.row_data(m), data.cols(), centroid,
                                       basis);
  }
  return energy / static_cast<double>(merged.size());
}

}  // namespace

namespace {

// Mid-restart resume state for one RunOrclusOnce invocation: the merge
// schedule's full working set. The refinement loop is NOT checkpointed —
// it is a pure replay from the last merge-loop persistence point (the rng
// is untouched between seeding and refinement, so its saved position
// already covers the refinement's empty-group reseeds).
struct OrclusSeed {
  size_t start_iter = 0;
  std::vector<Group> groups;
  double qc = 0.0;
  bool has_prev = false;
  double prev_energy = 0.0;
  size_t iterations = 0;
  Rng rng;  ///< stream position at the persistence point
};

// One ORCLUS restart. `mid` is the checkpointed mid-restart state: read
// when `resuming`, refreshed whenever `persist` serializes a snapshot (so
// the O(k·d²) group copy happens only then).
Result<OrclusResult> RunOrclusOnce(const Matrix& data,
                                   const OrclusOptions& options,
                                   uint64_t seed, BudgetTracker* guard,
                                   size_t restart,
                                   ConvergenceRecorder* recorder,
                                   OrclusSeed* mid, bool resuming,
                                   ckpt::RestartPersistFn persist) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  Rng rng(seed);
  size_t iterations = 0;
  bool stopped_early = false;

  // Seeds: k0 = a_factor * k random objects, working dimensionality starts
  // at d and decays towards l as clusters merge towards k. The decay
  // factors depend only on this *initial* kc, so they are recomputed
  // identically on resume before the working set is overwritten.
  size_t kc = std::min(n, std::max(options.k, options.a_factor * options.k));
  const double alpha =
      std::pow(static_cast<double>(options.k) / static_cast<double>(kc),
               1.0 / static_cast<double>(options.max_iters));
  const double beta =
      std::pow(static_cast<double>(options.l) / static_cast<double>(d),
               1.0 / static_cast<double>(options.max_iters));

  std::vector<Group> groups;
  double qc = static_cast<double>(d);
  double prev_energy = std::numeric_limits<double>::infinity();
  size_t start_iter = 0;
  if (resuming) {
    groups = mid->groups;
    kc = groups.size();
    qc = mid->qc;
    prev_energy = mid->has_prev ? mid->prev_energy
                                : std::numeric_limits<double>::infinity();
    iterations = mid->iterations;
    start_iter = mid->start_iter;
    rng = mid->rng;
  } else {
    groups.resize(kc);
    const std::vector<size_t> picks = rng.SampleWithoutReplacement(n, kc);
    for (size_t g = 0; g < kc; ++g) {
      groups[g].centroid = data.Row(picks[g]);
      groups[g].basis = Matrix::Identity(d);
    }
  }

  // Merge-loop persistence point before iteration `next_iter`.
  const auto checkpoint = [&](size_t next_iter, bool flush) {
    return persist(flush, [&] {
      mid->start_iter = next_iter;
      mid->groups = groups;
      mid->qc = qc;
      mid->has_prev = std::isfinite(prev_energy);
      mid->prev_energy = mid->has_prev ? prev_energy : 0.0;
      mid->iterations = iterations;
      mid->rng = rng;
    });
  };

  for (size_t iter = start_iter; iter < options.max_iters || kc > options.k;
       ++iter) {
    if (guard->Cancelled()) {
      (void)checkpoint(iter, /*flush=*/true);
      return guard->CancelledStatus();
    }
    if (guard->ShouldStop(iter)) {
      stopped_early = true;
      break;
    }
    MC_METRIC_COUNT("subspace.orclus.iterations", 1);
    MULTICLUST_TRACE_SPAN("subspace.orclus.iteration");
    iterations = iter + 1;
    // --- Assign: nearest centroid by projected distance. ---
    for (Group& g : groups) g.members.clear();
    for (size_t i = 0; i < n; ++i) {
      const double* x = data.row_data(i);
      double best = std::numeric_limits<double>::infinity();
      size_t best_g = 0;
      for (size_t g = 0; g < groups.size(); ++g) {
        const double dist = ProjectedSquaredDistance(
            x, data.cols(), groups[g].centroid, groups[g].basis);
        if (dist < best) {
          best = dist;
          best_g = g;
        }
      }
      groups[best_g].members.push_back(static_cast<int>(i));
    }
    // Drop empty groups.
    const size_t before_drop = groups.size();
    groups.erase(std::remove_if(groups.begin(), groups.end(),
                                [](const Group& g) {
                                  return g.members.empty();
                                }),
                 groups.end());
    const size_t dropped = before_drop - groups.size();
    if (dropped > 0) MC_METRIC_COUNT("subspace.orclus.dropped_groups", dropped);
    kc = groups.size();

    // --- Update subspaces at the current working dimensionality. ---
    const size_t q = std::max(options.l, static_cast<size_t>(
                                             std::lround(qc)));
    for (Group& g : groups) {
      g.centroid = CentroidOf(data, g.members);
      g.basis = LeastSpreadBasis(data, g.members, q);
    }

    // --- Merge down towards the schedule's cluster count (always at
    //     least one merge per round while above k, so the schedule cannot
    //     stall on rounding). ---
    size_t target = std::max(
        options.k,
        static_cast<size_t>(std::floor(static_cast<double>(kc) * alpha)));
    if (kc > options.k && target >= kc) target = kc - 1;
    while (groups.size() > target) {
      double best_cost = std::numeric_limits<double>::infinity();
      size_t ba = 0, bb = 1;
      // Merge quality is judged at the *target* dimensionality l: the
      // final clusters must be thin in an l-dimensional oriented subspace,
      // and evaluating at the (larger) working dimensionality would reduce
      // to total variance and favour spatially co-located but differently
      // oriented fragments.
      for (size_t a = 0; a < groups.size(); ++a) {
        for (size_t b = a + 1; b < groups.size(); ++b) {
          MC_ASSIGN_OR_RETURN(double cost,
                              MergeCost(data, groups[a], groups[b],
                                        options.l));
          if (cost < best_cost) {
            best_cost = cost;
            ba = a;
            bb = b;
          }
        }
      }
      groups[ba].members.insert(groups[ba].members.end(),
                                groups[bb].members.begin(),
                                groups[bb].members.end());
      groups[ba].centroid = CentroidOf(data, groups[ba].members);
      groups[ba].basis = LeastSpreadBasis(data, groups[ba].members, q);
      groups.erase(groups.begin() + bb);
    }
    kc = groups.size();
    qc = std::max(static_cast<double>(options.l), qc * beta);
    if (recorder->enabled()) {
      // Mean projected energy at the current working dimensionality — the
      // quantity the merge schedule drives down. Only computed when a
      // diagnostics sink is attached.
      double e = 0.0;
      for (const Group& g : groups) {
        for (int m : g.members) {
          e += ProjectedSquaredDistance(data.row_data(m), data.cols(),
                                        g.centroid, g.basis);
        }
      }
      e /= static_cast<double>(n);
      const double delta =
          std::isfinite(prev_energy) ? std::fabs(prev_energy - e) : 0.0;
      recorder->Record(restart, iter, e, delta, dropped);
      prev_energy = e;
    }
    if (kc <= options.k &&
        static_cast<size_t>(std::lround(qc)) <= options.l &&
        iter + 1 >= options.max_iters) {
      break;
    }
    if (iter > options.max_iters + 8) break;  // safety
    // Persistence point: the schedule continues, so a resumed run picks up
    // at iter + 1. The exits above fall through to the refinement loop,
    // which replays deterministically from the previous snapshot.
    MC_RETURN_IF_ERROR(checkpoint(iter + 1, /*flush=*/false));
  }

  // Final refinement at (k, l): iterate projected assignment and subspace
  // updates until the labeling stabilises (projected k-means in each
  // cluster's own oriented subspace). Round 0 runs even past the deadline,
  // so a stopped run still assigns every object.
  std::vector<int> labels(n, -1);
  bool refined = false;
  for (size_t round = 0; round < 20; ++round) {
    if (guard->Cancelled()) return guard->CancelledStatus();
    if (round > 0 && guard->DeadlineExpired()) {
      stopped_early = true;
      break;
    }
    for (Group& g : groups) {
      g.centroid = CentroidOf(data, g.members);
      g.basis = LeastSpreadBasis(data, g.members, options.l);
    }
    for (Group& g : groups) g.members.clear();
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      const double* x = data.row_data(i);
      double best = std::numeric_limits<double>::infinity();
      size_t best_g = 0;
      for (size_t g = 0; g < groups.size(); ++g) {
        const double dist = ProjectedSquaredDistance(
            x, data.cols(), groups[g].centroid, groups[g].basis);
        if (dist < best) {
          best = dist;
          best_g = g;
        }
      }
      if (labels[i] != static_cast<int>(best_g)) changed = true;
      labels[i] = static_cast<int>(best_g);
      groups[best_g].members.push_back(static_cast<int>(i));
    }
    // Re-seed emptied groups at the object farthest from its centroid.
    for (Group& g : groups) {
      if (!g.members.empty()) continue;
      g.members.push_back(static_cast<int>(rng.NextIndex(n)));
      changed = true;
    }
    if (!changed &&
        !MC_FAULT_FIRES("orclus", FaultKind::kForceNonConvergence, round)) {
      refined = true;
      break;
    }
  }

  OrclusResult result;
  double energy = 0.0;
  for (const Group& g : groups) {
    for (int m : g.members) {
      energy += ProjectedSquaredDistance(data.row_data(m), data.cols(),
                                         g.centroid, g.basis);
    }
  }
  if (MC_FAULT_FIRES("orclus", FaultKind::kInjectNaN, 0)) {
    energy = std::numeric_limits<double>::quiet_NaN();
  }
  if (MC_FAULT_FIRES("orclus", FaultKind::kAllocFail, 0)) {
    return Status::ComputationError(
        "ORCLUS: injected allocation failure growing the projected "
        "cluster bases");
  }
  if (!std::isfinite(energy)) {
    return Status::ComputationError("ORCLUS: non-finite projected energy");
  }
  result.projected_energy = energy / static_cast<double>(n);
  result.clustering.labels = std::move(labels);
  result.clustering.algorithm = "orclus";
  result.clustering.iterations = iterations;
  result.clustering.converged = refined && !stopped_early;
  result.clustering.Canonicalize();
  for (const Group& g : groups) {
    result.subspaces.push_back({g.basis});
  }
  return result;
}

// Checkpoint schema of a finished restart's OrclusResult (the subspaces
// are stored as their bare basis matrices).
struct OrclusResultFields {
  OrclusResult& r;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("energy", r.projected_energy);
    ar("labels", r.clustering.labels);
    ar("iterations", r.clustering.iterations);
    ar("converged", r.clustering.converged);
    ar("subspaces", ckpt::Each{r.subspaces, &OrientedSubspace::basis});
  }
};

// Shared checkpoint state of one RunOrclus invocation (mirrors the
// k-means layout: outer restart bookkeeping + optional mid-restart seed).
struct OrclusCkptState {
  size_t step = 0;
  size_t restart = 0;
  Rng outer_rng;
  bool have_best = false;
  OrclusResult best;
  Status last_error = Status::OK();
  ConvergenceTrace trace;
  bool mid_restart = false;
  uint64_t restart_seed = 0;  ///< seed the running restart was launched with
  OrclusSeed seed;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("step", step);
    ar("restart", restart);
    ar("outer_rng", outer_rng);
    if (ar.Guard("have_best", have_best)) ar("best", OrclusResultFields{best});
    ar("last_error", last_error);
    ar("trace", trace);
    if (ar.Guard("mid_restart", mid_restart)) {
      ar("restart_seed", ckpt::Hex{restart_seed});
      ar("next_iter", seed.start_iter);
      ar("groups", seed.groups);
      ar("qc", seed.qc);
      ar("has_prev", seed.has_prev);
      ar("prev_energy", seed.prev_energy);
      ar("iterations", seed.iterations);
      ar("rng", seed.rng);
    }
  }
};

uint64_t OrclusFingerprint(const Matrix& data, const OrclusOptions& options) {
  Fingerprint fp;
  fp.Mix("orclus");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.l));
  fp.Mix(static_cast<uint64_t>(options.a_factor));
  fp.Mix(static_cast<uint64_t>(options.max_iters));
  fp.Mix(static_cast<uint64_t>(options.restarts));
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<OrclusResult> RunOrclus(const Matrix& data,
                               const OrclusOptions& options) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  if (options.k == 0 || options.k > n) {
    return Status::InvalidArgument("ORCLUS: invalid k");
  }
  if (options.l == 0 || options.l > d) {
    return Status::InvalidArgument("ORCLUS: invalid l");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("ORCLUS", data));
  MULTICLUST_TRACE_SPAN("subspace.orclus.run");
  BudgetTracker guard(options.budget, "orclus");
  ConvergenceRecorder recorder(options.diagnostics, &guard);
  recorder.SetExpectedIterations(
      options.budget.max_iterations != 0
          ? std::min(options.max_iters, options.budget.max_iterations)
          : options.max_iters);
  Checkpointer* ck = options.budget.checkpoint;
  const ckpt::Slot slot{
      ck, "orclus", ck != nullptr ? OrclusFingerprint(data, options) : 0,
      options.diagnostics};

  OrclusCkptState state;
  state.outer_rng = Rng(options.seed);
  // A restart's seed is drawn from the outer stream in restart order; a
  // resumed restart re-uses the seed it was launched with (the outer rng
  // was saved *after* the draw, so it must not re-draw).
  const auto run_one = [&](size_t r, bool resuming,
                           ckpt::RestartPersistFn persist) {
    MC_METRIC_COUNT("subspace.orclus.restarts", 1);
    if (!resuming) state.restart_seed = state.outer_rng.NextU64();
    return RunOrclusOnce(data, options, state.restart_seed, &guard, r,
                         &recorder, &state.seed, resuming, persist);
  };
  MC_RETURN_IF_ERROR(ckpt::RunRestarts(
      slot, &state, options.restarts, &guard, &recorder, run_one,
      [](const OrclusResult& run) { return run.projected_energy; }));
  // A restored best carries no algorithm name (not in the payload).
  state.best.clustering.algorithm = "orclus";
  recorder.Finish("orclus", state.best.clustering.iterations,
                  state.best.clustering.converged);
  return std::move(state.best);
}

}  // namespace multiclust
