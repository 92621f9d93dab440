#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "altspace/dec_kmeans.h"
#include "altspace/meta_clustering.h"
#include "cluster/kmeans.h"
#include "common/checkpoint.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "metrics/clustering_quality.h"
#include "orthogonal/ortho_projection.h"
#include "subspace/msc.h"

namespace multiclust {

Result<size_t> SelectKBySilhouette(const Matrix& data, size_t max_k,
                                   uint64_t seed, const CancelToken* cancel) {
  if (max_k < 2) {
    return Status::InvalidArgument("SelectKBySilhouette: max_k must be >= 2");
  }
  MULTICLUST_TRACE_SPAN("pipeline.select_k");
  // Each candidate's k-means depends only on (data, k, seed + k), so all
  // of them run first; one Silhouettes pass then scores every candidate
  // with each pairwise distance computed once.
  std::vector<size_t> candidates;
  std::vector<std::vector<int>> labellings;
  for (size_t k = 2; k <= max_k && k < data.rows(); ++k) {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("select_k: cancelled by caller");
    }
    KMeansOptions opts;
    opts.k = k;
    opts.restarts = 5;
    opts.seed = seed + k;
    opts.budget.cancel = cancel;
    MC_ASSIGN_OR_RETURN(Clustering c, RunKMeans(data, opts));
    candidates.push_back(k);
    labellings.push_back(std::move(c.labels));
  }
  MC_ASSIGN_OR_RETURN(std::vector<Result<double>> scores,
                      Silhouettes(data, labellings, cancel));
  size_t best_k = 2;
  double best_score = -2.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!scores[i].ok()) continue;
    if (*scores[i] > best_score) {
      best_score = *scores[i];
      best_k = candidates[i];
    }
  }
  return best_k;
}

namespace {

const char* StrategyName(DiscoveryStrategy s) {
  switch (s) {
    case DiscoveryStrategy::kDecorrelatedKMeans:
      return "dec-kmeans";
    case DiscoveryStrategy::kOrthogonalProjections:
      return "ortho-projection";
    case DiscoveryStrategy::kSpectralViews:
      return "spectral-views";
    case DiscoveryStrategy::kMetaClustering:
      return "meta-clustering";
  }
  return "unknown";
}

// Span name per strategy (span names must be string literals).
const char* StrategySpanName(DiscoveryStrategy s) {
  switch (s) {
    case DiscoveryStrategy::kDecorrelatedKMeans:
      return "pipeline.strategy.dec-kmeans";
    case DiscoveryStrategy::kOrthogonalProjections:
      return "pipeline.strategy.ortho-projection";
    case DiscoveryStrategy::kSpectralViews:
      return "pipeline.strategy.spectral-views";
    case DiscoveryStrategy::kMetaClustering:
      return "pipeline.strategy.meta-clustering";
  }
  return "pipeline.strategy.unknown";
}

// Result of one strategy attempt: the solutions plus what the strategy
// reported about its own convergence.
struct StrategyOutcome {
  SolutionSet solutions;
  size_t iterations = 0;
  bool converged = true;
  std::vector<std::string> warnings;
};

Result<StrategyOutcome> RunStrategy(const Matrix& data,
                                    DiscoveryStrategy strategy, size_t k,
                                    const DiscoveryOptions& options,
                                    uint64_t seed, const RunBudget& budget,
                                    RunDiagnostics* diag) {
  MULTICLUST_TRACE_SPAN(StrategySpanName(strategy));
  StrategyOutcome out;
  switch (strategy) {
    case DiscoveryStrategy::kDecorrelatedKMeans: {
      DecKMeansOptions dk;
      dk.ks.assign(options.num_solutions, k);
      dk.lambda = 4.0;
      dk.restarts = 5;
      dk.seed = seed;
      dk.budget = budget;
      // Remaining() strips the checkpoint channel; each strategy re-attaches
      // it explicitly so inner iterative algorithms snapshot too.
      dk.budget.checkpoint = options.budget.checkpoint;
      dk.diagnostics = diag;
      MC_ASSIGN_OR_RETURN(DecKMeansResult r, RunDecorrelatedKMeans(data, dk));
      out.solutions = std::move(r.solutions);
      out.iterations = r.iterations;
      out.converged = r.converged;
      break;
    }
    case DiscoveryStrategy::kOrthogonalProjections: {
      KMeansOptions km;
      km.k = k;
      km.restarts = 5;
      km.seed = seed;
      km.diagnostics = diag;
      km.budget.checkpoint = options.budget.checkpoint;
      KMeansClusterer clusterer(km);
      OrthoProjectionOptions op;
      op.max_views = options.num_solutions;
      op.budget = budget;
      MC_ASSIGN_OR_RETURN(OrthoProjectionResult r,
                          RunOrthoProjection(data, &clusterer, op));
      out.solutions = std::move(r.solutions);
      out.iterations = r.views.size();
      out.converged = !r.stopped_early;
      if (r.stopped_early) out.warnings.push_back(r.stop_message);
      break;
    }
    case DiscoveryStrategy::kSpectralViews: {
      MscOptions msc;
      msc.num_views = options.num_solutions;
      msc.k = k;
      msc.seed = seed;
      msc.budget = budget;
      msc.budget.checkpoint = options.budget.checkpoint;
      msc.diagnostics = diag;
      MC_ASSIGN_OR_RETURN(MscResult r, RunMultipleSpectralViews(data, msc));
      out.solutions = std::move(r.solutions);
      out.iterations = r.views.size();
      out.converged = r.warnings.empty();
      out.warnings = std::move(r.warnings);
      break;
    }
    case DiscoveryStrategy::kMetaClustering: {
      MetaClusteringOptions mc;
      mc.num_base = 10 * options.num_solutions;
      mc.k = k;
      mc.meta_k = options.num_solutions;
      mc.seed = seed;
      mc.budget = budget;
      mc.budget.checkpoint = options.budget.checkpoint;
      mc.diagnostics = diag;
      MC_ASSIGN_OR_RETURN(MetaClusteringResult r, RunMetaClustering(data, mc));
      out.solutions = std::move(r.representatives);
      out.iterations = r.base.size();
      out.converged = r.warnings.empty();
      out.warnings = std::move(r.warnings);
      break;
    }
  }
  return out;
}

// Stage-granularity state of one DiscoverMultipleClusterings invocation:
// the chosen k (stage 1) and the attempt ledger including the solved
// solution set (stage 2). Dedup + objective scoring are deterministic
// recomputation and never checkpointed.
struct PipelineCkptState {
  size_t step = 0;
  size_t chosen_k = 0;
  size_t next_attempt = 0;
  std::vector<RunDiagnostics> attempts;
  std::vector<std::string> warnings;
  Status last_error = Status::OK();
  bool solved = false;
  std::string strategy_name;
  std::vector<Clustering> solutions;
  bool degraded = false;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("step", step);
    ar("chosen_k", chosen_k);
    ar("next_attempt", next_attempt);
    ar("attempts", attempts);
    ar("warnings", warnings);
    ar("last_error", last_error);
    if (ar.Guard("solved", solved)) {
      ar("strategy_name", strategy_name);
      ar("solutions", solutions);
      ar("degraded", degraded);
    }
  }
};

uint64_t PipelineFingerprint(const Matrix& data,
                             const DiscoveryOptions& options) {
  Fingerprint fp;
  fp.Mix("pipeline");
  fp.Mix(static_cast<uint64_t>(static_cast<int>(options.strategy)));
  fp.Mix(static_cast<uint64_t>(options.num_solutions));
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.max_k));
  fp.MixDouble(options.min_dissimilarity);
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.retry.max_retries));
  fp.Mix(static_cast<uint64_t>(options.allow_fallback ? 1 : 0));
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<DiscoveryReport> DiscoverMultipleClusterings(
    const Matrix& data, const DiscoveryOptions& options) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("Discover: empty data");
  }
  if (options.num_solutions < 2) {
    return Status::InvalidArgument(
        "Discover: num_solutions must be >= 2 (use a plain clusterer for 1)");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("Discover", data));
  MULTICLUST_TRACE_SPAN("pipeline.run");
  BudgetTracker guard(options.budget, "pipeline");
  telemetry::ResourceScope resource_scope;
  telemetry::EmitStage("pipeline", "start");
  Checkpointer* ck = options.budget.checkpoint;
  // Pipeline-stage warnings (corrupt checkpoint, restore notes) land in the
  // report's warning list, not a per-algorithm RunDiagnostics.
  RunDiagnostics restore_diag;
  const ckpt::Slot slot{
      ck, "pipeline", ck != nullptr ? PipelineFingerprint(data, options) : 0,
      &restore_diag};

  DiscoveryReport report;
  PipelineCkptState state;
  // Post-restore checks: a solution set labels all n objects, and model
  // selection already ran.
  const auto check = [&](const PipelineCkptState& s) -> Status {
    for (const Clustering& c : s.solutions) {
      if (c.labels.size() != data.rows()) {
        return Status::ComputationError("checkpoint: solution size mismatch");
      }
    }
    return s.chosen_k == 0
               ? Status::ComputationError("checkpoint: chosen_k is zero")
               : Status::OK();
  };
  const bool resumed = slot.Restore(&state, check);
  for (std::string& w : restore_diag.warnings) {
    report.warnings.push_back(std::move(w));
  }

  // Re-reads the shared stage ledger at call time; `flush` swallows write
  // errors (best-effort final snapshot on the way out of a cancellation).
  const auto snapshot = [&](bool flush) -> Status {
    return slot.Snapshot(&state.step, flush,
                         [&]() -> PipelineCkptState& { return state; });
  };

  size_t k = options.k;
  if (resumed) {
    k = state.chosen_k;
  } else {
    if (k == 0) {
      telemetry::EmitStage("pipeline.select_k", "start");
      MC_ASSIGN_OR_RETURN(k,
                          SelectKBySilhouette(data, options.max_k,
                                              options.seed,
                                              options.budget.cancel));
      telemetry::EmitStage("pipeline.select_k", "end");
    }
    // Stage boundary: model selection done, no attempts yet.
    state.chosen_k = k;
    MC_RETURN_IF_ERROR(snapshot(/*flush=*/false));
  }
  report.chosen_k = k;

  // Fallback chain: the requested strategy first, then (when allowed) the
  // most robust strategies — dec-kmeans degrades gracefully under budget
  // pressure and meta-clustering tolerates individual base failures.
  std::vector<DiscoveryStrategy> chain = {options.strategy};
  if (options.allow_fallback) {
    for (DiscoveryStrategy fb : {DiscoveryStrategy::kDecorrelatedKMeans,
                                 DiscoveryStrategy::kMetaClustering}) {
      if (std::find(chain.begin(), chain.end(), fb) == chain.end()) {
        chain.push_back(fb);
      }
    }
  }

  Status last_error = Status::OK();
  bool solved = false;
  if (resumed) {
    // Replay the attempt ledger: completed attempts (and, when the run had
    // already solved, the winning solution set) come straight from the
    // checkpoint; only the in-flight attempt re-runs.
    report.attempts = state.attempts;
    for (const std::string& w : state.warnings) report.warnings.push_back(w);
    last_error = state.last_error;
    if (state.solved) {
      report.strategy_name = state.strategy_name;
      // Cannot fail: the restore check pinned every solution to n labels.
      for (Clustering& c : state.solutions) {
        MC_RETURN_IF_ERROR(report.solutions.Add(std::move(c)));
      }
      report.degraded = state.degraded;
      solved = true;
    }
  }
  const size_t start_attempt = resumed ? state.next_attempt : 0;
  for (size_t attempt = start_attempt; attempt < chain.size() && !solved;
       ++attempt) {
    const DiscoveryStrategy strategy = chain[attempt];
    if (guard.Cancelled()) {
      if (ck != nullptr) (void)snapshot(/*flush=*/true);
      return guard.CancelledStatus();
    }
    if (attempt > 0 && guard.DeadlineExpired()) {
      report.warnings.push_back(
          std::string("pipeline: deadline expired before fallback ") +
          StrategyName(strategy));
      break;
    }
    RunDiagnostics diag;
    diag.algorithm = StrategyName(strategy);
    telemetry::EmitStage(StrategyName(strategy), "start");
    const double started_ms = guard.ElapsedMs();
    Result<StrategyOutcome> run = RunWithRetry(
        options.retry, options.seed,
        [&](uint64_t seed) {
          return RunStrategy(data, strategy, k, options, seed,
                             guard.Remaining(), &diag);
        },
        &diag);
    diag.elapsed_ms = guard.ElapsedMs() - started_ms;
    // The strategy's own recorder reports the inner algorithm; the
    // attempt entry is labelled by strategy.
    diag.algorithm = StrategyName(strategy);
    if (run.ok()) {
      diag.iterations = run->iterations;
      diag.converged = run->converged;
      diag.stop_reason =
          run->converged ? StopReason::kConverged : StopReason::kDeadline;
      report.attempts.push_back(diag);
      report.strategy_name = StrategyName(strategy);
      report.solutions = std::move(run->solutions);
      for (std::string& w : run->warnings) {
        report.warnings.push_back(std::move(w));
      }
      if (diag.retries > 0) {
        report.warnings.push_back(std::string("pipeline: ") +
                                  StrategyName(strategy) + " needed " +
                                  std::to_string(diag.retries) +
                                  " deterministic retr" +
                                  (diag.retries == 1 ? "y" : "ies"));
      }
      report.degraded = attempt > 0 || diag.retries > 0 || !run->converged;
      solved = true;
      // Stage boundary: strategy solved. A resume from here skips the
      // attempt loop entirely and recomputes only the deterministic
      // dedup + objective stages.
      if (ck != nullptr) {
        state.next_attempt = attempt + 1;
        state.attempts = report.attempts;
        state.warnings = report.warnings;
        state.last_error = last_error;
        state.solved = true;
        state.strategy_name = report.strategy_name;
        state.solutions = report.solutions.solutions();
        state.degraded = report.degraded;
        MC_RETURN_IF_ERROR(snapshot(/*flush=*/false));
      }
      break;
    }
    // A failed attempt: cancellation, a simulated crash, and configuration
    // errors are final; recoverable computation errors move on to the next
    // strategy.
    if (run.status().code() == StatusCode::kCancelled ||
        run.status().code() == StatusCode::kAborted ||
        run.status().code() == StatusCode::kInvalidArgument) {
      return run.status();
    }
    diag.converged = false;
    report.attempts.push_back(diag);
    last_error = run.status();
    report.warnings.push_back(std::string("pipeline: ") +
                              StrategyName(strategy) +
                              " failed: " + last_error.ToString());
    if (!options.allow_fallback) break;
    // Stage boundary: attempt `attempt` failed recoverably; resume moves
    // straight to the next strategy in the fallback chain.
    if (ck != nullptr) {
      state.next_attempt = attempt + 1;
      state.attempts = report.attempts;
      state.warnings = report.warnings;
      state.last_error = last_error;
      MC_RETURN_IF_ERROR(snapshot(/*flush=*/false));
    }
  }
  if (!solved) {
    if (last_error.ok()) {
      last_error = Status::ComputationError(
          "pipeline: no strategy produced a solution set within budget");
    }
    return last_error;
  }
  report.degraded = report.degraded || !report.warnings.empty();

  {
    MULTICLUST_TRACE_SPAN("pipeline.dedup");
    telemetry::EmitStage("pipeline.dedup", "start");
    MC_RETURN_IF_ERROR(
        report.solutions.Deduplicate(options.min_dissimilarity).status());
    telemetry::EmitStage("pipeline.dedup", "end");
  }
  MULTICLUST_TRACE_SPAN("pipeline.objective");
  telemetry::EmitStage("pipeline.objective", "start");
  MC_ASSIGN_OR_RETURN(
      report.objective,
      EvaluateObjective(data, report.solutions,
                        SilhouetteQuality(options.budget.cancel),
                        NmiDissimilarity(), 1.0));
  telemetry::EmitStage("pipeline.objective", "end");
  report.resource = resource_scope.Snapshot();
  telemetry::EmitStage("pipeline", "end");
  return report;
}

}  // namespace multiclust
