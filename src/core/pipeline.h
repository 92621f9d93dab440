#ifndef MULTICLUST_CORE_PIPELINE_H_
#define MULTICLUST_CORE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/runguard.h"
#include "core/objectives.h"
#include "core/solution_set.h"
#include "linalg/matrix.h"

namespace multiclust {

/// Which discovery strategy the convenience pipeline uses.
enum class DiscoveryStrategy {
  /// Decorrelated k-means: simultaneous, original space. Fast default.
  kDecorrelatedKMeans,
  /// Orthogonal projection iteration with a k-means base clusterer.
  kOrthogonalProjections,
  /// HSIC-partitioned spectral views (axis-aligned mSC).
  kSpectralViews,
  /// Meta clustering with diversified generation.
  kMetaClustering,
};

/// Configuration of the one-call discovery pipeline.
struct DiscoveryOptions {
  DiscoveryStrategy strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  /// Number of alternative clusterings to look for.
  size_t num_solutions = 2;
  /// Clusters per solution; 0 = select k in [2, max_k] by silhouette.
  size_t k = 0;
  size_t max_k = 6;
  /// Post-filter: drop solutions whose pairwise dissimilarity to an
  /// earlier solution falls below this threshold.
  double min_dissimilarity = 0.2;
  uint64_t seed = 1;
  /// Wall-clock / iteration / cancellation limits shared by every strategy
  /// attempt (the remaining deadline is forwarded to each attempt).
  RunBudget budget;
  /// Deterministic retry policy for recoverable (kComputationError)
  /// strategy failures: each retry re-runs with a SplitMix-derived seed.
  RetryPolicy retry{2};
  /// When the requested strategy (and its retries) fail recoverably, fall
  /// back to more robust strategies instead of surfacing the error.
  bool allow_fallback = true;
};

/// Outcome of a discovery run: the solutions plus their evaluation under
/// the abstract objective (slide 27).
struct DiscoveryReport {
  SolutionSet solutions;
  ObjectiveReport objective;
  /// The k actually used.
  size_t chosen_k = 0;
  /// Strategy that produced `solutions` (after any fallback).
  std::string strategy_name;
  /// One entry per strategy attempt, in order: the requested strategy
  /// first, then any fallbacks. `attempts.back()` describes the run that
  /// produced `solutions`.
  std::vector<RunDiagnostics> attempts;
  /// Human-readable notes about recoveries (retries used, fallbacks
  /// taken, budget-truncated runs). Empty on a clean run.
  std::vector<std::string> warnings;
  /// True when the result came from a fallback strategy or a
  /// budget-truncated (non-converged) run rather than the requested
  /// clean computation.
  bool degraded = false;
  /// What the whole discovery call cost (all stages and attempts
  /// together; per-attempt profiles live on `attempts[i].resource`).
  /// Wall-clock dependent — excluded from determinism comparisons and from the
  /// pipeline checkpoint payload.
  telemetry::ResourceProfile resource;
};

/// One-call entry point: "find me several genuinely different clusterings
/// of this data". Selects k if requested, runs the chosen strategy,
/// deduplicates near-identical solutions, and scores the set with
/// Q = silhouette and Diss = 1 - NMI.
///
/// With `options.budget.checkpoint` set, the pipeline itself snapshots at
/// stage boundaries — after k-selection and after each completed strategy
/// attempt (the attempt ledger, warnings and, once solved, the full
/// solution set) — and forwards the checkpointer to every inner algorithm,
/// which snapshots at its own iteration granularity under a distinct file
/// slot in the same directory. A resumed call skips completed stages and
/// produces a bit-identical DiscoveryReport; dedup and objective scoring
/// are recomputed deterministically rather than persisted. See DESIGN.md
/// "Crash recovery".
Result<DiscoveryReport> DiscoverMultipleClusterings(
    const Matrix& data, const DiscoveryOptions& options);

/// Silhouette-based selection of k over [2, max_k] using k-means: the
/// first candidate with the highest silhouette wins. The candidates'
/// k-means runs come first, then one Silhouettes pass scores them all.
/// `cancel` (optional, not owned) is checked before each candidate k,
/// forwarded to its k-means and polled by the silhouette pass; once set
/// the call returns kCancelled. No other budget member reaches the
/// candidates, so the chosen k never depends on a deadline or an
/// iteration cap.
Result<size_t> SelectKBySilhouette(const Matrix& data, size_t max_k,
                                   uint64_t seed,
                                   const CancelToken* cancel = nullptr);

}  // namespace multiclust

#endif  // MULTICLUST_CORE_PIPELINE_H_
