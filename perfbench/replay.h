// Per-layer replay of one DiscoverMultipleClusterings call: the call runs
// once as a whole, then its stages run again one by one through the same
// public entry points the pipeline uses, each timed from outside.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "linalg/matrix.h"
#include "util.h"

namespace perfbench {

/// Stage and kernel times (seconds) and counts of one replayed job. A
/// layer the job does not reach stays 0.
struct LayerTimes {
  double select_k_s = 0.0;        ///< SelectKBySilhouette
  double kmeans_s = 0.0;          ///< RunKMeans inside the select_k loop
  double silhouette_s = 0.0;      ///< every Silhouette call of the job
  double silhouette_calls = 0.0;
  double deckm_s = 0.0;           ///< RunDecorrelatedKMeans
  double deckm_iterations = 0.0;
  double msc_s = 0.0;             ///< RunMultipleSpectralViews
  double hsic_s = 0.0;            ///< the pairwise Hsic calls of mSC
  double spectral_s = 0.0;        ///< RunSpectral on every mSC view
  double eigen_s = 0.0;           ///< one EigenSymmetric at the job's n x n
  double dedup_s = 0.0;           ///< SolutionSet::Deduplicate
  double objective_s = 0.0;       ///< EvaluateObjective
  /// Exact counters of the one-call run (DiscoveryReport::resource).
  double flops = 0.0;
  double kernel_bytes = 0.0;
  double alloc_count = 0.0;
  /// Wall time of the one-call run.
  double call_wall_s = 0.0;
  /// (select_k + strategy + dedup + objective) / call_wall_s.
  double coverage = 0.0;
  /// The one-call run succeeded.
  bool call_ok = false;
  /// The replay reproduced the call's chosen k and every label vector.
  bool match = false;
};

/// Runs `options` on `data` once, then replays its stages. Only the
/// dec-kmeans and spectral-views strategies are replayed.
LayerTimes ReplayJob(const multiclust::Matrix& data,
                     const multiclust::DiscoveryOptions& options);

/// Times SelectKBySilhouette, then its RunKMeans + Silhouette loop, and
/// adds both to `times`. Returns false when the loop's pick differs from
/// the call's.
bool ReplaySelectK(const multiclust::Matrix& data, size_t max_k, uint64_t seed,
                   LayerTimes* times, size_t* chosen_k);

/// Stores the median over `reps` of every replayed layer metric into
/// `result`; replay_match is 1 only when every repetition matched. The
/// serve layers are left to the serve workload.
void AddLayerMetrics(const std::vector<LayerTimes>& reps, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
