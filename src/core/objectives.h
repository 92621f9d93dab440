#ifndef MULTICLUST_CORE_OBJECTIVES_H_
#define MULTICLUST_CORE_OBJECTIVES_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/runguard.h"
#include "core/solution_set.h"
#include "linalg/matrix.h"

namespace multiclust {

/// The abstract problem definition of the tutorial (slide 27):
/// detect clusterings Clust_1..Clust_m such that every Q(Clust_i) is high
/// and every pairwise Diss(Clust_i, Clust_j) is high. This header provides
/// the function-object types and stock instances so that algorithms and
/// evaluations can exchange `Q` and `Diss` freely (the "flexible model"
/// axis of the taxonomy).

/// Quality functional Q: higher is better.
using QualityFn =
    std::function<Result<double>(const Matrix& data,
                                 const std::vector<int>& labels)>;

/// Dissimilarity functional Diss between two labelings: higher = more
/// different, range [0, 1] for the stock instances.
using DissimilarityFn =
    std::function<Result<double>(const std::vector<int>& a,
                                 const std::vector<int>& b)>;

/// Q = negative SSE (so that higher is better).
QualityFn NegativeSseQuality();

/// Q = mean silhouette. `cancel` (optional, not owned) reaches every
/// Silhouette call, which then returns kCancelled.
QualityFn SilhouetteQuality(const CancelToken* cancel = nullptr);

/// Q = Dunn index. `cancel` (optional, not owned) reaches every DunnIndex
/// call, which then returns kCancelled.
QualityFn DunnQuality(const CancelToken* cancel = nullptr);

/// Diss = 1 - NMI_sqrt (the library default).
DissimilarityFn NmiDissimilarity();

/// Diss = 1 - AdjustedRand (clamped to [0, 1]).
DissimilarityFn AriDissimilarity();

/// Diss = normalised Variation of Information (VI / log n objects counted).
DissimilarityFn ViDissimilarity();

/// Diss = ADCO density-profile dissimilarity (Bae et al. 2010): compares
/// *where in attribute space* the clusters sit rather than which objects
/// they share. Captures `data` (by value) since the measure is
/// data-dependent.
DissimilarityFn AdcoProfileDissimilarity(Matrix data, size_t bins = 5);

/// Evaluation of a solution set under the abstract objective.
struct ObjectiveReport {
  std::vector<double> qualities;   ///< Q per solution
  double mean_quality = 0.0;
  double mean_dissimilarity = 0.0; ///< mean pairwise Diss
  double min_dissimilarity = 0.0;  ///< worst (most redundant) pair
  /// mean_quality + lambda * mean_dissimilarity (the scalarised combined
  /// objective of slide 39).
  double combined = 0.0;
};

/// Scores `set` on `data` under the given Q / Diss / lambda.
Result<ObjectiveReport> EvaluateObjective(const Matrix& data,
                                          const SolutionSet& set,
                                          const QualityFn& quality,
                                          const DissimilarityFn& dissimilarity,
                                          double lambda);

}  // namespace multiclust

#endif  // MULTICLUST_CORE_OBJECTIVES_H_
