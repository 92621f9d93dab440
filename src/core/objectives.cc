#include "core/objectives.h"

#include <algorithm>
#include <cmath>

#include "metrics/adco.h"
#include "metrics/clustering_quality.h"
#include "metrics/partition_similarity.h"

namespace multiclust {

QualityFn NegativeSseQuality() {
  return [](const Matrix& data,
            const std::vector<int>& labels) -> Result<double> {
    MC_ASSIGN_OR_RETURN(double sse, SumSquaredError(data, labels));
    return -sse;
  };
}

QualityFn SilhouetteQuality(const CancelToken* cancel) {
  return [cancel](const Matrix& data,
                  const std::vector<int>& labels) -> Result<double> {
    return Silhouette(data, labels, cancel);
  };
}

QualityFn DunnQuality(const CancelToken* cancel) {
  return [cancel](const Matrix& data,
                  const std::vector<int>& labels) -> Result<double> {
    return DunnIndex(data, labels, cancel);
  };
}

DissimilarityFn NmiDissimilarity() {
  return [](const std::vector<int>& a,
            const std::vector<int>& b) -> Result<double> {
    return ClusteringDissimilarity(a, b);
  };
}

DissimilarityFn AriDissimilarity() {
  return [](const std::vector<int>& a,
            const std::vector<int>& b) -> Result<double> {
    MC_ASSIGN_OR_RETURN(double ari, AdjustedRandIndex(a, b));
    return std::clamp(1.0 - ari, 0.0, 1.0);
  };
}

DissimilarityFn ViDissimilarity() {
  return [](const std::vector<int>& a,
            const std::vector<int>& b) -> Result<double> {
    MC_ASSIGN_OR_RETURN(double vi, VariationOfInformation(a, b));
    size_t counted = 0;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] >= 0 && b[i] >= 0) ++counted;
    }
    if (counted < 2) return 0.0;
    const double max_vi = std::log(static_cast<double>(counted));
    return max_vi > 0 ? std::min(vi / max_vi, 1.0) : 0.0;
  };
}

DissimilarityFn AdcoProfileDissimilarity(Matrix data, size_t bins) {
  return [data = std::move(data), bins](
             const std::vector<int>& a,
             const std::vector<int>& b) -> Result<double> {
    return AdcoDissimilarity(data, a, b, bins);
  };
}

Result<ObjectiveReport> EvaluateObjective(
    const Matrix& data, const SolutionSet& set, const QualityFn& quality,
    const DissimilarityFn& dissimilarity, double lambda) {
  ObjectiveReport report;
  for (const Clustering& c : set.solutions()) {
    MC_ASSIGN_OR_RETURN(double q, quality(data, c.labels));
    report.qualities.push_back(q);
    report.mean_quality += q;
  }
  if (!report.qualities.empty()) {
    report.mean_quality /= static_cast<double>(report.qualities.size());
  }

  double total_diss = 0.0;
  double min_diss = 1.0;
  size_t pairs = 0;
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = i + 1; j < set.size(); ++j) {
      MC_ASSIGN_OR_RETURN(
          double d, dissimilarity(set.at(i).labels, set.at(j).labels));
      total_diss += d;
      min_diss = std::min(min_diss, d);
      ++pairs;
    }
  }
  report.mean_dissimilarity = pairs ? total_diss / pairs : 0.0;
  report.min_dissimilarity = pairs ? min_diss : 0.0;
  report.combined = report.mean_quality + lambda * report.mean_dissimilarity;
  return report;
}

}  // namespace multiclust
