#include "altspace/disparate.h"

#include <cmath>
#include <limits>

#include "cluster/clustering.h"
#include "cluster/kmeans.h"
#include "common/rng.h"
#include "common/runguard.h"
#include "linalg/kernels.h"
#include "stats/contingency.h"

namespace multiclust {

namespace {

struct DualState {
  std::vector<int> labels1;
  std::vector<int> labels2;
  Matrix proto1;
  Matrix proto2;
  // table[l1][l2] = count of objects with that label pair.
  std::vector<std::vector<double>> table;
};

double SquaredToProto(const Matrix& data, size_t i, const Matrix& protos,
                      size_t c) {
  const double* row = data.row_data(i);
  const double* p = protos.row_data(c);
  double s = 0.0;
  for (size_t j = 0; j < data.cols(); ++j) {
    const double d = row[j] - p[j];
    s += d * d;
  }
  return s;
}

// Cluster means; an empty cluster is re-seeded at a random object.
Matrix MeansOf(const Matrix& data, const std::vector<int>& labels, size_t k,
               Rng* rng) {
  ClusterSums cs = SumByCluster(data, labels, k);
  Matrix means = cs.TakeMeans();
  for (size_t c = 0; c < k; ++c) {
    if (cs.counts[c] == 0) {
      means.SetRow(c, data.Row(rng->NextIndex(data.rows())));
    }
  }
  return means;
}

}  // namespace

Result<DisparateResult> RunDisparateClustering(
    const Matrix& data, const DisparateOptions& options) {
  const size_t n = data.rows();
  if (n == 0) return Status::InvalidArgument("disparate: empty data");
  if (options.k1 == 0 || options.k2 == 0 || options.k1 > n ||
      options.k2 > n) {
    return Status::InvalidArgument("disparate: invalid cluster counts");
  }
  if (options.lambda < 0) {
    return Status::InvalidArgument("disparate: lambda must be >= 0");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("disparate", data));

  Rng rng(options.seed);
  // Scale the contingency penalty to the data's distance magnitude: one
  // unit of cell deviation should be comparable to a typical squared
  // distance.
  const std::vector<double> mean = RowMean(data);
  double scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    scale += kernels::SquaredDistance(data.row_data(i), mean.data(),
                                      data.cols());
  }
  scale /= static_cast<double>(n);
  const double lambda = options.lambda * scale;

  DisparateResult best;
  double best_objective = std::numeric_limits<double>::infinity();
  bool have_best = false;

  const size_t restarts = options.restarts == 0 ? 1 : options.restarts;
  for (size_t restart = 0; restart < restarts; ++restart) {
    DualState s;
    // Initialise both clusterings from independent k-means runs.
    KMeansOptions km1;
    km1.k = options.k1;
    km1.max_iters = 5;
    km1.seed = rng.NextU64();
    MC_ASSIGN_OR_RETURN(Clustering c1, RunKMeans(data, km1));
    KMeansOptions km2 = km1;
    km2.k = options.k2;
    km2.seed = rng.NextU64();
    MC_ASSIGN_OR_RETURN(Clustering c2, RunKMeans(data, km2));
    s.labels1 = c1.labels;
    s.labels2 = c2.labels;
    s.proto1 = c1.centroids;
    s.proto2 = c2.centroids;
    s.table.assign(options.k1, std::vector<double>(options.k2, 0.0));
    for (size_t i = 0; i < n; ++i) s.table[s.labels1[i]][s.labels2[i]] += 1;

    const double uniform_target =
        static_cast<double>(n) /
        static_cast<double>(options.k1 * options.k2);

    for (size_t iter = 0; iter < options.max_iters; ++iter) {
      bool moved = false;
      // Reassign clustering 1 (with clustering 2 fixed), then vice versa.
      for (int side = 0; side < 2; ++side) {
        std::vector<int>& labels = side == 0 ? s.labels1 : s.labels2;
        const std::vector<int>& other = side == 0 ? s.labels2 : s.labels1;
        Matrix& protos = side == 0 ? s.proto1 : s.proto2;
        const size_t k = side == 0 ? options.k1 : options.k2;
        for (size_t i = 0; i < n; ++i) {
          const int from = labels[i];
          double best_cost = std::numeric_limits<double>::infinity();
          int best_c = from;
          // Remove i from the table while evaluating.
          if (side == 0) {
            s.table[from][other[i]] -= 1;
          } else {
            s.table[other[i]][from] -= 1;
          }
          for (size_t c = 0; c < k; ++c) {
            double target = uniform_target;
            if (options.goal == ContingencyGoal::kDependent) {
              // Diagonal target: matched cells aim for n / max(k1, k2),
              // off-diagonal cells for 0.
              const size_t row = side == 0 ? c : other[i];
              const size_t col = side == 0 ? other[i] : c;
              target = row == col ? static_cast<double>(n) /
                                        static_cast<double>(
                                            std::max(options.k1, options.k2))
                                  : 0.0;
            }
            double penalty;
            if (side == 0) {
              const double cur = s.table[c][other[i]];
              penalty = (cur + 1.0 - target) * (cur + 1.0 - target) -
                        (cur - target) * (cur - target);
            } else {
              const double cur = s.table[other[i]][c];
              penalty = (cur + 1.0 - target) * (cur + 1.0 - target) -
                        (cur - target) * (cur - target);
            }
            const double cost = SquaredToProto(data, i, protos, c) +
                                lambda * penalty /
                                    static_cast<double>(n);
            if (cost < best_cost) {
              best_cost = cost;
              best_c = static_cast<int>(c);
            }
          }
          if (side == 0) {
            s.table[best_c][other[i]] += 1;
          } else {
            s.table[other[i]][best_c] += 1;
          }
          if (best_c != from) {
            labels[i] = best_c;
            moved = true;
          }
        }
        protos = MeansOf(data, labels, k, &rng);
      }
      if (!moved) break;
    }

    // Score this restart.
    double sse = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sse += SquaredToProto(data, i, s.proto1, s.labels1[i]) +
             SquaredToProto(data, i, s.proto2, s.labels2[i]);
    }
    MC_ASSIGN_OR_RETURN(ContingencyTable ct,
                        ContingencyTable::Build(s.labels1, s.labels2));
    const double deviation = ct.UniformityDeviation();
    const double contingency_term =
        options.goal == ContingencyGoal::kDisparate ? deviation
                                                    : 1.0 - deviation;
    const double objective =
        sse + lambda * static_cast<double>(n) * contingency_term;
    if (!have_best || objective < best_objective) {
      best_objective = objective;
      best = DisparateResult();
      Clustering out1;
      out1.labels = s.labels1;
      out1.centroids = s.proto1;
      out1.algorithm = "disparate";
      Clustering out2;
      out2.labels = s.labels2;
      out2.centroids = s.proto2;
      out2.algorithm = "disparate";
      MC_RETURN_IF_ERROR(best.solutions.Add(std::move(out1)));
      MC_RETURN_IF_ERROR(best.solutions.Add(std::move(out2)));
      best.uniformity_deviation = deviation;
      best.objective = objective;
      have_best = true;
    }
  }
  return best;
}

}  // namespace multiclust
