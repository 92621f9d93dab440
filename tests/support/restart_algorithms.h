#ifndef MULTICLUST_TESTS_SUPPORT_RESTART_ALGORITHMS_H_
#define MULTICLUST_TESTS_SUPPORT_RESTART_ALGORITHMS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "altspace/dec_kmeans.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "common/result.h"
#include "common/runguard.h"
#include "linalg/matrix.h"
#include "subspace/orclus.h"

namespace multiclust {
namespace test {

/// What the restart-rule and thread-invariance checks read from one call
/// of a restart-driven algorithm. On error only `status` and
/// `diagnostics` are filled.
struct RestartRun {
  Status status = Status::OK();
  /// The winner's labels; dec-kmeans concatenates every solution's.
  std::vector<int> labels;
  /// The winner's objective as the result reports it.
  double objective = 0.0;
  bool converged = false;
  /// The fitted model: k-means centroids, GMM means, one centroid matrix
  /// per dec-kmeans solution, or one basis per ORCLUS cluster.
  std::vector<Matrix> model;
  RunDiagnostics diagnostics;
};

/// One algorithm whose restarts ckpt::RunRestarts drives. `site` names its
/// fault-injection site and checkpoint slot; `run(data, restarts)` calls
/// it with k clusters (per solution for dec-kmeans, 1-d subspaces for
/// ORCLUS) and a fixed seed.
struct RestartAlgorithm {
  const char* site;
  std::function<RestartRun(const Matrix& data, size_t restarts)> run;
};

/// The four restart-driven algorithms: k-means, GMM, ORCLUS, dec-kmeans.
inline std::vector<RestartAlgorithm> RestartAlgorithms(size_t k,
                                                       uint64_t seed) {
  return {
      {"kmeans",
       [=](const Matrix& data, size_t restarts) {
         RestartRun out;
         KMeansOptions opts;
         opts.k = k;
         opts.restarts = restarts;
         opts.seed = seed;
         opts.diagnostics = &out.diagnostics;
         auto c = RunKMeans(data, opts);
         out.status = c.status();
         if (!c.ok()) return out;
         out.labels = c->labels;
         out.objective = c->quality;
         out.converged = c->converged;
         out.model = {c->centroids};
         return out;
       }},
      {"gmm",
       [=](const Matrix& data, size_t restarts) {
         RestartRun out;
         GmmOptions opts;
         opts.k = k;
         opts.restarts = restarts;
         opts.seed = seed;
         opts.diagnostics = &out.diagnostics;
         auto c = RunGmm(data, opts);
         out.status = c.status();
         if (!c.ok()) return out;
         out.labels = c->labels;
         out.objective = c->quality;
         out.converged = c->converged;
         out.model = {c->centroids};
         return out;
       }},
      {"orclus",
       [=](const Matrix& data, size_t restarts) {
         RestartRun out;
         OrclusOptions opts;
         opts.k = k;
         opts.l = 1;
         opts.restarts = restarts;
         opts.seed = seed;
         opts.diagnostics = &out.diagnostics;
         auto r = RunOrclus(data, opts);
         out.status = r.status();
         if (!r.ok()) return out;
         out.labels = r->clustering.labels;
         out.objective = r->projected_energy;
         out.converged = r->clustering.converged;
         for (const OrientedSubspace& s : r->subspaces) {
           out.model.push_back(s.basis);
         }
         return out;
       }},
      {"dec-kmeans",
       [=](const Matrix& data, size_t restarts) {
         RestartRun out;
         DecKMeansOptions opts;
         opts.ks = {k, k};
         opts.restarts = restarts;
         opts.seed = seed;
         opts.diagnostics = &out.diagnostics;
         auto r = RunDecorrelatedKMeans(data, opts);
         out.status = r.status();
         if (!r.ok()) return out;
         for (size_t t = 0; t < r->solutions.size(); ++t) {
           const Clustering& c = r->solutions.at(t);
           out.labels.insert(out.labels.end(), c.labels.begin(),
                             c.labels.end());
           out.model.push_back(c.centroids);
         }
         out.objective = r->objective;
         out.converged = r->converged;
         return out;
       }},
  };
}

}  // namespace test
}  // namespace multiclust

#endif  // MULTICLUST_TESTS_SUPPORT_RESTART_ALGORITHMS_H_
