#include "replay.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "altspace/dec_kmeans.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "core/objectives.h"
#include "linalg/decomposition.h"
#include "metrics/clustering_quality.h"
#include "stats/hsic.h"
#include "subspace/msc.h"

namespace perfbench {

using namespace multiclust;

namespace {

bool SameLabels(const SolutionSet& a, const SolutionSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.at(i).labels != b.at(i).labels) return false;
  }
  return true;
}

// The normalised affinity RunSpectral hands to EigenSymmetric.
Matrix NormalisedAffinity(const Matrix& data) {
  const size_t n = data.rows();
  Matrix w = GaussianKernelMatrix(data, 0.0);
  std::vector<double> inv_sqrt_deg(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    w.at(i, i) = 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    double deg = 0.0;
    for (size_t j = 0; j < n; ++j) deg += w.at(i, j);
    inv_sqrt_deg[i] = deg > 1e-12 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      w.at(i, j) *= inv_sqrt_deg[i] * inv_sqrt_deg[j];
    }
  }
  return w;
}

// Times mSC's inner layers: the pairwise HSIC, one RunSpectral per view and
// one EigenSymmetric of the first view's affinity.
void ReplayMscLayers(const Matrix& data, const MscResult& msc,
                     const MscOptions& options, LayerTimes* t) {
  const size_t d = data.cols();
  double start = Now();
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) {
      (void)Hsic(data.SelectColumns({a}), data.SelectColumns({b}),
                 options.gamma, options.gamma);
    }
  }
  t->hsic_s = Now() - start;
  start = Now();
  for (size_t v = 0; v < msc.views.size(); ++v) {
    SpectralOptions spec;
    spec.k = options.k;
    spec.gamma = options.gamma;
    spec.seed = options.seed + v;
    (void)RunSpectral(data.SelectColumns(msc.views[v].dims), spec);
  }
  t->spectral_s = Now() - start;
  if (!msc.views.empty()) {
    const Matrix affinity =
        NormalisedAffinity(data.SelectColumns(msc.views[0].dims));
    start = Now();
    (void)EigenSymmetric(affinity);
    t->eigen_s = Now() - start;
  }
}

}  // namespace

bool ReplaySelectK(const Matrix& data, size_t max_k, uint64_t seed,
                   LayerTimes* t, size_t* chosen_k) {
  double start = Now();
  Result<size_t> k = SelectKBySilhouette(data, max_k, seed);
  t->select_k_s += Now() - start;
  if (!k.ok()) return false;
  *chosen_k = *k;
  // The same loop, stage by stage (pipeline.cc, SelectKBySilhouette).
  size_t best_k = 2;
  double best_score = -2.0;
  for (size_t kk = 2; kk <= max_k && kk < data.rows(); ++kk) {
    KMeansOptions opts;
    opts.k = kk;
    opts.restarts = 5;
    opts.seed = seed + kk;
    start = Now();
    Result<Clustering> c = RunKMeans(data, opts);
    t->kmeans_s += Now() - start;
    if (!c.ok()) return false;
    start = Now();
    Result<double> sil = Silhouette(data, c->labels);
    t->silhouette_s += Now() - start;
    t->silhouette_calls += 1.0;
    if (sil.ok() && *sil > best_score) {
      best_score = *sil;
      best_k = kk;
    }
  }
  return best_k == *k;
}

LayerTimes ReplayJob(const Matrix& data, const DiscoveryOptions& options) {
  LayerTimes t;
  double start = Now();
  Result<DiscoveryReport> report = DiscoverMultipleClusterings(data, options);
  t.call_wall_s = Now() - start;
  t.call_ok = report.ok();
  if (!report.ok()) return t;
  t.flops = static_cast<double>(report->resource.flops);
  t.kernel_bytes = static_cast<double>(report->resource.kernel_bytes);
  t.alloc_count = static_cast<double>(report->resource.alloc_count);

  bool match = true;
  size_t k = options.k;
  if (k == 0) {
    match = ReplaySelectK(data, options.max_k, options.seed, &t, &k);
  }
  match = match && k == report->chosen_k;

  // The strategy, with the options RunStrategy builds (first attempt).
  SolutionSet solutions;
  double strategy_s = 0.0;
  if (options.strategy == DiscoveryStrategy::kDecorrelatedKMeans) {
    DecKMeansOptions dk;
    dk.ks.assign(options.num_solutions, k);
    dk.lambda = 4.0;
    dk.restarts = 5;
    dk.seed = options.seed;
    start = Now();
    Result<DecKMeansResult> r = RunDecorrelatedKMeans(data, dk);
    t.deckm_s = strategy_s = Now() - start;
    if (!r.ok()) return t;
    t.deckm_iterations = static_cast<double>(r->iterations);
    solutions = std::move(r->solutions);
  } else if (options.strategy == DiscoveryStrategy::kSpectralViews) {
    MscOptions msc;
    msc.num_views = options.num_solutions;
    msc.k = k;
    msc.seed = options.seed;
    start = Now();
    Result<MscResult> r = RunMultipleSpectralViews(data, msc);
    t.msc_s = strategy_s = Now() - start;
    if (!r.ok()) return t;
    ReplayMscLayers(data, *r, msc, &t);
    solutions = std::move(r->solutions);
  } else {
    std::fprintf(stderr, "perfbench: replay covers deckm and spectral only\n");
    return t;
  }

  start = Now();
  const bool deduped = solutions.Deduplicate(options.min_dissimilarity).ok();
  t.dedup_s = Now() - start;

  // Objective, with Q timed per call.
  const QualityFn silhouette = SilhouetteQuality();
  const QualityFn timed_q = [&](const Matrix& x,
                                const std::vector<int>& labels) {
    const double q_start = Now();
    Result<double> q = silhouette(x, labels);
    t.silhouette_s += Now() - q_start;
    t.silhouette_calls += 1.0;
    return q;
  };
  start = Now();
  const bool scored =
      EvaluateObjective(data, solutions, timed_q, NmiDissimilarity(), 1.0)
          .ok();
  t.objective_s = Now() - start;

  t.match = match && deduped && scored &&
            SameLabels(solutions, report->solutions);
  t.coverage = (t.select_k_s + strategy_s + t.dedup_s + t.objective_s) /
               t.call_wall_s;
  return t;
}

void AddLayerMetrics(const std::vector<LayerTimes>& reps, RunResult* result) {
  static const struct {
    const char* name;
    double LayerTimes::*field;
  } kFields[] = {
      {"core.select_k_s", &LayerTimes::select_k_s},
      {"cluster.kmeans_s", &LayerTimes::kmeans_s},
      {"metrics.silhouette_s", &LayerTimes::silhouette_s},
      {"metrics.silhouette_calls", &LayerTimes::silhouette_calls},
      {"altspace.deckm_s", &LayerTimes::deckm_s},
      {"altspace.deckm_iterations", &LayerTimes::deckm_iterations},
      {"core.dedup_s", &LayerTimes::dedup_s},
      {"core.objective_s", &LayerTimes::objective_s},
      {"stats.hsic_s", &LayerTimes::hsic_s},
      {"cluster.spectral_s", &LayerTimes::spectral_s},
      {"linalg.eigen_s", &LayerTimes::eigen_s},
      {"subspace.msc_s", &LayerTimes::msc_s},
      {"telemetry.flops", &LayerTimes::flops},
      {"telemetry.kernel_bytes", &LayerTimes::kernel_bytes},
      {"telemetry.alloc_count", &LayerTimes::alloc_count},
      {"stage_coverage_frac", &LayerTimes::coverage},
  };
  for (const auto& f : kFields) {
    std::vector<double> values;
    for (const LayerTimes& t : reps) values.push_back(t.*f.field);
    result->metrics[f.name] = Median(values);
  }
  bool match = !reps.empty();
  for (const LayerTimes& t : reps) match = match && t.match;
  result->metrics["replay_match"] = match ? 1.0 : 0.0;
}

}  // namespace perfbench
