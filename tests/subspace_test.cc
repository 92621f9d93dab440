#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "data/generators.h"
#include "metrics/partition_similarity.h"
#include "subspace/asclu.h"
#include "subspace/clique.h"
#include "subspace/enclus.h"
#include "subspace/osclu.h"
#include "subspace/proclus.h"
#include "subspace/rescu.h"
#include "subspace/schism.h"
#include "subspace/statpc.h"
#include "subspace/subclu.h"
#include "subspace/subspace_cluster.h"
#include "support/apriori_oracle.h"

namespace multiclust {
namespace {

// Multi-view subspace data: view 0 in dims {0,1}, view 1 in dims {2,3},
// plus noise dims.
struct SubspaceData {
  Matrix data;
  std::vector<int> view0;
  std::vector<int> view1;
};

SubspaceData MakeSubspaceData(uint64_t seed, size_t n = 200,
                              size_t noise_dims = 1) {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 10.0, 0.6, ""};
  views[1] = {2, 3, 10.0, 0.6, ""};
  auto ds = MakeMultiView(n, views, noise_dims, seed);
  SubspaceData s;
  s.data = ds->data();
  s.view0 = ds->GroundTruth("view0").value();
  s.view1 = ds->GroundTruth("view1").value();
  return s;
}

TEST(SubspaceClusterTest, Overlaps) {
  SubspaceCluster a{{0, 1}, {1, 2, 3}, "x"};
  SubspaceCluster b{{1, 2}, {3, 4}, "x"};
  EXPECT_EQ(a.ObjectOverlap(b), 1u);
  EXPECT_EQ(a.DimOverlap(b), 1u);
  EXPECT_EQ(a.dimensionality(), 2u);
  EXPECT_EQ(a.support(), 3u);
}

TEST(SubspaceClusteringTest, GroupAndLabel) {
  SubspaceClustering sc;
  sc.clusters.push_back({{0, 1}, {0, 1}, "x"});
  sc.clusters.push_back({{0, 1}, {2, 3}, "x"});
  sc.clusters.push_back({{2}, {0, 2}, "x"});
  EXPECT_EQ(sc.NumSubspaces(), 2u);
  const auto groups = sc.GroupBySubspace();
  ASSERT_EQ(groups.size(), 2u);
  // Group of subspace {0,1} has clusters 0 and 1.
  const auto labels = sc.LabelsForGroup(groups[0], 5);
  EXPECT_EQ(labels, (std::vector<int>{0, 0, 1, 1, -1}));
}

TEST(UnitsToClustersTest, MergesAdjacentUnits) {
  // Two adjacent 1-D units and one distant one.
  GridUnit u1;
  u1.constraints = {{0, 2}};
  u1.objects = {0, 1};
  GridUnit u2;
  u2.constraints = {{0, 3}};
  u2.objects = {2};
  GridUnit u3;
  u3.constraints = {{0, 7}};
  u3.objects = {5};
  const auto clusters = UnitsToClusters({u1, u2, u3}, "t");
  ASSERT_EQ(clusters.size(), 2u);
  // The merged cluster contains objects 0,1,2.
  bool found_merged = false;
  for (const auto& c : clusters) {
    if (c.objects.size() == 3) {
      found_merged = true;
      EXPECT_EQ(c.objects, (std::vector<int>{0, 1, 2}));
    }
  }
  EXPECT_TRUE(found_merged);
}

using Level = std::vector<std::vector<size_t>>;

TEST(AprioriCandidatesTest, EdgeLevels) {
  EXPECT_TRUE(AprioriCandidates({}).empty());
  EXPECT_TRUE(AprioriCandidates({{3}}).empty());
  EXPECT_TRUE(AprioriCandidates({{0, 2, 5}}).empty());
  EXPECT_EQ(AprioriCandidates({{0}, {2}, {5}}),
            (Level{{0, 2}, {0, 5}, {2, 5}}));
  // {0,1} and {0,2} join to {0,1,2}, whose projection {1,2} is a hole.
  EXPECT_TRUE(AprioriCandidates({{0, 1}, {0, 2}, {1, 3}}).empty());
  EXPECT_EQ(AprioriCandidates({{0, 1}, {0, 2}, {1, 2}, {1, 3}}),
            (Level{{0, 1, 2}}));
}

TEST(AprioriCandidatesTest, MatchesBruteForceOracle) {
  Rng rng(26);
  size_t pruned = 0;
  for (size_t d = 2; d <= 8; ++d) {
    for (size_t k = 1; k <= 4 && k < d; ++k) {
      // Every k-subset of [0, d), lexicographic.
      Level full;
      for (size_t mask = 0; mask < (size_t{1} << d); ++mask) {
        std::vector<size_t> s;
        for (size_t j = 0; j < d; ++j) {
          if (mask & (size_t{1} << j)) s.push_back(j);
        }
        if (s.size() == k) full.push_back(s);
      }
      std::sort(full.begin(), full.end());
      for (const double keep : {0.3, 0.6, 0.85, 1.0}) {
        for (int rep = 0; rep < 5; ++rep) {
          Level level;
          for (const auto& s : full) {
            if (rng.NextDouble() < keep) level.push_back(s);
          }
          const Level got = AprioriCandidates(level);
          EXPECT_EQ(got, test::AprioriOracle(level, k, d))
              << "d=" << d << " k=" << k << " keep=" << keep;
          // Pairs sharing a (k-1)-prefix that the projection check dropped.
          size_t joins = 0;
          for (size_t i = 0; i < level.size(); ++i) {
            for (size_t j = i + 1; j < level.size(); ++j) {
              joins += std::equal(level[i].begin(), level[i].end() - 1,
                                  level[j].begin());
            }
          }
          pruned += joins - got.size();
        }
      }
    }
  }
  EXPECT_GT(pruned, 0u);
}

TEST(CliqueTest, FindsPlantedSubspaceClusters) {
  const SubspaceData s = MakeSubspaceData(1);
  CliqueOptions opts;
  opts.xi = 8;
  opts.tau = 0.05;
  opts.max_dims = 2;
  auto r = RunClique(s.data, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->clusters.size(), 0u);
  // Pair F1 against each planted view should be decent: the planted
  // 2-D clusters appear among the mined clusters.
  EXPECT_GT(SubspacePairF1(*r, s.view0).value(), 0.3);
  EXPECT_GT(SubspacePairF1(*r, s.view1).value(), 0.3);
}

TEST(CliqueTest, EveryObjectInMultipleClusters) {
  const SubspaceData s = MakeSubspaceData(2);
  CliqueOptions opts;
  opts.xi = 6;
  opts.tau = 0.05;
  opts.max_dims = 2;
  auto r = RunClique(s.data, opts);
  ASSERT_TRUE(r.ok());
  // Count cluster memberships of object 0: must exceed 1 (multiple views).
  size_t memberships = 0;
  for (const auto& c : r->clusters) {
    if (std::binary_search(c.objects.begin(), c.objects.end(), 0)) {
      ++memberships;
    }
  }
  EXPECT_GT(memberships, 1u);
}

TEST(CliqueTest, MonotonicityEveryProjectionDense) {
  const SubspaceData s = MakeSubspaceData(3, 150);
  CliqueOptions opts;
  opts.xi = 6;
  opts.tau = 0.05;
  auto r = RunClique(s.data, opts);
  ASSERT_TRUE(r.ok());
  const size_t min_support = static_cast<size_t>(
      std::ceil(opts.tau * static_cast<double>(s.data.rows())));
  for (const auto& c : r->clusters) {
    EXPECT_GE(c.objects.size(), min_support);
  }
}

TEST(CliqueTest, InvalidTau) {
  CliqueOptions opts;
  opts.tau = 0.0;
  EXPECT_FALSE(RunClique(Matrix(5, 2), opts).ok());
  opts.tau = 1.5;
  EXPECT_FALSE(RunClique(Matrix(5, 2), opts).ok());
}

TEST(SchismTest, ThresholdsDecreaseWithDimensionality) {
  const auto thresholds = SchismSupportThresholds(1000, 6, 10, 0.05);
  for (size_t s = 2; s <= 6; ++s) {
    EXPECT_LE(thresholds[s], thresholds[s - 1]);
  }
}

TEST(SchismTest, FindsPlantedClusters) {
  const SubspaceData s = MakeSubspaceData(4);
  SchismOptions opts;
  opts.xi = 8;
  opts.tau = 0.05;
  opts.max_dims = 2;
  auto r = RunSchism(s.data, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->clusters.size(), 0u);
  EXPECT_GT(SubspacePairF1(*r, s.view0).value(), 0.3);
}

TEST(SchismTest, AdaptiveThresholdKeepsHighDimUnits) {
  // With a fixed CLIQUE threshold calibrated for 1-D density, the planted
  // 2-D clusters can be lost; SCHISM's decreasing threshold keeps them.
  const SubspaceData s = MakeSubspaceData(5, 300);
  CliqueOptions clique;
  clique.xi = 10;
  clique.tau = 0.2;  // deliberately too strict for 2-D cells
  clique.max_dims = 2;
  SchismOptions schism;
  schism.xi = 10;
  schism.tau = 0.01;
  schism.max_dims = 2;
  auto rc = RunClique(s.data, clique);
  auto rs = RunSchism(s.data, schism);
  ASSERT_TRUE(rc.ok() && rs.ok());
  auto count_2d = [](const SubspaceClustering& sc) {
    size_t n = 0;
    for (const auto& c : sc.clusters) n += (c.dims.size() == 2);
    return n;
  };
  EXPECT_GT(count_2d(*rs), count_2d(*rc));
}

TEST(SubcluTest, FindsDensityClustersWithNoise) {
  const SubspaceData s = MakeSubspaceData(6, 150, 0);
  SubcluOptions opts;
  opts.eps = 1.2;
  opts.min_pts = 5;
  opts.max_dims = 2;
  auto r = RunSubclu(s.data, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->clusters.size(), 0u);
  EXPECT_GT(SubspacePairF1(*r, s.view0).value(), 0.3);
  // Some cluster should live in the 2-D planted subspaces.
  bool has_2d = false;
  for (const auto& c : r->clusters) has_2d |= (c.dims.size() == 2);
  EXPECT_TRUE(has_2d);
}

TEST(SubcluTest, AprioriPrunesHigherDimsOnUniformData) {
  // Uniform data: 1-D projections are dense (points pack tightly on a
  // line) but genuine 2-D density does not exist — the apriori recursion
  // must not promote any higher-dimensional cluster.
  auto ds = MakeUniformCube(150, 3, 7);
  SubcluOptions opts;
  opts.eps = 0.02;
  opts.min_pts = 5;
  auto r = RunSubclu(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  for (const auto& c : r->clusters) {
    EXPECT_EQ(c.dims.size(), 1u);
  }
}

TEST(SubcluTest, TinyEpsFindsNothingAnywhere) {
  auto ds = MakeUniformCube(100, 3, 7);
  SubcluOptions opts;
  opts.eps = 1e-4;
  opts.min_pts = 5;
  auto r = RunSubclu(ds->data(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->clusters.size(), 0u);
}

TEST(SubcluTest, InvalidOptions) {
  SubcluOptions opts;
  opts.eps = 0;
  EXPECT_FALSE(RunSubclu(Matrix(5, 2), opts).ok());
}

TEST(ProclusTest, PartitionsAndSelectsDims) {
  const SubspaceData s = MakeSubspaceData(8, 200, 2);
  ProclusOptions opts;
  opts.k = 4;
  opts.avg_dims = 2;
  opts.seed = 8;
  auto r = RunProclus(s.data, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dims.size(), 4u);
  for (const auto& dims : r->dims) {
    EXPECT_GE(dims.size(), 2u);
  }
  // Disjoint partitioning: labels in [-1, k).
  for (int l : r->clustering.labels) {
    EXPECT_GE(l, -1);
    EXPECT_LT(l, 4);
  }
  const auto as_subspace = r->AsSubspaceClustering();
  EXPECT_EQ(as_subspace.clusters.size(), 4u);
}

TEST(ProclusTest, InvalidOptions) {
  ProclusOptions opts;
  opts.k = 0;
  EXPECT_FALSE(RunProclus(Matrix(10, 4), opts).ok());
  opts.k = 2;
  opts.avg_dims = 1;
  EXPECT_FALSE(RunProclus(Matrix(10, 4), opts).ok());
}

TEST(EnclusTest, RelevantSubspacesRankAboveNoise) {
  const SubspaceData s = MakeSubspaceData(9, 250, 2);
  EnclusOptions opts;
  opts.xi = 6;
  opts.omega = 20.0;  // permissive: rank everything
  opts.max_dims = 2;
  auto r = RunEnclus(s.data, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->size(), 0u);
  // Find rank of planted subspace {0,1} vs noise pair {5,6} (noise dims are
  // the last two).
  const size_t d = s.data.cols();
  int planted_rank = -1, noise_rank = -1;
  for (size_t i = 0; i < r->size(); ++i) {
    if ((*r)[i].dims == std::vector<size_t>{0, 1}) {
      planted_rank = static_cast<int>(i);
    }
    if ((*r)[i].dims == std::vector<size_t>{d - 2, d - 1}) {
      noise_rank = static_cast<int>(i);
    }
  }
  ASSERT_GE(planted_rank, 0);
  if (noise_rank >= 0) {
    EXPECT_LT(planted_rank, noise_rank);
  }
}

TEST(EnclusTest, InterestMeasuresCorrelation) {
  const SubspaceData s = MakeSubspaceData(10, 250, 2);
  EnclusOptions opts;
  opts.xi = 6;
  opts.omega = 20.0;
  opts.max_dims = 2;
  auto r = RunEnclus(s.data, opts);
  ASSERT_TRUE(r.ok());
  double planted_interest = -1, noise_interest = -1;
  const size_t d = s.data.cols();
  for (const auto& sub : *r) {
    if (sub.dims == std::vector<size_t>{0, 1}) planted_interest = sub.interest;
    if (sub.dims == std::vector<size_t>{d - 2, d - 1}) {
      noise_interest = sub.interest;
    }
  }
  ASSERT_GE(planted_interest, 0);
  if (noise_interest >= 0) {
    EXPECT_GT(planted_interest, noise_interest);
  }
}

TEST(EnclusTest, OmegaPrunes) {
  const SubspaceData s = MakeSubspaceData(11, 150);
  EnclusOptions loose;
  loose.omega = 20.0;
  loose.max_dims = 2;
  EnclusOptions strict = loose;
  strict.omega = 1.0;
  auto r_loose = RunEnclus(s.data, loose);
  auto r_strict = RunEnclus(s.data, strict);
  ASSERT_TRUE(r_loose.ok() && r_strict.ok());
  EXPECT_LE(r_strict->size(), r_loose->size());
}

TEST(CoversSubspaceTest, TutorialSlide82Examples) {
  // {1,2} does NOT cover {3,4} nor {2,3,4} (different concepts).
  EXPECT_FALSE(CoversSubspace({1, 2}, {3, 4}, 0.5));
  EXPECT_FALSE(CoversSubspace({1, 2}, {2, 3, 4}, 0.5));
  // {1,2,3,4} covers {1,2,3} (similar concepts).
  EXPECT_TRUE(CoversSubspace({1, 2, 3, 4}, {1, 2, 3}, 0.5));
  // {1..10} covers {1..9, 11}.
  std::vector<size_t> s, t;
  for (size_t i = 1; i <= 10; ++i) s.push_back(i);
  for (size_t i = 1; i <= 9; ++i) t.push_back(i);
  t.push_back(11);
  EXPECT_TRUE(CoversSubspace(s, t, 0.5));
}

TEST(OscluTest, SelectsOrthogonalConcepts) {
  // Candidates: two clusters in subspace {0,1} covering disjoint objects,
  // one redundant duplicate, and one in an orthogonal subspace {2,3}.
  SubspaceClustering cands;
  cands.clusters.push_back({{0, 1}, {0, 1, 2, 3}, "c"});
  cands.clusters.push_back({{0, 1}, {4, 5, 6, 7}, "c"});
  cands.clusters.push_back({{0, 1}, {0, 1, 2}, "c"});  // redundant
  cands.clusters.push_back({{2, 3}, {0, 1, 4, 5}, "c"});
  OscluOptions opts;
  opts.beta = 0.5;
  opts.alpha = 0.5;
  auto r = RunOsclu(cands, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->clusters.size(), 3u);
  // The redundant {0,1,2} cluster must be excluded.
  for (const auto& c : r->clusters) {
    EXPECT_NE(c.objects, (std::vector<int>{0, 1, 2}));
  }
}

TEST(OscluTest, GlobalInterestComputation) {
  SubspaceCluster c{{0, 1}, {0, 1, 2, 3}, "c"};
  std::vector<SubspaceCluster> selected = {{{0, 1}, {0, 1}, "c"}};
  // 2 of 4 objects fresh.
  EXPECT_NEAR(GlobalInterest(c, selected, 0.5), 0.5, 1e-12);
  // A cluster in an orthogonal subspace imposes no coverage.
  std::vector<SubspaceCluster> orthogonal = {{{2, 3}, {0, 1}, "c"}};
  EXPECT_NEAR(GlobalInterest(c, orthogonal, 0.6), 1.0, 1e-12);
}

TEST(OscluTest, RecoveredViewsFromClique) {
  const SubspaceData s = MakeSubspaceData(12, 250, 1);
  CliqueOptions clique;
  clique.xi = 8;
  clique.tau = 0.04;
  clique.max_dims = 2;
  auto all = RunClique(s.data, clique);
  ASSERT_TRUE(all.ok());
  OscluOptions opts;
  opts.beta = 0.5;
  opts.alpha = 0.4;
  auto selected = RunOsclu(*all, opts);
  ASSERT_TRUE(selected.ok());
  // Massive reduction with preserved coverage of both views.
  EXPECT_LT(selected->clusters.size(), all->clusters.size() / 2);
  EXPECT_GT(SubspacePairF1(*selected, s.view0).value(), 0.25);
  EXPECT_GT(SubspacePairF1(*selected, s.view1).value(), 0.25);
}

TEST(OscluTest, InvalidParameters) {
  SubspaceClustering cands;
  OscluOptions opts;
  opts.beta = 0.0;
  EXPECT_FALSE(RunOsclu(cands, opts).ok());
  opts.beta = 0.5;
  opts.alpha = 1.5;
  EXPECT_FALSE(RunOsclu(cands, opts).ok());
}

TEST(AscluTest, ValidAlternativePredicate) {
  SubspaceClustering known;
  known.clusters.push_back({{0, 1}, {0, 1, 2, 3}, "k"});
  // Same concept, same objects: invalid alternative.
  SubspaceCluster same{{0, 1}, {0, 1, 2, 3}, "c"};
  EXPECT_FALSE(IsValidAlternative(same, known, 0.5, 0.5));
  // Same concept, new objects: valid.
  SubspaceCluster fresh{{0, 1}, {4, 5, 6, 7}, "c"};
  EXPECT_TRUE(IsValidAlternative(fresh, known, 0.5, 0.5));
  // Different concept (orthogonal subspace), same objects: valid.
  SubspaceCluster ortho{{2, 3}, {0, 1, 2, 3}, "c"};
  EXPECT_TRUE(IsValidAlternative(ortho, known, 0.5, 0.5));
}

TEST(AscluTest, RecoversAlternativeViewGivenFirst) {
  const SubspaceData s = MakeSubspaceData(13, 250, 1);
  CliqueOptions clique;
  clique.xi = 8;
  clique.tau = 0.04;
  clique.max_dims = 2;
  auto all = RunClique(s.data, clique);
  ASSERT_TRUE(all.ok());
  // Known: the clusters of view 0's subspace {0,1}.
  SubspaceClustering known;
  for (const auto& c : all->clusters) {
    if (c.dims == std::vector<size_t>{0, 1}) known.clusters.push_back(c);
  }
  ASSERT_GT(known.clusters.size(), 0u);
  AscluOptions opts;
  opts.osclu.beta = 0.5;
  opts.osclu.alpha = 0.4;
  opts.alpha_known = 0.5;
  auto alt = RunAsclu(*all, known, opts);
  ASSERT_TRUE(alt.ok());
  ASSERT_GT(alt->clusters.size(), 0u);
  // Every selected cluster is a valid alternative to the known clusters.
  for (const auto& c : alt->clusters) {
    EXPECT_TRUE(IsValidAlternative(c, known, opts.osclu.beta,
                                   opts.alpha_known));
  }
  // The alternative's support mass lives in view 1's dimensions {2, 3},
  // not in the known view's {0, 1}.
  size_t mass_v1 = 0, mass_v0 = 0;
  for (const auto& c : alt->clusters) {
    bool in_v1 = false, in_v0 = false;
    for (size_t d : c.dims) {
      in_v1 |= (d == 2 || d == 3);
      in_v0 |= (d == 0 || d == 1);
    }
    if (in_v1) mass_v1 += c.support();
    if (in_v0) mass_v0 += c.support();
  }
  EXPECT_GT(mass_v1, mass_v0);
}

TEST(RescuTest, RemovesRedundancyKeepsCoverage) {
  const SubspaceData s = MakeSubspaceData(14, 250, 1);
  CliqueOptions clique;
  clique.xi = 8;
  clique.tau = 0.04;
  clique.max_dims = 2;
  auto all = RunClique(s.data, clique);
  ASSERT_TRUE(all.ok());
  RescuOptions opts;
  auto r = RunRescu(*all, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->clusters.size(), all->clusters.size());
  // Coverage: most objects still in some selected cluster.
  std::set<int> covered;
  for (const auto& c : r->clusters) {
    covered.insert(c.objects.begin(), c.objects.end());
  }
  EXPECT_GT(covered.size(), s.data.rows() / 2);
}

TEST(RescuTest, InvalidRedundancy) {
  RescuOptions opts;
  opts.max_redundancy = 1.0;
  EXPECT_FALSE(RunRescu(SubspaceClustering(), opts).ok());
}

TEST(StatpcTest, UniformDataYieldsNothingSignificant) {
  auto ds = MakeUniformCube(200, 3, 15);
  CliqueOptions clique;
  clique.xi = 4;
  clique.tau = 0.02;
  clique.max_dims = 2;
  auto all = RunClique(ds->data(), clique);
  ASSERT_TRUE(all.ok());
  StatpcOptions opts;
  opts.alpha0 = 1e-6;
  std::vector<StatpcScore> scores;
  auto r = RunStatpc(ds->data(), *all, opts, &scores);
  ASSERT_TRUE(r.ok());
  // Uniform data: almost nothing should be significant.
  EXPECT_LE(r->clusters.size(), 2u);
}

TEST(StatpcTest, PlantedClustersAreSignificant) {
  const SubspaceData s = MakeSubspaceData(16, 250, 1);
  CliqueOptions clique;
  clique.xi = 8;
  clique.tau = 0.04;
  clique.max_dims = 2;
  auto all = RunClique(s.data, clique);
  ASSERT_TRUE(all.ok());
  StatpcOptions opts;
  auto r = RunStatpc(s.data, *all, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->clusters.size(), 0u);
  EXPECT_LT(r->clusters.size(), all->clusters.size());
}

TEST(StatpcTest, InvalidAlpha) {
  StatpcOptions opts;
  opts.alpha0 = 0.0;
  EXPECT_FALSE(RunStatpc(Matrix(5, 2), SubspaceClustering(), opts).ok());
}

}  // namespace
}  // namespace multiclust
