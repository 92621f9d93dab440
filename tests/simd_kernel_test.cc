// Kernel-layer contract tests: every fast kernel must be bit-identical to
// its kernels::ref counterpart (the stand-in for a -DMULTICLUST_SIMD=OFF
// build) over odd lengths, unaligned offsets and extreme/denormal inputs,
// and numerically faithful to a naive reference within reduction-order
// tolerance. Also pins tie-breaking and the GemmRows blocking invariance.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/kernels.h"
#include "support/nearest_oracle.h"

// The lane-op tests below run on the scalar backend, whatever the build.
#define MULTICLUST_SIMD_FORCE_SCALAR 1
#include "linalg/simd.h"

namespace multiclust {
namespace {

namespace k = multiclust::kernels;

// Deterministic pseudo-random fill in [-1, 1].
std::vector<double> RandVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Lengths that exercise every tail residue and a few vectorized bodies.
const size_t kLens[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 17,
                        31, 32, 33, 63, 64, 65, 70, 127, 128, 129};

TEST(SimdKernelTest, ReductionsBitIdenticalToRef) {
  for (size_t n : kLens) {
    const auto a = RandVec(n, 7 + n);
    const auto b = RandVec(n, 91 + n);
    EXPECT_EQ(k::Dot(a.data(), b.data(), n), k::ref::Dot(a.data(), b.data(), n))
        << "n=" << n;
    EXPECT_EQ(k::Sum(a.data(), n), k::ref::Sum(a.data(), n)) << "n=" << n;
    EXPECT_EQ(k::SquaredNorm(a.data(), n), k::ref::SquaredNorm(a.data(), n))
        << "n=" << n;
    EXPECT_EQ(k::SquaredDistance(a.data(), b.data(), n),
              k::ref::SquaredDistance(a.data(), b.data(), n))
        << "n=" << n;
  }
}

// The reductions' contract written out as plain scalar code: term i is
// added to slot i % 8 (slot l < 4 is lane l of acc0, slot l + 4 lane l
// of acc1), then the slots combine as acc0 + acc1 and then its lanes as
// (l0 + l1) + (l2 + l3). Each term passes through a volatile so the
// oracle's adds are never fused with its products.
template <typename Term>
double SlotReplay(size_t n, const Term& term) {
  double s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    volatile double t = term(i);
    s[i % 8] = s[i % 8] + t;
  }
  return ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every tail length 0..17 (no 8-block, one, two), with negative zeros,
// exact cancellations and a NaN: the slot-wise scalar tails must give the
// slot replay's bits, fast and ref alike.
TEST(SimdKernelTest, ReductionTailsMatchSlotReplayBitwise) {
  for (size_t n = 0; n <= 17; ++n) {
    for (uint64_t rep = 0; rep < 8; ++rep) {
      auto a = RandVec(n, 401 + 31 * n + rep);
      auto b = RandVec(n, 433 + 31 * n + rep);
      // Magnitudes 2^-30 .. 2^30, so that a term added to the wrong slot
      // changes the rounding.
      for (size_t i = 0; i < n; ++i) {
        a[i] = std::ldexp(a[i], static_cast<int>((i * 13 + rep * 7) % 61) - 30);
      }
      if (n >= 2) {  // -0 products and terms
        a[0] = -1.0;
        b[0] = 0.0;
        a[1] = -0.0;
        b[1] = -0.0;
      }
      if (n >= 11) a[10] = -a[2];  // slot 2 of Sum cancels exactly
      const auto dot = [&](size_t i) { return a[i] * b[i]; };
      const auto sum = [&](size_t i) { return a[i]; };
      const auto sq = [&](size_t i) {
        const double diff = a[i] - b[i];
        return diff * diff;
      };
      for (bool use_ref : {false, true}) {
        const double got_dot = use_ref ? k::ref::Dot(a.data(), b.data(), n)
                                       : k::Dot(a.data(), b.data(), n);
        const double got_sum =
            use_ref ? k::ref::Sum(a.data(), n) : k::Sum(a.data(), n);
        const double got_sq =
            use_ref ? k::ref::SquaredDistance(a.data(), b.data(), n)
                    : k::SquaredDistance(a.data(), b.data(), n);
        EXPECT_TRUE(SameBits(got_dot, SlotReplay(n, dot)))
            << "n=" << n << " rep=" << rep << " ref=" << use_ref;
        EXPECT_TRUE(SameBits(got_sum, SlotReplay(n, sum)))
            << "n=" << n << " rep=" << rep << " ref=" << use_ref;
        EXPECT_TRUE(SameBits(got_sq, SlotReplay(n, sq)))
            << "n=" << n << " rep=" << rep << " ref=" << use_ref;
      }
      if (n >= 3) {  // a NaN anywhere poisons the sum on both builds
        a[n - 1] = std::numeric_limits<double>::quiet_NaN();
        EXPECT_TRUE(std::isnan(k::Dot(a.data(), b.data(), n)));
        EXPECT_TRUE(
            std::isnan(k::ref::SquaredDistance(a.data(), b.data(), n)));
      }
    }
  }
  // A lone -0 product lands in a +0 slot: +0 + -0 = +0.
  const double minus_one = -1.0, zero = 0.0, minus_zero = -0.0;
  for (double got : {k::Dot(&minus_one, &zero, 1),
                     k::ref::Dot(&minus_one, &zero, 1),
                     k::Sum(&minus_zero, 1), k::ref::Sum(&minus_zero, 1)}) {
    EXPECT_EQ(got, 0.0);
    EXPECT_FALSE(std::signbit(got));
  }
}

// QuadDiag has one accumulator: term i goes to slot i % 4, and the slots
// combine as (s0 + s1) + (s2 + s3).
TEST(SimdKernelTest, QuadDiagTailMatchesSlotReplayBitwise) {
  for (size_t n = 0; n <= 17; ++n) {
    const auto x = RandVec(n, 503 + n);
    const auto mean = RandVec(n, 509 + n);
    auto var = RandVec(n, 521 + n);
    for (auto& v : var) v = 0.25 + std::abs(v);
    double s[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < n; ++i) {
      const double diff = x[i] - mean[i];
      volatile double sq = diff * diff;
      volatile double t = sq / var[i];
      s[i % 4] = s[i % 4] + t;
    }
    const double want = (s[0] + s[1]) + (s[2] + s[3]);
    EXPECT_TRUE(SameBits(k::QuadDiag(x.data(), mean.data(), var.data(), n),
                         want))
        << "n=" << n;
    EXPECT_TRUE(SameBits(
        k::ref::QuadDiag(x.data(), mean.data(), var.data(), n), want))
        << "n=" << n;
  }
}

// Double4::Set and Double4::SelectLess, lane by lane, on the scalar
// backend (the AVX2 and NEON versions are checked through the row-lane
// kernels, whose results must equal the scalar backend's).
TEST(SimdKernelTest, ScalarBackendSetAndSelectLessLaneSemantics) {
  using simd::Double4;
  double lanes[4];
  Double4::Set(1.5, -2.0, 0.0, -0.0).Store(lanes);
  EXPECT_EQ(lanes[0], 1.5);
  EXPECT_EQ(lanes[1], -2.0);
  EXPECT_FALSE(std::signbit(lanes[2]));
  EXPECT_TRUE(std::signbit(lanes[3]));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Lanes: a < b; a == b; a NaN; b NaN.
  const Double4 a = Double4::Set(1.0, 2.0, nan, 3.0);
  const Double4 b = Double4::Set(2.0, 2.0, 1.0, nan);
  const Double4 t = Double4::Set(10.0, 11.0, 12.0, 13.0);
  const Double4 f = Double4::Set(20.0, 21.0, 22.0, 23.0);
  Double4::SelectLess(a, b, t, f).Store(lanes);
  EXPECT_EQ(lanes[0], 10.0);
  EXPECT_EQ(lanes[1], 21.0);
  EXPECT_EQ(lanes[2], 22.0);
  EXPECT_EQ(lanes[3], 23.0);
  // -0 < +0 is false, as for the scalar `<`.
  Double4::SelectLess(Double4::Broadcast(-0.0), Double4::Zero(), t, f)
      .Store(lanes);
  EXPECT_EQ(lanes[0], 20.0);
  EXPECT_EQ(lanes[3], 23.0);
  // Lane order survives a Load/Store round trip through Set.
  const double in[4] = {4.0, 3.0, 2.0, 1.0};
  Double4::SelectLess(Double4::Load(in), Double4::Broadcast(2.5), t, f)
      .Store(lanes);
  EXPECT_EQ(lanes[0], 20.0);
  EXPECT_EQ(lanes[1], 21.0);
  EXPECT_EQ(lanes[2], 12.0);
  EXPECT_EQ(lanes[3], 13.0);
}

TEST(SimdKernelTest, QuadDiagBitIdenticalAndTailSafe) {
  for (size_t n : kLens) {
    const auto x = RandVec(n, 3 + n);
    const auto mean = RandVec(n, 5 + n);
    auto var = RandVec(n, 11 + n);
    for (auto& v : var) v = 0.5 + std::abs(v);  // positive variances
    const double fast = k::QuadDiag(x.data(), mean.data(), var.data(), n);
    const double ref = k::ref::QuadDiag(x.data(), mean.data(), var.data(), n);
    EXPECT_EQ(fast, ref) << "n=" << n;
    EXPECT_FALSE(std::isnan(fast)) << "n=" << n;  // tail must not produce 0/0
  }
}

TEST(SimdKernelTest, ElementwiseBitIdenticalToRefAndScalarLoop) {
  for (size_t n : kLens) {
    const auto x = RandVec(n, 17 + n);
    const auto m = RandVec(n, 19 + n);
    const auto y0 = RandVec(n, 23 + n);
    const double alpha = 0.37;

    // Plain scalar loops — elementwise kernels promise bit-identity to
    // these as well (they carry the seed semantics of Covariance etc.).
    std::vector<double> want_axpy = y0, want_diff = y0, want_sq = y0,
                        want_add = y0;
    for (size_t i = 0; i < n; ++i) {
      want_axpy[i] = want_axpy[i] + (alpha * x[i]);
      want_diff[i] = want_diff[i] + (alpha * (x[i] - m[i]));
      const double d = x[i] - m[i];
      want_sq[i] = want_sq[i] + (alpha * (d * d));
      want_add[i] = want_add[i] + x[i];
    }

    for (bool use_ref : {false, true}) {
      std::vector<double> axpy = y0, diff = y0, sq = y0, add = y0;
      if (use_ref) {
        k::ref::Axpy(alpha, x.data(), axpy.data(), n);
        k::ref::AxpyDiff(alpha, x.data(), m.data(), diff.data(), n);
        k::ref::AxpySqDiff(alpha, x.data(), m.data(), sq.data(), n);
        k::ref::Add(add.data(), x.data(), n);
      } else {
        k::Axpy(alpha, x.data(), axpy.data(), n);
        k::AxpyDiff(alpha, x.data(), m.data(), diff.data(), n);
        k::AxpySqDiff(alpha, x.data(), m.data(), sq.data(), n);
        k::Add(add.data(), x.data(), n);
      }
      EXPECT_EQ(axpy, want_axpy) << "n=" << n << " ref=" << use_ref;
      EXPECT_EQ(diff, want_diff) << "n=" << n << " ref=" << use_ref;
      EXPECT_EQ(sq, want_sq) << "n=" << n << " ref=" << use_ref;
      EXPECT_EQ(add, want_add) << "n=" << n << " ref=" << use_ref;
    }
  }
}

TEST(SimdKernelTest, CenterRowMatchesScalarExpression) {
  for (size_t n : kLens) {
    const auto row = RandVec(n, 29 + n);
    const auto rm = RandVec(n, 31 + n);
    const double rm_i = 0.123, total = -0.456;
    std::vector<double> fast(n), ref(n), want(n);
    for (size_t j = 0; j < n; ++j) want[j] = ((row[j] - rm_i) - rm[j]) + total;
    k::CenterRow(row.data(), rm_i, rm.data(), total, fast.data(), n);
    k::ref::CenterRow(row.data(), rm_i, rm.data(), total, ref.data(), n);
    EXPECT_EQ(fast, want) << "n=" << n;
    EXPECT_EQ(ref, want) << "n=" << n;
  }
}

TEST(SimdKernelTest, UnalignedOffsetsBitIdentical) {
  // Walk every possible misalignment of a 64-bit load within a 32-byte
  // vector register by offsetting into a shared buffer.
  const size_t n = 37;
  const auto base = RandVec(n + 16, 41);
  for (size_t off_a = 0; off_a < 5; ++off_a) {
    for (size_t off_b = 0; off_b < 5; ++off_b) {
      const double* a = base.data() + off_a;
      const double* b = base.data() + 5 + off_b;
      EXPECT_EQ(k::Dot(a, b, n), k::ref::Dot(a, b, n))
          << off_a << "," << off_b;
      EXPECT_EQ(k::SquaredDistance(a, b, n), k::ref::SquaredDistance(a, b, n))
          << off_a << "," << off_b;
    }
  }
}

TEST(SimdKernelTest, DenormalAndExtremeInputs) {
  // Denormals, near-overflow magnitudes, exact zeros and sign flips must
  // flow through both instantiations identically (no FTZ/DAZ surprises —
  // we never enable flush-to-zero).
  const std::vector<double> specials = {
      0.0,      -0.0,     5e-324,   -5e-324,  1e-308,  -1e-308,
      1e154,    -1e154,   1e-200,   4.9e-324, 2.2e-308, 1.0,
      -1.0,     0.5,      -0.5,     3.0,      7e150,   -7e150,
      1e-310};
  const size_t n = specials.size();
  std::vector<double> rev(specials.rbegin(), specials.rend());
  EXPECT_EQ(k::Dot(specials.data(), rev.data(), n),
            k::ref::Dot(specials.data(), rev.data(), n));
  EXPECT_EQ(k::Sum(specials.data(), n), k::ref::Sum(specials.data(), n));
  EXPECT_EQ(k::SquaredDistance(specials.data(), rev.data(), n),
            k::ref::SquaredDistance(specials.data(), rev.data(), n));
  EXPECT_EQ(k::SquaredNorm(specials.data(), n),
            k::ref::SquaredNorm(specials.data(), n));
}

TEST(SimdKernelTest, ReductionCloseToNaiveReference) {
  // Fast == ref bitwise, but both use the 4-lane order; sanity-check the
  // value against a naive left-to-right sum within reduction-order slack.
  const size_t n = 1001;
  const auto a = RandVec(n, 51);
  const auto b = RandVec(n, 53);
  double naive = 0.0;
  for (size_t i = 0; i < n; ++i) naive += a[i] * b[i];
  EXPECT_NEAR(k::Dot(a.data(), b.data(), n), naive, 1e-12 * n);
  double naive_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    naive_sq += d * d;
  }
  EXPECT_NEAR(k::SquaredDistance(a.data(), b.data(), n), naive_sq, 1e-12 * n);
}

TEST(SimdKernelTest, GaussianGramKernelsMatchRefBitwise) {
  const size_t d = 13, count = 9;
  const auto x = RandVec(d, 61);
  const auto rows = RandVec(count * d, 67);
  std::vector<double> fast(count), ref(count);
  k::SquaredDistanceRow(x.data(), rows.data(), count, d, fast.data());
  k::ref::SquaredDistanceRow(x.data(), rows.data(), count, d, ref.data());
  EXPECT_EQ(fast, ref);
  for (size_t j = 0; j < count; ++j) {
    EXPECT_EQ(fast[j],
              k::ref::SquaredDistance(x.data(), rows.data() + j * d, d));
  }
  const std::vector<double> squared = fast;
  k::GaussianFromSquared(0.73, fast.data(), count);
  k::ref::GaussianFromSquared(0.73, ref.data(), count);
  EXPECT_EQ(fast, ref);
  for (size_t j = 0; j < count; ++j) {
    EXPECT_EQ(fast[j], std::exp(-0.73 * squared[j]));
  }
}

TEST(SimdKernelTest, NearestKernelsAgreeWithRefAndBreakTiesLow) {
  const size_t d = 7, kcount = 5;
  const auto x = RandVec(d, 71);
  auto centers = RandVec(kcount * d, 73);
  // Duplicate center 1 into center 3: argmin must pick index 1.
  std::copy(centers.begin() + 1 * d, centers.begin() + 2 * d,
            centers.begin() + 3 * d);
  const int fast = test::NearestSquared(x.data(), centers.data(), kcount, d);
  const int ref = test::NearestSquared(x.data(), centers.data(), kcount, d,
                                       k::ref::SquaredDistance);
  EXPECT_EQ(fast, ref);

  std::vector<double> norms(kcount);
  for (size_t c = 0; c < kcount; ++c) {
    norms[c] = k::SquaredNorm(centers.data() + c * d, d);
  }
  const double xn = k::SquaredNorm(x.data(), d);
  EXPECT_EQ(test::NearestNormForm(x.data(), centers.data(), kcount, d, xn,
                                  norms.data()),
            test::NearestNormForm(x.data(), centers.data(), kcount, d, xn,
                                  norms.data(), k::ref::Dot));

  // Exact-tie construction: all-identical centers -> index 0 wins.
  std::vector<double> same(kcount * d);
  for (size_t c = 0; c < kcount; ++c) {
    std::copy(x.begin(), x.end(), same.begin() + c * d);
  }
  EXPECT_EQ(test::NearestSquared(x.data(), same.data(), kcount, d), 0);
  EXPECT_EQ(test::NearestSquared(x.data(), same.data(), kcount, d,
                                 k::ref::SquaredDistance),
            0);
}

// The row-lane kernels promise the per-pair kernels' result for every
// row, on both builds: d 1-21 (every slot residue, one and two 8-blocks),
// k 1-9, counts that are not a multiple of 4, exact ties (a duplicated
// centre, a row equal to a centre) and infinite coordinates (inf - inf is
// NaN, whose comparisons are all false). The per-pair scans of
// support/nearest_oracle.h and SquaredDistance are the oracle.
TEST(SimdKernelTest, RowLaneKernelsMatchPerPairKernelsAndRef) {
  const double inf = std::numeric_limits<double>::infinity();
  size_t cases = 0;
  for (size_t d = 1; d <= 21; ++d) {
    for (size_t kc = 1; kc <= 9; ++kc) {
      for (size_t count : {1, 2, 3, 5, 6, 7, 13, 22}) {
        const uint64_t seed = 1000 * d + 10 * kc + count;
        auto x = RandVec(count * d, seed);
        auto centers = RandVec(kc * d, seed + 7);
        if (kc >= 3) {  // duplicated centre: the lower index must win
          std::copy(centers.begin() + d, centers.begin() + 2 * d,
                    centers.end() - d);
        }
        std::copy(centers.end() - d, centers.end(), x.begin());  // dist 0
        if (count >= 3) x[2 * d] = inf;
        if (count >= 4) x[3 * d + d - 1] = -inf;
        if (kc >= 2 && count % 2 == 0) centers[d] = inf;  // some NaN pairs
        std::vector<double> xn(count), cn(kc);
        for (size_t r = 0; r < count; ++r) {
          xn[r] = k::SquaredNorm(x.data() + r * d, d);
        }
        for (size_t c = 0; c < kc; ++c) {
          cn[c] = k::SquaredNorm(centers.data() + c * d, d);
        }

        std::vector<int> sq(count, -7), sq_ref(count, -8), nf(count, -7),
            nf_ref(count, -8);
        k::NearestSquaredRows(x.data(), count, centers.data(), kc, d,
                              sq.data());
        k::ref::NearestSquaredRows(x.data(), count, centers.data(), kc, d,
                                   sq_ref.data());
        k::NearestNormFormRows(x.data(), count, centers.data(), kc, d,
                               xn.data(), cn.data(), nf.data());
        k::ref::NearestNormFormRows(x.data(), count, centers.data(), kc, d,
                                    xn.data(), cn.data(), nf_ref.data());
        std::vector<int> labels(count);
        for (size_t r = 0; r < count; ++r) {
          const double* row = x.data() + r * d;
          const int want_sq = test::NearestSquared(row, centers.data(), kc, d);
          ASSERT_EQ(want_sq, test::NearestSquared(row, centers.data(), kc, d,
                                                  k::ref::SquaredDistance));
          const int want_nf = test::NearestNormForm(row, centers.data(), kc,
                                                    d, xn[r], cn.data());
          ASSERT_EQ(want_nf,
                    test::NearestNormForm(row, centers.data(), kc, d, xn[r],
                                          cn.data(), k::ref::Dot));
          ASSERT_EQ(sq[r], want_sq) << "d=" << d << " k=" << kc << " r=" << r;
          ASSERT_EQ(sq_ref[r], want_sq) << "d=" << d << " k=" << kc;
          ASSERT_EQ(nf[r], want_nf) << "d=" << d << " k=" << kc << " r=" << r;
          ASSERT_EQ(nf_ref[r], want_nf) << "d=" << d << " k=" << kc;
          // Own-centre labels, with one unassigned row per call.
          labels[r] = r == count / 2 ? -1 : static_cast<int>((r * 5) % kc);
        }

        std::vector<double> dist(count, -1.0), dist_ref(count, -2.0),
            want(count);
        k::AssignedSquaredDistances(x.data(), count, centers.data(),
                                    labels.data(), d, dist.data());
        k::ref::AssignedSquaredDistances(x.data(), count, centers.data(),
                                         labels.data(), d, dist_ref.data());
        for (size_t r = 0; r < count; ++r) {
          want[r] = labels[r] < 0
                        ? 0.0
                        : k::SquaredDistance(x.data() + r * d,
                                             centers.data() + labels[r] * d,
                                             d);
        }
        ASSERT_TRUE(SameBits(dist, want)) << "d=" << d << " k=" << kc;
        ASSERT_TRUE(SameBits(dist_ref, want)) << "d=" << d << " k=" << kc;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 21u * 9u * 8u);
}

// Every width d 1..17 (each compile-time width and the run-time path)
// and every row count 1..9 (full and partial four-row groups): each
// row-lane kernel must equal its ref:: build and the per-pair kernels,
// bit for bit. The centres carry an exact tie (a duplicate of an earlier
// centre: the lower index must win) and, in some cases, a NaN coordinate
// in centre 0 (every distance to it is NaN, so label 0 sticks) or in a
// later centre (it never wins). One row carries a NaN (label 0).
TEST(SimdKernelTest, RowLaneKernelsBitwiseForEveryWidthAndPartialGroup) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  size_t cases = 0;
  for (size_t d = 1; d <= 17; ++d) {
    for (size_t count = 1; count <= 9; ++count) {
      for (int nan_mode = 0; nan_mode < 3; ++nan_mode) {
        const size_t kc = 4;
        const uint64_t seed = 7000 + 100 * d + 10 * count + nan_mode;
        auto x = RandVec(count * d, seed);
        auto centers = RandVec(kc * d, seed + 3);
        std::copy(centers.begin() + d, centers.begin() + 2 * d,
                  centers.begin() + 3 * d);  // centre 3 ties centre 1
        std::copy(centers.begin() + d, centers.begin() + 2 * d,
                  x.begin());  // row 0 sits on the tied centres
        if (nan_mode == 1) centers[d / 2] = nan;
        if (nan_mode == 2) centers[2 * d + d - 1] = nan;
        if (count >= 6) x[5 * d + d / 2] = nan;
        std::vector<double> xn(count), cn(kc);
        for (size_t r = 0; r < count; ++r) {
          xn[r] = k::SquaredNorm(x.data() + r * d, d);
        }
        for (size_t c = 0; c < kc; ++c) {
          cn[c] = k::SquaredNorm(centers.data() + c * d, d);
        }

        // One row against `count` rows, for each centre as the row.
        for (size_t c = 0; c < kc; ++c) {
          const double* row = centers.data() + c * d;
          // Four sentinels past the end catch a partial group's store.
          std::vector<double> fast(count + 4, -1.0), ref(count + 4, -2.0),
              want(count), want_ref(count);
          k::SquaredDistanceRow(row, x.data(), count, d, fast.data());
          k::ref::SquaredDistanceRow(row, x.data(), count, d, ref.data());
          for (size_t j = count; j < count + 4; ++j) {
            ASSERT_EQ(fast[j], -1.0) << "d=" << d << " n=" << count;
            ASSERT_EQ(ref[j], -2.0) << "d=" << d << " n=" << count;
          }
          fast.resize(count);
          ref.resize(count);
          for (size_t j = 0; j < count; ++j) {
            want[j] = k::SquaredDistance(row, x.data() + j * d, d);
            want_ref[j] = k::ref::SquaredDistance(row, x.data() + j * d, d);
          }
          ASSERT_TRUE(SameBits(fast, want)) << "d=" << d << " n=" << count;
          ASSERT_TRUE(SameBits(ref, want_ref)) << "d=" << d << " n=" << count;
          ASSERT_TRUE(SameBits(want, want_ref)) << "d=" << d;
        }

        std::vector<int> sq(count, -7), sq_ref(count, -8), nf(count, -7),
            nf_ref(count, -8);
        k::NearestSquaredRows(x.data(), count, centers.data(), kc, d,
                              sq.data());
        k::ref::NearestSquaredRows(x.data(), count, centers.data(), kc, d,
                                   sq_ref.data());
        k::NearestNormFormRows(x.data(), count, centers.data(), kc, d,
                               xn.data(), cn.data(), nf.data());
        k::ref::NearestNormFormRows(x.data(), count, centers.data(), kc, d,
                                    xn.data(), cn.data(), nf_ref.data());
        for (size_t r = 0; r < count; ++r) {
          const double* row = x.data() + r * d;
          const int want_sq = test::NearestSquared(row, centers.data(), kc, d);
          const int want_nf = test::NearestNormForm(row, centers.data(), kc,
                                                    d, xn[r], cn.data());
          ASSERT_EQ(want_sq, test::NearestSquared(row, centers.data(), kc, d,
                                                  k::ref::SquaredDistance));
          ASSERT_EQ(want_nf,
                    test::NearestNormForm(row, centers.data(), kc, d, xn[r],
                                          cn.data(), k::ref::Dot));
          ASSERT_EQ(sq[r], want_sq) << "d=" << d << " n=" << count
                                    << " r=" << r << " nan=" << nan_mode;
          ASSERT_EQ(sq_ref[r], want_sq) << "d=" << d << " n=" << count;
          ASSERT_EQ(nf[r], want_nf) << "d=" << d << " n=" << count
                                    << " r=" << r << " nan=" << nan_mode;
          ASSERT_EQ(nf_ref[r], want_nf) << "d=" << d << " n=" << count;
        }
        // The pinned outcomes: the tie goes to centre 1 (not 3), a NaN
        // centre 0 keeps label 0 for every row, a NaN row gets label 0.
        if (nan_mode == 1) {
          for (size_t r = 0; r < count; ++r) ASSERT_EQ(sq[r], 0);
        } else {
          ASSERT_EQ(sq[0], 1) << "d=" << d << " n=" << count;
        }
        if (count >= 6) {
          ASSERT_EQ(sq[5], 0);
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 17u * 9u * 3u);
}

TEST(SimdKernelTest, GemmRowsMatchesRefAndNaive) {
  // Odd shapes straddle the j-block (512) and k-block (64) boundaries.
  struct Shape {
    size_t m, k, n;
  };
  const Shape shapes[] = {{1, 1, 1},   {3, 5, 7},    {8, 64, 512},
                          {5, 65, 513}, {2, 130, 9},  {7, 3, 1030}};
  for (const auto& s : shapes) {
    const auto a = RandVec(s.m * s.k, 81 + s.m);
    const auto b = RandVec(s.k * s.n, 83 + s.n);
    std::vector<double> fast(s.m * s.n, 0.0), ref(s.m * s.n, 0.0);
    k::GemmRows(a.data(), s.k, b.data(), s.n, fast.data(), 0, s.m);
    k::ref::GemmRows(a.data(), s.k, b.data(), s.n, ref.data(), 0, s.m);
    EXPECT_EQ(fast, ref) << s.m << "x" << s.k << "x" << s.n;
    for (size_t i = 0; i < s.m; ++i) {
      for (size_t j = 0; j < s.n; ++j) {
        double want = 0.0;
        for (size_t kk = 0; kk < s.k; ++kk) {
          want += a[i * s.k + kk] * b[kk * s.n + j];
        }
        EXPECT_NEAR(fast[i * s.n + j], want, 1e-10 * (1.0 + std::abs(want)))
            << s.m << "x" << s.k << "x" << s.n << " @" << i << "," << j;
      }
    }
  }
}

TEST(SimdKernelTest, GemmRowsRowRangeOnlyTouchesRequestedRows) {
  const size_t m = 6, kk = 10, n = 21;
  const auto a = RandVec(m * kk, 97);
  const auto b = RandVec(kk * n, 101);
  std::vector<double> full(m * n, 0.0), part(m * n, 0.0);
  k::GemmRows(a.data(), kk, b.data(), n, full.data(), 0, m);
  k::GemmRows(a.data(), kk, b.data(), n, part.data(), 2, 5);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double want = (i >= 2 && i < 5) ? full[i * n + j] : 0.0;
      EXPECT_EQ(part[i * n + j], want) << i << "," << j;
    }
  }
}

// The plain scalar loop the symmetric tile pass promises to reproduce,
// one labelling at a time: cluster c's members in ascending row order,
// each root added in that order.
std::vector<double> MemberOrderSums(const std::vector<double>& data, size_t d,
                                    const std::vector<int>& labels,
                                    size_t kc) {
  const size_t n = labels.size();
  std::vector<std::vector<size_t>> members(kc);
  for (size_t j = 0; j < n; ++j) {
    if (labels[j] >= 0) members[labels[j]].push_back(j);
  }
  std::vector<double> out(n * kc);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < kc; ++c) {
      double sum = 0.0;
      for (size_t m : members[c]) {
        double s = 0.0;
        for (size_t t = 0; t < d; ++t) {
          const double diff = data[r * d + t] - data[m * d + t];
          s += diff * diff;
        }
        sum += std::sqrt(s);
      }
      out[r * kc + c] = sum;
    }
  }
  return out;
}

using TileFn = void (*)(const double*, size_t, const int* const*,
                        const size_t*, size_t, size_t, size_t, size_t, size_t,
                        double*);

// Runs `tile` over every tile (I <= J) of `block`-row blocks, I then J
// ascending, and returns each labelling's (n x ks[l]) sums read from the
// accumulator layout. Every accumulator the layout does not name (noise,
// padding) is left out.
std::vector<std::vector<double>> TiledSums(
    TileFn tile, const std::vector<double>& data, size_t d,
    const std::vector<std::vector<int>>& labels,
    const std::vector<size_t>& ks, size_t block) {
  const size_t n = labels[0].size(), num = labels.size();
  std::vector<const int*> label_ptrs(num);
  size_t slots = 1;
  for (size_t l = 0; l < num; ++l) {
    label_ptrs[l] = labels[l].data();
    slots += ks[l];
  }
  std::vector<double> acc((n + 3) / 4 * 4 * slots, 0.0);
  for (size_t i = 0; i < n; i += block) {
    for (size_t j = i; j < n; j += block) {
      tile(data.data(), d, label_ptrs.data(), ks.data(), num, i,
           std::min(i + block, n), j, std::min(j + block, n), acc.data());
    }
  }
  std::vector<std::vector<double>> out(num);
  size_t base = 0;
  for (size_t l = 0; l < num; ++l) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < ks[l]; ++c) {
        out[l].push_back(acc[i / 4 * 4 * slots + 4 * (base + c) + i % 4]);
      }
    }
    base += ks[l];
  }
  return out;
}

// Labellings 0 .. num-1 of n rows: rows draw clusters 0 .. drawn-1 or
// noise (-1); the last row alone is cluster ks-1, and for ks >= 3
// cluster ks-2 stays empty.
std::vector<std::vector<int>> NoisyLabellings(size_t n, size_t num,
                                              uint64_t seed, size_t shift,
                                              std::vector<size_t>* ks) {
  Rng rng(seed);
  std::vector<std::vector<int>> labels(num, std::vector<int>(n));
  ks->assign(num, 0);
  for (size_t l = 0; l < num; ++l) {
    (*ks)[l] = 2 + (l + shift) % 8;  // 2 .. 9
    const size_t drawn = (*ks)[l] >= 3 ? (*ks)[l] - 2 : 1;
    for (size_t j = 0; j + 1 < n; ++j) {
      const uint64_t draw = rng.NextIndex(drawn + 1);
      labels[l][j] = draw == drawn ? -1 : static_cast<int>(draw);
    }
    labels[l][n - 1] = static_cast<int>((*ks)[l]) - 1;
  }
  return labels;
}

TEST(SimdKernelTest, ClusterDistanceSumsTileBitIdenticalToRefAndMemberLoop) {
  // n covers every residue mod 4 (a partial last quad); blocks of 4, 12
  // (an odd quad count) and 64 rows (one diagonal tile) cut it into
  // diagonal and off-diagonal tiles; 1-7 labellings (7 takes the
  // run-time count) carry noise, a singleton cluster and, for k >= 3, an
  // empty one; rows are scaled across magnitudes from 1e-160 to 1e150.
  const double kScales[] = {1.0, 1e-3, 1e10, 1e-160, 1e150, 7.5};
  for (size_t d : {1, 2, 3, 5, 6, 9, 17, 21}) {
    for (size_t n : {5, 13, 38, 43}) {
      std::vector<double> pool = RandVec(n * d, 131 + d * 7 + n);
      for (size_t j = 0; j < n; ++j) {
        for (size_t t = 0; t < d; ++t) pool[j * d + t] *= kScales[j % 6];
      }
      for (size_t num = 1; num <= 7; ++num) {
        std::vector<size_t> ks;
        const auto labels =
            NoisyLabellings(n, num, 1000 * d + 10 * n + num, d + n, &ks);
        std::vector<std::vector<double>> want(num);
        for (size_t l = 0; l < num; ++l) {
          want[l] = MemberOrderSums(pool, d, labels[l], ks[l]);
        }
        for (size_t block : {4, 12, 64}) {
          const auto fast =
              TiledSums(k::ClusterDistanceSumsTile, pool, d, labels, ks, block);
          const auto ref = TiledSums(k::ref::ClusterDistanceSumsTile, pool, d,
                                     labels, ks, block);
          for (size_t l = 0; l < num; ++l) {
            EXPECT_TRUE(SameBits(fast[l], ref[l]))
                << "d=" << d << " n=" << n << " block=" << block << " l=" << l;
            EXPECT_TRUE(SameBits(fast[l], want[l]))
                << "d=" << d << " n=" << n << " block=" << block << " l=" << l;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, ClusterDistanceSumsTileSpansThreeRowBlocks) {
  // The pass's 256-row blocks: n = 517 and 1029 end in a partial quad,
  // and 523 also has an odd quad count (131), so the last strip of the
  // last diagonal tile holds one quad.
  for (size_t n : {517, 523, 1029}) {
    for (size_t d : {1, 6, 21}) {
      const std::vector<double> pool = RandVec(n * d, 17 * n + d);
      for (size_t num : {1, 5}) {
        std::vector<size_t> ks;
        const auto labels = NoisyLabellings(n, num, n + d + num, d, &ks);
        const auto fast =
            TiledSums(k::ClusterDistanceSumsTile, pool, d, labels, ks, 256);
        const auto ref = TiledSums(k::ref::ClusterDistanceSumsTile, pool, d,
                                   labels, ks, 256);
        for (size_t l = 0; l < num; ++l) {
          EXPECT_TRUE(SameBits(fast[l], ref[l]))
              << "n=" << n << " d=" << d << " l=" << l;
          EXPECT_TRUE(
              SameBits(fast[l], MemberOrderSums(pool, d, labels[l], ks[l])))
              << "n=" << n << " d=" << d << " l=" << l;
        }
      }
    }
  }
}

TEST(SimdKernelTest, ClusterDistanceSumsTileSqrtExactAcrossMagnitudes) {
  // d = 1 and one labelled row: each sum is one root, of squared
  // distances from subnormal to overflow (sqrt(inf) = inf) and exact
  // zeros, taken on the row side or, transposed, on the partner side.
  // Every lane's Double4::Sqrt must equal std::sqrt, and the second
  // labelling's empty cluster must read +0.
  const std::vector<double> pool = {0.0,    1e-160, 3e-155, 1e-3,  0.5,
                                    1.0,    2.0,    1e10,   1e150, 1e154,
                                    1e155,  1e160,  -1e160, -2.0,  7.25,
                                    -0.0,   3.5};
  const size_t n = pool.size();
  const std::vector<size_t> ks = {1, 2};
  for (size_t m = 0; m < n; ++m) {
    std::vector<int> only_m(n, -1);
    only_m[m] = 0;
    const std::vector<std::vector<int>> labels = {only_m, only_m};
    for (size_t block : {4, 8, 20}) {
      const auto fast =
          TiledSums(k::ClusterDistanceSumsTile, pool, 1, labels, ks, block);
      const auto ref = TiledSums(k::ref::ClusterDistanceSumsTile, pool, 1,
                                 labels, ks, block);
      EXPECT_TRUE(SameBits(fast[0], ref[0])) << "member " << m;
      EXPECT_TRUE(SameBits(fast[1], ref[1])) << "member " << m;
      for (size_t i = 0; i < n; ++i) {
        const double diff = pool[i] - pool[m];
        const double want = std::sqrt(diff * diff);
        EXPECT_EQ(std::memcmp(&fast[0][i], &want, sizeof(double)), 0)
            << "row " << i << " member " << m << " block " << block;
        EXPECT_EQ(std::memcmp(&fast[1][2 * i], &want, sizeof(double)), 0);
        EXPECT_EQ(fast[1][2 * i + 1], 0.0) << "an empty cluster must sum to +0";
        EXPECT_FALSE(std::signbit(fast[1][2 * i + 1]));
      }
    }
  }
}

TEST(SimdKernelTest, ScalarBackendTransposeMovesLaneCOfRowRToLaneROfRowC) {
  using V = simd::Double4;
  double in[16], out[16];
  for (int i = 0; i < 16; ++i) in[i] = i;
  V r0 = V::Load(in), r1 = V::Load(in + 4), r2 = V::Load(in + 8),
    r3 = V::Load(in + 12);
  V::Transpose(r0, r1, r2, r3);
  r0.Store(out);
  r1.Store(out + 4);
  r2.Store(out + 8);
  r3.Store(out + 12);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(out[4 * c + r], in[4 * r + c]);
  }
}

TEST(SimdKernelTest, InfoReportsLaneModelAndBackend) {
  const k::SimdInfo info = k::Info();
  EXPECT_EQ(info.double_lanes, 4);
  EXPECT_TRUE(info.backend == "avx2" || info.backend == "neon" ||
              info.backend == "scalar")
      << info.backend;
#if defined(MULTICLUST_SIMD)
  EXPECT_TRUE(info.compiled_simd);
#else
  EXPECT_FALSE(info.compiled_simd);
  EXPECT_EQ(info.backend, "scalar");
#endif
  EXPECT_FALSE(k::RuntimeIsa().empty());
}

}  // namespace
}  // namespace multiclust
