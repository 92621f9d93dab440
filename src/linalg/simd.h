#ifndef MULTICLUST_LINALG_SIMD_H_
#define MULTICLUST_LINALG_SIMD_H_

/// Portable fixed-width SIMD value type: `Double4` (4 x f64).
///
/// Lane model / determinism contract
/// ---------------------------------
/// Every kernel in kernel_impl.h is written against a FIXED lane count (4
/// doubles) regardless of what the hardware offers, and every
/// reduction combines its lanes in one fixed scalar order. The backend is
/// chosen at compile time:
///
///   MULTICLUST_SIMD + __AVX2__     -> AVX2 intrinsics
///   MULTICLUST_SIMD + __ARM_NEON   -> NEON intrinsics (2 x 128-bit halves)
///   otherwise                      -> scalar lane emulation (double v[4])
///
/// Because the lane count, the tail handling and the lane-combine order
/// are identical across backends — and because `MulAdd` is always a
/// separately-rounded multiply + add (never a fused FMA; the kernel TUs
/// are compiled with -ffp-contract=off so the scalar backend cannot be
/// contracted either) — and because `Sqrt` is the IEEE correctly rounded
/// square root on every backend (`_mm256_sqrt_pd`, `vsqrtq_f64`,
/// `std::sqrt`) — a kernel produces bit-identical results whether
/// the build is SIMD-on or SIMD-off. tests/simd_kernel_test.cc and
/// determinism_test enforce this against the always-scalar `kernels::ref`
/// instantiation.
///
/// A translation unit may define MULTICLUST_SIMD_FORCE_SCALAR before
/// including this header to get the scalar backend regardless of the
/// build configuration (kernels_ref.cc does exactly that).

#include <cmath>
#include <cstddef>

#if !defined(MULTICLUST_SIMD_FORCE_SCALAR) && defined(MULTICLUST_SIMD) && \
    defined(__AVX2__)
#define MULTICLUST_SIMD_BACKEND_AVX2 1
#define MULTICLUST_SIMD_BACKEND_NAME "avx2"
#include <immintrin.h>
#elif !defined(MULTICLUST_SIMD_FORCE_SCALAR) && defined(MULTICLUST_SIMD) && \
    defined(__ARM_NEON)
#define MULTICLUST_SIMD_BACKEND_NEON 1
#define MULTICLUST_SIMD_BACKEND_NAME "neon"
#include <arm_neon.h>
#else
#define MULTICLUST_SIMD_BACKEND_SCALAR 1
#define MULTICLUST_SIMD_BACKEND_NAME "scalar"
#endif

namespace multiclust {
namespace simd {

// Each backend lives in its own *inline* namespace. Call sites just say
// simd::Double4, but the mangled type name differs per backend, so the
// template instantiations in kernels.cc (intrinsics) and kernels_ref.cc
// (forced scalar) get distinct symbols. Without this they would share one
// comdat symbol and the linker would silently collapse the "fast" and
// "ref" kernels onto whichever definition it saw first — an ODR violation
// that makes the fast-vs-ref bit-identity oracle vacuous.

#if defined(MULTICLUST_SIMD_BACKEND_AVX2)

inline namespace backend_avx2 {

struct Double4 {
  __m256d v;
  static constexpr int kLanes = 4;

  static Double4 Zero() { return {_mm256_setzero_pd()}; }
  static Double4 Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Double4 Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  /// Lanes (a, b, c, d): lane 0 is a.
  static Double4 Set(double a, double b, double c, double d) {
    return {_mm256_set_pd(d, c, b, a)};
  }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  Double4 operator+(Double4 o) const { return {_mm256_add_pd(v, o.v)}; }
  Double4 operator-(Double4 o) const { return {_mm256_sub_pd(v, o.v)}; }
  Double4 operator*(Double4 o) const { return {_mm256_mul_pd(v, o.v)}; }
  Double4 operator/(Double4 o) const { return {_mm256_div_pd(v, o.v)}; }

  /// Lane-wise square root (IEEE correctly rounded, like std::sqrt).
  Double4 Sqrt() const { return {_mm256_sqrt_pd(v)}; }

  /// acc + a * b with two roundings (mul then add; deliberately not FMA).
  static Double4 MulAdd(Double4 a, Double4 b, Double4 acc) {
    return {_mm256_add_pd(acc.v, _mm256_mul_pd(a.v, b.v))};
  }

  /// Lane-wise a < b ? t : f. The ordered compare is false when either
  /// side is NaN, like the scalar `<`.
  static Double4 SelectLess(Double4 a, Double4 b, Double4 t, Double4 f) {
    return {_mm256_blendv_pd(f.v, t.v, _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ))};
  }

  /// In-place 4 x 4 transpose: lane c of row r becomes lane r of row c.
  static void Transpose(Double4& r0, Double4& r1, Double4& r2, Double4& r3) {
    const __m256d t0 = _mm256_unpacklo_pd(r0.v, r1.v);  // 00 10 02 12
    const __m256d t1 = _mm256_unpackhi_pd(r0.v, r1.v);  // 01 11 03 13
    const __m256d t2 = _mm256_unpacklo_pd(r2.v, r3.v);  // 20 30 22 32
    const __m256d t3 = _mm256_unpackhi_pd(r2.v, r3.v);  // 21 31 23 33
    r0.v = _mm256_permute2f128_pd(t0, t2, 0x20);
    r1.v = _mm256_permute2f128_pd(t1, t3, 0x20);
    r2.v = _mm256_permute2f128_pd(t0, t2, 0x31);
    r3.v = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};

}  // inline namespace backend_avx2

#elif defined(MULTICLUST_SIMD_BACKEND_NEON)

inline namespace backend_neon {

struct Double4 {
  float64x2_t lo, hi;
  static constexpr int kLanes = 4;

  static Double4 Zero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static Double4 Broadcast(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
  static Double4 Load(const double* p) {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
  static Double4 Set(double a, double b, double c, double d) {
    return {vcombine_f64(vdup_n_f64(a), vdup_n_f64(b)),
            vcombine_f64(vdup_n_f64(c), vdup_n_f64(d))};
  }
  void Store(double* p) const {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }

  Double4 operator+(Double4 o) const {
    return {vaddq_f64(lo, o.lo), vaddq_f64(hi, o.hi)};
  }
  Double4 operator-(Double4 o) const {
    return {vsubq_f64(lo, o.lo), vsubq_f64(hi, o.hi)};
  }
  Double4 operator*(Double4 o) const {
    return {vmulq_f64(lo, o.lo), vmulq_f64(hi, o.hi)};
  }
  Double4 operator/(Double4 o) const {
    return {vdivq_f64(lo, o.lo), vdivq_f64(hi, o.hi)};
  }

  Double4 Sqrt() const { return {vsqrtq_f64(lo), vsqrtq_f64(hi)}; }

  static Double4 MulAdd(Double4 a, Double4 b, Double4 acc) {
    // vaddq(vmulq) keeps two roundings; vfmaq would fuse and break the
    // cross-backend bit-identity contract.
    return {vaddq_f64(acc.lo, vmulq_f64(a.lo, b.lo)),
            vaddq_f64(acc.hi, vmulq_f64(a.hi, b.hi))};
  }

  // vcltq_f64 is false on unordered lanes, like the scalar `<`.
  static Double4 SelectLess(Double4 a, Double4 b, Double4 t, Double4 f) {
    return {vbslq_f64(vcltq_f64(a.lo, b.lo), t.lo, f.lo),
            vbslq_f64(vcltq_f64(a.hi, b.hi), t.hi, f.hi)};
  }

  static void Transpose(Double4& r0, Double4& r1, Double4& r2, Double4& r3) {
    const Double4 a = r0, b = r1, c = r2, d = r3;
    r0 = {vzip1q_f64(a.lo, b.lo), vzip1q_f64(c.lo, d.lo)};
    r1 = {vzip2q_f64(a.lo, b.lo), vzip2q_f64(c.lo, d.lo)};
    r2 = {vzip1q_f64(a.hi, b.hi), vzip1q_f64(c.hi, d.hi)};
    r3 = {vzip2q_f64(a.hi, b.hi), vzip2q_f64(c.hi, d.hi)};
  }
};

}  // inline namespace backend_neon

#else  // scalar lane emulation

inline namespace backend_scalar {

struct Double4 {
  double v[4];
  static constexpr int kLanes = 4;

  static Double4 Zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
  static Double4 Broadcast(double x) { return {{x, x, x, x}}; }
  static Double4 Load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  static Double4 Set(double a, double b, double c, double d) {
    return {{a, b, c, d}};
  }
  void Store(double* p) const {
    for (int i = 0; i < 4; ++i) p[i] = v[i];
  }

  Double4 operator+(Double4 o) const {
    Double4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = v[i] + o.v[i];
    return r;
  }
  Double4 operator-(Double4 o) const {
    Double4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = v[i] - o.v[i];
    return r;
  }
  Double4 operator*(Double4 o) const {
    Double4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = v[i] * o.v[i];
    return r;
  }
  Double4 operator/(Double4 o) const {
    Double4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = v[i] / o.v[i];
    return r;
  }

  Double4 Sqrt() const {
    Double4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = std::sqrt(v[i]);
    return r;
  }

  static Double4 MulAdd(Double4 a, Double4 b, Double4 acc) {
    Double4 r;
    // Two roundings per lane; the kernel TUs build with -ffp-contract=off
    // so this can never be contracted into an FMA.
    for (int i = 0; i < 4; ++i) r.v[i] = acc.v[i] + (a.v[i] * b.v[i]);
    return r;
  }

  static Double4 SelectLess(Double4 a, Double4 b, Double4 t, Double4 f) {
    Double4 r;
    for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] < b.v[i] ? t.v[i] : f.v[i];
    return r;
  }

  static void Transpose(Double4& r0, Double4& r1, Double4& r2, Double4& r3) {
    Double4* rows[4] = {&r0, &r1, &r2, &r3};
    for (int r = 0; r < 4; ++r) {
      for (int c = r + 1; c < 4; ++c) {
        const double t = rows[r]->v[c];
        rows[r]->v[c] = rows[c]->v[r];
        rows[c]->v[r] = t;
      }
    }
  }
};

}  // inline namespace backend_scalar

#endif

}  // namespace simd
}  // namespace multiclust

#endif  // MULTICLUST_LINALG_SIMD_H_
