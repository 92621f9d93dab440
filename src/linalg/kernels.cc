// Fast-path kernel instantiation. This TU is the only one compiled with
// arch-specific flags (-mavx2 on x86_64 when MULTICLUST_SIMD is ON) and,
// like kernels_ref.cc, with -ffp-contract=off so MulAdd keeps its two
// roundings on every backend.

#include "linalg/kernels.h"

#include "common/profile.h"
#include "linalg/kernel_impl.h"
#include "linalg/simd.h"

namespace multiclust {
namespace kernels {

using simd::Double4;

SimdInfo Info() {
  SimdInfo info;
  info.backend = MULTICLUST_SIMD_BACKEND_NAME;
#if defined(MULTICLUST_SIMD)
  info.compiled_simd = true;
#else
  info.compiled_simd = false;
#endif
  info.double_lanes = Double4::kLanes;
  return info;
}

std::string RuntimeIsa() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("sse2")) return "sse2";
#endif
  return "unknown";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "unknown";
#endif
}

double Dot(const double* a, const double* b, size_t n) {
  return impl::Dot<Double4>(a, b, n);
}
double Sum(const double* x, size_t n) { return impl::Sum<Double4>(x, n); }
double SquaredNorm(const double* x, size_t n) {
  return impl::SquaredNorm<Double4>(x, n);
}
double SquaredDistance(const double* a, const double* b, size_t n) {
  return impl::SquaredDistance<Double4>(a, b, n);
}
double QuadDiag(const double* x, const double* mean, const double* var,
                size_t n) {
  return impl::QuadDiag<Double4>(x, mean, var, n);
}
void Add(double* acc, const double* x, size_t n) {
  impl::Add<Double4>(acc, x, n);
}
void Axpy(double alpha, const double* x, double* y, size_t n) {
  impl::Axpy<Double4>(alpha, x, y, n);
}
void AxpyDiff(double alpha, const double* x, const double* m, double* y,
              size_t n) {
  impl::AxpyDiff<Double4>(alpha, x, m, y, n);
}
void AxpySqDiff(double alpha, const double* x, const double* m, double* y,
                size_t n) {
  impl::AxpySqDiff<Double4>(alpha, x, m, y, n);
}
void CenterRow(const double* row, double rm_i, const double* rm, double total,
               double* out, size_t n) {
  impl::CenterRow<Double4>(row, rm_i, rm, total, out, n);
}
// The Gaussian Gram's two steps tally at call granularity (one row
// against `count` rows): 3d flops per pair for the squared distance, which
// reads the rows and x, then one flop (the exp) and one double per entry.
void SquaredDistanceRow(const double* x, const double* rows, size_t count,
                        size_t d, double* out) {
  telemetry::CountFlops(3 * count * d, (count * d + d) * sizeof(double));
  impl::SquaredDistanceRow<Double4>(x, rows, count, d, out);
}
void GaussianFromSquared(double gamma, double* s, size_t n) {
  telemetry::CountFlops(n, n * sizeof(double));
  impl::GaussianFromSquared<Double4>(gamma, s, n);
}
// The row-lane kernels tally at call granularity (one row block per
// call). Per (row, centre) pair: d subs, d muls and d adds for a squared
// distance; d muls and d adds for a dot product plus the norm form's
// three. Bytes count per-row traffic only (the row, its own centre, its
// inputs and output; the shared centres stay cached), so a tally summed
// over row blocks does not depend on how the rows were split.
void NearestSquaredRows(const double* x, size_t count, const double* centers,
                        size_t k, size_t d, int* out) {
  telemetry::CountFlops(3 * count * k * d,
                        count * (d * sizeof(double) + sizeof(int)));
  impl::NearestSquaredRows<Double4>(x, count, centers, k, d, out);
}
void NearestNormFormRows(const double* x, size_t count, const double* centers,
                         size_t k, size_t d, const double* x_norms,
                         const double* center_norms, int* out) {
  telemetry::CountFlops(count * k * (2 * d + 3),
                        count * ((d + 1) * sizeof(double) + sizeof(int)));
  impl::NearestNormFormRows<Double4>(x, count, centers, k, d, x_norms,
                                     center_norms, out);
}
void AssignedSquaredDistances(const double* x, size_t count,
                              const double* centers, const int* labels,
                              size_t d, double* out) {
  telemetry::CountFlops(3 * count * d,
                        count * ((2 * d + 1) * sizeof(double) + sizeof(int)));
  impl::AssignedSquaredDistances<Double4>(x, count, centers, labels, d, out);
}
void GemmRows(const double* a, size_t acols, const double* b, size_t bcols,
              double* c, size_t row_begin, size_t row_end) {
  // Telemetry FLOP tally at call granularity (one row block per call —
  // never inside the blocked inner loops): 2mnk flops, m(k + n) + kn
  // doubles touched.
  const size_t m = row_end - row_begin;
  telemetry::CountFlops(2 * m * acols * bcols,
                        (m * (acols + bcols) + acols * bcols) *
                            sizeof(double));
  impl::GemmRows<Double4>(a, acols, b, bcols, c, row_begin, row_end);
}
void ClusterDistanceSumsTile(const double* data, size_t d,
                             const int* const* labels, const size_t* ks,
                             size_t num_labellings, size_t rows_begin,
                             size_t rows_end, size_t cols_begin,
                             size_t cols_end, double* acc) {
  // Telemetry tally at call granularity (one tile per call): one root per
  // unordered pair (d subs, d muls, d adds and the sqrt) and, per
  // labelling, one add on each side that the other row is labelled for;
  // a diagonal tile's pair of a row with itself adds once. The roots a
  // quad computes twice against itself and the padding lanes are not
  // counted. Bytes: the tile's rows, labels and accumulator slots.
  const bool diagonal = rows_begin == cols_begin;
  const size_t rows = rows_end - rows_begin;
  const size_t cols = diagonal ? 0 : cols_end - cols_begin;
  size_t adds = 0, slots = 1;
  for (size_t l = 0; l < num_labellings; ++l) {
    size_t labelled_rows = 0, labelled_cols = 0;
    for (size_t i = rows_begin; i < rows_end; ++i) {
      labelled_rows += labels[l][i] >= 0;
    }
    for (size_t j = cols_begin; !diagonal && j < cols_end; ++j) {
      labelled_cols += labels[l][j] >= 0;
    }
    adds += diagonal ? rows * labelled_rows
                     : rows * labelled_cols + cols * labelled_rows;
    slots += ks[l];
  }
  const size_t pairs = diagonal ? rows * (rows + 1) / 2 : rows * cols;
  telemetry::CountFlops(pairs * (3 * d + 1) + adds,
                        (rows + cols) * (d + slots) * sizeof(double) +
                            num_labellings * (rows + cols) * sizeof(int));
  impl::ClusterDistanceSumsTile<Double4>(data, d, labels, ks, num_labellings,
                                         rows_begin, rows_end, cols_begin,
                                         cols_end, acc);
}

}  // namespace kernels
}  // namespace multiclust
