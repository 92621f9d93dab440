// Reference kernel instantiation: forced scalar lane emulation, compiled
// with -ffp-contract=off and -fno-tree-vectorize. This is the in-process
// stand-in for a -DMULTICLUST_SIMD=OFF build — tests assert bitwise
// equality against it, and bench_micro_kernels measures speedups against
// it as the scalar baseline.

#define MULTICLUST_SIMD_FORCE_SCALAR 1

#include "linalg/kernel_impl.h"
#include "linalg/kernels.h"
#include "linalg/simd.h"

namespace multiclust {
namespace kernels {
namespace ref {

using simd::Double4;

#if !defined(MULTICLUST_SIMD_BACKEND_SCALAR)
#error "ref TU must see the scalar backend"
#endif

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
void SquaredDistanceRow(const double* x, const double* rows, size_t count,
                        size_t d, double* out) {
  impl::SquaredDistanceRow<Double4>(x, rows, count, d, out);
}
void GaussianFromSquared(double gamma, double* s, size_t n) {
  impl::GaussianFromSquared<Double4>(gamma, s, n);
}
void NearestSquaredRows(const double* x, size_t count, const double* centers,
                        size_t k, size_t d, int* out) {
  impl::NearestSquaredRows<Double4>(x, count, centers, k, d, out);
}
void NearestNormFormRows(const double* x, size_t count, const double* centers,
                         size_t k, size_t d, const double* x_norms,
                         const double* center_norms, int* out) {
  impl::NearestNormFormRows<Double4>(x, count, centers, k, d, x_norms,
                                     center_norms, out);
}
void AssignedSquaredDistances(const double* x, size_t count,
                              const double* centers, const int* labels,
                              size_t d, double* out) {
  impl::AssignedSquaredDistances<Double4>(x, count, centers, labels, d, out);
}
void GemmRows(const double* a, size_t acols, const double* b, size_t bcols,
              double* c, size_t row_begin, size_t row_end) {
  impl::GemmRows<Double4>(a, acols, b, bcols, c, row_begin, row_end);
}
void ClusterDistanceSumsTile(const double* data, size_t d,
                             const int* const* labels, const size_t* ks,
                             size_t num_labellings, size_t rows_begin,
                             size_t rows_end, size_t cols_begin,
                             size_t cols_end, double* acc) {
  impl::ClusterDistanceSumsTile<Double4>(data, d, labels, ks, num_labellings,
                                         rows_begin, rows_end, cols_begin,
                                         cols_end, acc);
}

}  // namespace ref
}  // namespace kernels
}  // namespace multiclust
