#ifndef MULTICLUST_LINALG_KERNELS_H_
#define MULTICLUST_LINALG_KERNELS_H_

/// Vectorized numeric kernels for the distance-dominated hot paths.
///
/// Two instantiations of the same templated bodies (kernel_impl.h):
///   multiclust::kernels::*      fast path — whatever backend the build
///                               selected (AVX2 / NEON / scalar emulation)
///   multiclust::kernels::ref::* always the scalar-emulation backend,
///                               compiled with vectorization disabled
///
/// The ref namespace is the in-process oracle for what a
/// -DMULTICLUST_SIMD=OFF build computes: tests assert bitwise equality
/// fast-vs-ref, and the micro benchmarks report ref-vs-fast as the
/// scalar-vs-SIMD speedup. See simd.h for the lane-model/determinism
/// contract that makes bitwise equality achievable.
///
/// All pointers are to contiguous, arbitrarily-aligned data (loads are
/// unaligned); matrix arguments are row-major.

#include <cstddef>
#include <string>

namespace multiclust {
namespace kernels {

/// Compile-time + runtime SIMD configuration, for bench envelopes and logs.
struct SimdInfo {
  std::string backend;   ///< "avx2" | "neon" | "scalar"
  bool compiled_simd;    ///< MULTICLUST_SIMD was ON at build time
  int double_lanes;      ///< always 4 (lane model, not hardware width)
};

/// Backend the fast instantiation was compiled with.
SimdInfo Info();

/// Best vector ISA the *CPU* supports at runtime ("avx512f", "avx2",
/// "sse2", "neon", or "unknown") — may exceed what the build uses.
std::string RuntimeIsa();

// --- f64 reductions (fixed 4-lane model; see simd.h). ---
double Dot(const double* a, const double* b, size_t n);
double Sum(const double* x, size_t n);
double SquaredNorm(const double* x, size_t n);
double SquaredDistance(const double* a, const double* b, size_t n);
/// sum_j (x[j]-mean[j])^2 / var[j] (diagonal Gaussian quadratic form).
double QuadDiag(const double* x, const double* mean, const double* var,
                size_t n);

// --- f64 elementwise (bit-identical to plain scalar loops). ---
void Add(double* acc, const double* x, size_t n);          ///< acc += x
void Axpy(double alpha, const double* x, double* y, size_t n);  ///< y += a*x
/// y[j] += alpha * (x[j] - m[j])
void AxpyDiff(double alpha, const double* x, const double* m, double* y,
              size_t n);
/// y[j] += alpha * (x[j] - m[j])^2
void AxpySqDiff(double alpha, const double* x, const double* m, double* y,
                size_t n);
/// out[j] = ((row[j] - rm_i) - rm[j]) + total  (HSIC double-centering)
void CenterRow(const double* row, double rm_i, const double* rm, double total,
               double* out, size_t n);

// --- fused / composite. ---
/// out[j] = ||x - rows_j||^2, rows_j = rows + j*d; each entry has the
/// bits of SquaredDistance(x, rows_j, d).
void SquaredDistanceRow(const double* x, const double* rows, size_t count,
                        size_t d, double* out);
/// s[j] = exp(-gamma * s[j]) in place: the Gaussian kernel of a squared
/// distance, for a Gram filled by SquaredDistanceRow.
void GaussianFromSquared(double gamma, double* s, size_t n);
/// Row-lane batches of the nearest-centre and own-centre distance scans,
/// for the `count` rows x_r = x + r*d. Every distance (or dot product) is
/// bit-identical to SquaredDistance (or Dot) of the same pair, so the
/// labels equal a per-pair scan's on every backend (kernel_impl.h has the
/// argument). Ties, and NaN distances, keep the lowest index.
/// out[r] = argmin_c ||x_r - centers_c||^2.
void NearestSquaredRows(const double* x, size_t count, const double* centers,
                        size_t k, size_t d, int* out);
/// out[r] = argmin_c x_norms[r] - 2*x_r.centers_c + center_norms[c].
void NearestNormFormRows(const double* x, size_t count, const double* centers,
                         size_t k, size_t d, const double* x_norms,
                         const double* center_norms, int* out);
/// out[r] = SquaredDistance(x_r, centers + labels[r]*d, d), or +0 where
/// labels[r] < 0.
void AssignedSquaredDistances(const double* x, size_t count,
                              const double* centers, const int* labels,
                              size_t d, double* out);
/// Cache-blocked row-major GEMM for rows [row_begin, row_end):
/// c[i,:] = a[i,:] * b. c rows must be zeroed. a is (?,acols), b is
/// (acols,bcols). Result is independent of the internal block sizes.
void GemmRows(const double* a, size_t acols, const double* b, size_t bcols,
              double* c, size_t row_begin, size_t row_end);
/// One tile of the symmetric per-cluster distance-sum pass over the rows
/// of the row-major (? x d) matrix `data`, under `num_labellings`
/// labellings at once: for every pair (i, j) of the tile, the distance
/// ||data_i - data_j|| (the sqrt of the ascending-coordinate sum of squared
/// differences) is computed once and added to row i's sum for
/// labels[l][j]'s cluster and to row j's sum for labels[l][i]'s, for every
/// labelling l. Labels must lie in [0, ks[l]); a label < 0 leaves the row
/// out of that labelling.
///
/// The tile is rows [rows_begin, rows_end) against cols [cols_begin,
/// cols_end). A diagonal tile (equal ranges) covers each pair of its rows
/// once, a row with itself included; otherwise rows_end <= cols_begin.
/// Ranges start at a multiple of 4 and end at one or at the row count n.
///
/// `acc` is the caller's zeroed accumulator array of 4 * ceil(n / 4) *
/// (S + 1) doubles, S the sum of ks: row i's sum for labelling l's
/// cluster c is acc[(i / 4) * 4 * (S + 1) + 4 * (base_l + c) + i % 4],
/// base_l the sum of ks[0 .. l). The last slot of each group of four rows
/// takes the noise and padding adds.
///
/// Each sum takes this tile's terms in ascending partner order. Run the
/// tiles so that each row's sums meet them in ascending partner order
/// too (every tile (I, J) after the tiles (I', J') with I' + J' < I + J,
/// say) and every sum is bit-identical to the plain scalar loop over the
/// cluster's members in ascending row order. Tiles that share no row
/// range touch disjoint accumulators.
void ClusterDistanceSumsTile(const double* data, size_t d,
                             const int* const* labels, const size_t* ks,
                             size_t num_labellings, size_t rows_begin,
                             size_t rows_end, size_t cols_begin,
                             size_t cols_end, double* acc);

/// Always-scalar reference instantiation of every kernel above
/// (identical signatures, forced scalar backend, no autovectorization).
namespace ref {
double Dot(const double* a, const double* b, size_t n);
double Sum(const double* x, size_t n);
double SquaredNorm(const double* x, size_t n);
double SquaredDistance(const double* a, const double* b, size_t n);
double QuadDiag(const double* x, const double* mean, const double* var,
                size_t n);
void Add(double* acc, const double* x, size_t n);
void Axpy(double alpha, const double* x, double* y, size_t n);
void AxpyDiff(double alpha, const double* x, const double* m, double* y,
              size_t n);
void AxpySqDiff(double alpha, const double* x, const double* m, double* y,
                size_t n);
void CenterRow(const double* row, double rm_i, const double* rm, double total,
               double* out, size_t n);
void SquaredDistanceRow(const double* x, const double* rows, size_t count,
                        size_t d, double* out);
void GaussianFromSquared(double gamma, double* s, size_t n);
void NearestSquaredRows(const double* x, size_t count, const double* centers,
                        size_t k, size_t d, int* out);
void NearestNormFormRows(const double* x, size_t count, const double* centers,
                         size_t k, size_t d, const double* x_norms,
                         const double* center_norms, int* out);
void AssignedSquaredDistances(const double* x, size_t count,
                              const double* centers, const int* labels,
                              size_t d, double* out);
void GemmRows(const double* a, size_t acols, const double* b, size_t bcols,
              double* c, size_t row_begin, size_t row_end);
void ClusterDistanceSumsTile(const double* data, size_t d,
                             const int* const* labels, const size_t* ks,
                             size_t num_labellings, size_t rows_begin,
                             size_t rows_end, size_t cols_begin,
                             size_t cols_end, double* acc);
}  // namespace ref

}  // namespace kernels
}  // namespace multiclust

#endif  // MULTICLUST_LINALG_KERNELS_H_
