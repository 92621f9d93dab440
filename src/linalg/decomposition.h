#ifndef MULTICLUST_LINALG_DECOMPOSITION_H_
#define MULTICLUST_LINALG_DECOMPOSITION_H_

#include <vector>

#include "common/result.h"
#include "common/runguard.h"
#include "linalg/matrix.h"

namespace multiclust {

/// Eigendecomposition of a symmetric matrix: A = V * diag(values) * V^T.
/// `values` are sorted descending; column j of `vectors` is the eigenvector
/// for `values[j]`.
struct SymmetricEigen {
  std::vector<double> values;
  Matrix vectors;
  /// Outer iterations (Rayleigh-Ritz steps) TopKEigen ran; 0 for a full
  /// EigenSymmetric.
  size_t iterations = 0;
};

/// Computes the full eigendecomposition of symmetric `a` with the cyclic
/// Jacobi method. Returns InvalidArgument for non-square input and
/// ComputationError if rotation sweeps fail to converge. O(n^3) per sweep:
/// meant for the small d x d problems (covariances, PCA, ORCLUS) and the
/// projected problems of TopKEigen.
Result<SymmetricEigen> EigenSymmetric(const Matrix& a,
                                      double tol = 1e-12,
                                      int max_sweeps = 64);

/// Default residual tolerance of TopKEigen, relative to ||a||_inf.
inline constexpr double kDefaultEigenTol = 1e-10;

/// The k algebraically largest eigenpairs of symmetric n x n `a`: `values`
/// (k, descending) and n x k `vectors`, in the SymmetricEigen layout.
///
/// Chebyshev-filtered block subspace iteration with Rayleigh-Ritz (Zhou &
/// Saad 2007). A block of b = k + max(k, 8) orthonormal columns, started
/// from a fixed-seed random block, is projected onto: the b x b problem
/// q a q^T goes to EigenSymmetric. Converged when every Ritz pair j < k
/// has ||a x_j - theta_j x_j|| <= tol * sigma, with the Gershgorin bound
/// sigma = ||a||_inf. Otherwise the Ritz block is passed through the
/// degree-8 Chebyshev polynomial of the unwanted interval [-sigma,
/// theta_b] (theta_b the smallest Ritz value), which stays within [-1, 1]
/// there and grows fast above it, and is orthonormalised again. When that
/// interval is narrower than 1e-3 * sigma, the plain shifted step
/// (a + sigma I) q replaces the filter. The filter's first term reuses the
/// Rayleigh-Ritz product, so one outer iteration costs 8 products with
/// `a` (O(n^2 b) each, on the thread-invariant GEMM kernel) and the
/// filter's recurrence is elementwise. When 2b >= n the full
/// EigenSymmetric runs instead and is truncated.
///
/// Deterministic and bit-identical for any thread count. Eigenvectors of
/// a repeated eigenvalue are some orthonormal basis of its eigenspace,
/// and signs are arbitrary. `iterations` counts outer iterations
/// (Rayleigh-Ritz steps).
///
/// `budget` is polled after every product inside the filter, the cancel
/// token also before each Rayleigh-Ritz product and the deadline after
/// each Rayleigh-Ritz step, so either is seen within one or two products:
/// a cancelled token returns kCancelled; an expired deadline stops early
/// and returns the Ritz pairs of the last Rayleigh-Ritz step (the partial
/// result RunBudget promises). The iteration cap is
/// `max_iters` outer iterations, not budget.max_iterations. Errors:
/// InvalidArgument for non-square `a` or k outside [1, n];
/// ComputationError when `max_iters` iterations do not converge.
Result<SymmetricEigen> TopKEigen(const Matrix& a, size_t k,
                                 double tol = kDefaultEigenTol,
                                 const RunBudget& budget = {},
                                 size_t max_iters = 5000);

/// Thin singular value decomposition A = U * diag(sigma) * V^T for an
/// m x n matrix with any m, n. U is m x r, V is n x r, r = min(m, n);
/// singular values are sorted descending and non-negative.
struct Svd {
  Matrix u;
  std::vector<double> sigma;
  Matrix v;
};

/// One-sided Jacobi SVD; robust for the small/medium dense matrices used
/// throughout the library.
Result<Svd> ComputeSvd(const Matrix& a, double tol = 1e-12,
                       int max_sweeps = 64);

/// Cholesky factor L (lower triangular) with A = L * L^T. Fails with
/// ComputationError when `a` is not (numerically) positive definite.
Result<Matrix> Cholesky(const Matrix& a);

/// Solves A x = b for symmetric positive definite A via Cholesky.
Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b);

/// General inverse via Gauss-Jordan with partial pivoting. Fails on
/// (numerically) singular input.
Result<Matrix> Inverse(const Matrix& a);

/// Symmetric (principal) matrix square root A^{1/2} via eigendecomposition.
/// Negative eigenvalues are clamped to `eps` before taking roots.
Result<Matrix> SqrtSymmetric(const Matrix& a, double eps = 1e-12);

/// Symmetric inverse square root A^{-1/2}; eigenvalues below `eps` are
/// clamped to `eps` (pseudo-inverse style regularisation). Used by the
/// Qi & Davidson alternative-clustering transformation.
Result<Matrix> InverseSqrtSymmetric(const Matrix& a, double eps = 1e-8);

/// Householder QR: A (m x n, m >= n) = Q (m x n, orthonormal cols) * R
/// (n x n upper triangular).
struct Qr {
  Matrix q;
  Matrix r;
};

/// Computes the thin QR decomposition; requires rows >= cols.
Result<Qr> ComputeQr(const Matrix& a);

}  // namespace multiclust

#endif  // MULTICLUST_LINALG_DECOMPOSITION_H_
