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
  /// Block iterations TopKEigen ran; 0 for a full EigenSymmetric.
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
/// Shifted block subspace iteration with Rayleigh-Ritz. With the
/// Gershgorin shift sigma = ||a||_inf, a + sigma*I is positive
/// semidefinite, so its dominant eigenvectors are a's algebraically
/// largest. A block of b = k + max(k, 8) orthonormal columns, started
/// from a fixed-seed random block, is multiplied by `a` once per
/// iteration (an O(n^2 b) product on the thread-invariant GEMM kernel);
/// the b x b projected problem goes to EigenSymmetric. Converged when
/// every Ritz pair j < k has ||a x_j - theta_j x_j|| <= tol * sigma.
/// When 2b >= n the full EigenSymmetric runs instead and is truncated.
///
/// Deterministic and bit-identical for any thread count. Eigenvectors of
/// a repeated eigenvalue are some orthonormal basis of its eigenspace,
/// and signs are arbitrary.
///
/// `budget` is checked once per iteration: a cancelled token returns
/// kCancelled; an expired deadline stops early and returns the current
/// Ritz approximation (the partial result RunBudget promises). The
/// iteration cap is `max_iters`, not budget.max_iterations. Errors:
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
