#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "common/telemetry.h"
#include "linalg/kernels.h"

namespace multiclust {

Result<SymmetricEigen> EigenSymmetric(const Matrix& a, double tol,
                                      int max_sweeps) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("EigenSymmetric: matrix must be square");
  }
  const size_t n = a.rows();
  Matrix m = a;
  Matrix v = Matrix::Identity(n);

  auto off_diag_norm = [&]() {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) s += m.at(i, j) * m.at(i, j);
    }
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(1.0, m.FrobeniusNorm());
  bool converged = n <= 1;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    if (off_diag_norm() <= tol * scale) {
      converged = true;
      break;
    }
    uint64_t rotations = 0;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = m.at(p, q);
        if (std::fabs(apq) <= 1e-300) continue;
        ++rotations;
        const double app = m.at(p, p);
        const double aqq = m.at(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply rotation J(p, q, theta) on both sides.
        for (size_t k = 0; k < n; ++k) {
          const double mkp = m.at(k, p);
          const double mkq = m.at(k, q);
          m.at(k, p) = c * mkp - s * mkq;
          m.at(k, q) = s * mkp + c * mkq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double mpk = m.at(p, k);
          const double mqk = m.at(q, k);
          m.at(p, k) = c * mpk - s * mqk;
          m.at(q, k) = s * mpk + c * mqk;
        }
        for (size_t k = 0; k < n; ++k) {
          const double vkp = v.at(k, p);
          const double vkq = v.at(k, q);
          v.at(k, p) = c * vkp - s * vkq;
          v.at(k, q) = s * vkp + c * vkq;
        }
      }
    }
    // Telemetry tally once per sweep: each rotation updates two columns
    // and two rows of m and two columns of v (6 flops per element pair),
    // and the convergence test reads the upper triangle.
    telemetry::CountFlops(rotations * 18 * n + n * n,
                          (rotations * 12 * n + n * n) * sizeof(double));
  }
  if (!converged && off_diag_norm() > tol * scale * 100) {
    return Status::ComputationError("EigenSymmetric: Jacobi did not converge");
  }

  SymmetricEigen out;
  out.values.resize(n);
  for (size_t i = 0; i < n; ++i) out.values[i] = m.at(i, i);
  // Sort descending by eigenvalue, permuting eigenvector columns.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return out.values[x] > out.values[y];
  });
  std::vector<double> sorted_values(n);
  Matrix sorted_vectors(n, n);
  for (size_t j = 0; j < n; ++j) {
    sorted_values[j] = out.values[order[j]];
    for (size_t i = 0; i < n; ++i) {
      sorted_vectors.at(i, j) = v.at(i, order[j]);
    }
  }
  out.values = std::move(sorted_values);
  out.vectors = std::move(sorted_vectors);
  return out;
}

namespace {

// Orthonormalizes the rows of `q` in place by classical Gram-Schmidt
// applied twice per row, which keeps the basis orthonormal to working
// precision. A row that collapses (the block lost rank) is refilled from
// `rng` and orthogonalised again. Non-finite input stays non-finite, for
// the caller's residual check to catch.
void OrthonormalizeRows(Matrix* q, Rng* rng) {
  const size_t b = q->rows();
  const size_t n = q->cols();
  uint64_t flops = 0;
  for (size_t j = 0; j < b; ++j) {
    double* row = q->row_data(j);
    for (int attempt = 0; attempt < 4; ++attempt) {
      const double before = std::sqrt(kernels::SquaredNorm(row, n));
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < j; ++i) {
          const double* prev = q->row_data(i);
          kernels::Axpy(-kernels::Dot(prev, row, n), prev, row, n);
        }
      }
      const double norm = std::sqrt(kernels::SquaredNorm(row, n));
      flops += (8 * j + 5) * n;
      if (norm > 1e-10 * before && norm > 1e-300) {
        const double inv = 1.0 / norm;
        for (size_t t = 0; t < n; ++t) row[t] *= inv;
        break;
      }
      for (size_t t = 0; t < n; ++t) row[t] = rng->NextGaussian();
    }
  }
  telemetry::CountFlops(flops, 3 * b * n * sizeof(double));
}

// Degree of TopKEigen's Chebyshev filter: one outer iteration costs this
// many products with `a` (the filter's first term reuses the Rayleigh-Ritz
// product).
constexpr int kFilterDegree = 8;

// A damped interval narrower than this fraction of sigma takes the plain
// shifted step instead: the filter divides by the half-width, so rounding
// in each product grows by about sigma / half-width.
constexpr double kMinFilterWidth = 1e-3;

// Row j of `out` (b x n) is a * q_j, for the b x n block `q`: the bits of
// (a * q.Transpose()).Transpose(), through n x b scratch that lives as
// long as the solver, so a product allocates nothing. The scratch holds
// zero columns up to a multiple of 4, GemmRows's vector width: every
// output element is still the same ascending-k chain of separately rounded
// multiply-adds, whichever block computes it, and the padding keeps the b
// columns out of the scalar tail.
class BlockProduct {
 public:
  BlockProduct(size_t n, size_t b)
      : b_(b), qt_(n, (b + 3) / 4 * 4), prod_(n, qt_.cols()) {}

  void operator()(const Matrix& a, const Matrix& q, Matrix* out) {
    const size_t n = qt_.rows();
    for (size_t t = 0; t < n; ++t) {
      for (size_t j = 0; j < b_; ++j) qt_.at(t, j) = q.at(j, t);
    }
    a.MultiplyInto(qt_, &prod_);
    for (size_t j = 0; j < b_; ++j) {
      for (size_t t = 0; t < n; ++t) out->at(j, t) = prod_.at(t, j);
    }
  }

 private:
  size_t b_;
  Matrix qt_, prod_;
};

}  // namespace

Result<SymmetricEigen> TopKEigen(const Matrix& a, size_t k, double tol,
                                 const RunBudget& budget, size_t max_iters) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("TopKEigen: matrix must be square");
  }
  const size_t n = a.rows();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("TopKEigen: k must be in [1, n]");
  }
  const size_t b = k + std::max<size_t>(k, 8);
  if (2 * b >= n) {
    // The block would be most of the space: diagonalise directly.
    MC_ASSIGN_OR_RETURN(SymmetricEigen full, EigenSymmetric(a));
    full.values.resize(k);
    std::vector<size_t> first(k);
    std::iota(first.begin(), first.end(), 0);
    full.vectors = full.vectors.SelectColumns(first);
    return full;
  }

  BudgetTracker guard(budget, "eigen");
  // Gershgorin: every eigenvalue lies in [-sigma, sigma].
  double sigma = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < n; ++j) row_sum += std::fabs(a.at(i, j));
    sigma = std::max(sigma, row_sum);
  }

  // The block lives as b x n rows (one basis vector per contiguous row);
  // x = q^T is the n x b operand of the product.
  Rng rng(0x70B4E16E5EEDULL);
  Matrix q(b, n);
  for (size_t j = 0; j < b; ++j) {
    for (size_t t = 0; t < n; ++t) q.at(j, t) = rng.NextGaussian();
  }
  OrthonormalizeRows(&q, &rng);

  BlockProduct block_product(n, b);
  Matrix aq(b, n), next(b, n);
  for (size_t iter = 0; iter < max_iters; ++iter) {
    if (guard.Cancelled()) return guard.CancelledStatus();
    // Rayleigh-Ritz on span(q): h = q a q^T (symmetric by construction),
    // then both q and a q rotate into the eigenbasis of h.
    block_product(a, q, &aq);  // row j = a q_j
    Matrix h(b, b);
    for (size_t i = 0; i < b; ++i) {
      for (size_t j = i; j < b; ++j) {
        h.at(i, j) = kernels::Dot(q.row_data(i), aq.row_data(j), n);
        h.at(j, i) = h.at(i, j);
      }
    }
    telemetry::CountFlops(b * (b + 1) * n, 2 * b * n * sizeof(double));
    MC_ASSIGN_OR_RETURN(SymmetricEigen ritz, EigenSymmetric(h));
    const Matrix rot = ritz.vectors.Transpose();
    q = rot * q;
    Matrix ar = rot * aq;

    // Residuals of the wanted Ritz pairs.
    double worst = 0.0;
    std::vector<double> r(n);
    for (size_t j = 0; j < k; ++j) {
      const double* x = q.row_data(j);
      const double* ax = ar.row_data(j);
      for (size_t t = 0; t < n; ++t) r[t] = ax[t] - ritz.values[j] * x[t];
      worst = std::max(worst, std::sqrt(kernels::SquaredNorm(r.data(), n)));
    }
    telemetry::CountFlops(4 * k * n, 3 * k * n * sizeof(double));
    if (!std::isfinite(worst)) {
      return Status::ComputationError("TopKEigen: non-finite residual");
    }
    // The wanted Ritz pairs of this step, the answer on convergence and
    // the partial result once the deadline expires.
    const auto ritz_pairs = [&] {
      SymmetricEigen out;
      out.values.assign(ritz.values.begin(), ritz.values.begin() + k);
      out.vectors = Matrix(n, k);
      for (size_t t = 0; t < n; ++t) {
        for (size_t j = 0; j < k; ++j) out.vectors.at(t, j) = q.at(j, t);
      }
      out.iterations = iter + 1;
      return out;
    };
    if (worst <= tol * sigma || guard.DeadlineExpired()) return ritz_pairs();
    if (iter + 1 == max_iters) break;

    // Next block: p(a) q, orthonormalised. p is the Chebyshev polynomial
    // of degree kFilterDegree on the unwanted interval [-sigma, theta_b]
    // (theta_b the smallest Ritz value), centre c and half-width e: bounded
    // by 1 there and growing fast above it. Y_1 = (a - c) Y_0 / e and
    // Y_{i+1} = 2 (a - c) Y_i / e - Y_{i-1}, with Y_0 = q and a Y_0 = ar
    // already at hand.
    const double width = ritz.values[b - 1] + sigma;
    const double* y0 = q.row_data(0);
    double* y1 = ar.row_data(0);
    if (width <= kMinFilterWidth * sigma) {
      // Degenerate interval: the shifted step (a + sigma I) q.
      for (size_t i = 0; i < b * n; ++i) y1[i] += sigma * y0[i];
      telemetry::CountFlops(2 * b * n, 3 * b * n * sizeof(double));
    } else {
      const double c = (ritz.values[b - 1] - sigma) / 2.0;
      const double inv_e = 2.0 / width;
      for (size_t i = 0; i < b * n; ++i) y1[i] = (y1[i] - c * y0[i]) * inv_e;
      telemetry::CountFlops(3 * b * n, 3 * b * n * sizeof(double));
      Matrix prev = q;  // q stays the Ritz block a deadline returns
      for (int degree = 2; degree <= kFilterDegree; ++degree) {
        block_product(a, ar, &next);
        const double* cur = ar.row_data(0);
        const double* before = prev.row_data(0);
        double* out = next.row_data(0);
        for (size_t i = 0; i < b * n; ++i) {
          out[i] = 2.0 * inv_e * (out[i] - c * cur[i]) - before[i];
        }
        telemetry::CountFlops(4 * b * n, 4 * b * n * sizeof(double));
        // prev = the old ar, ar = the new block; the old prev's storage
        // takes the next product.
        std::swap(prev, ar);
        std::swap(ar, next);
        // One poll per product; the filtered block is not an answer yet.
        if (guard.Cancelled()) return guard.CancelledStatus();
        if (guard.DeadlineExpired()) return ritz_pairs();
      }
    }
    q = std::move(ar);
    OrthonormalizeRows(&q, &rng);
  }
  return Status::ComputationError("TopKEigen: subspace iteration did not "
                                  "converge");
}

Result<Svd> ComputeSvd(const Matrix& a, double tol, int max_sweeps) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("ComputeSvd: empty matrix");
  }
  // Work with a tall matrix (m >= n); if wide, decompose the transpose and
  // swap U and V at the end.
  const bool transposed = a.rows() < a.cols();
  Matrix w = transposed ? a.Transpose() : a;
  const size_t m = w.rows();
  const size_t n = w.cols();

  Matrix v = Matrix::Identity(n);
  const double scale = std::max(1.0, w.FrobeniusNorm());

  // One-sided Jacobi: orthogonalise pairs of columns of w.
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double max_cos = 0.0;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (size_t i = 0; i < m; ++i) {
          const double wp = w.at(i, p);
          const double wq = w.at(i, q);
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
        const double denom = std::sqrt(alpha * beta);
        const double cosine = denom > 1e-300 ? std::fabs(gamma) / denom : 0.0;
        if (cosine > max_cos) max_cos = cosine;
        if (cosine <= tol) continue;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (size_t i = 0; i < m; ++i) {
          const double wp = w.at(i, p);
          const double wq = w.at(i, q);
          w.at(i, p) = c * wp - s * wq;
          w.at(i, q) = s * wp + c * wq;
        }
        for (size_t i = 0; i < n; ++i) {
          const double vp = v.at(i, p);
          const double vq = v.at(i, q);
          v.at(i, p) = c * vp - s * vq;
          v.at(i, q) = s * vp + c * vq;
        }
      }
    }
    if (max_cos <= tol) break;
    if (sweep == max_sweeps - 1 && max_cos > 1e-6 && scale > 0) {
      return Status::ComputationError("ComputeSvd: Jacobi did not converge");
    }
  }

  // Column norms are the singular values; normalised columns form U.
  std::vector<double> sigma(n);
  Matrix u(m, n);
  for (size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (size_t i = 0; i < m; ++i) norm += w.at(i, j) * w.at(i, j);
    norm = std::sqrt(norm);
    sigma[j] = norm;
    if (norm > 1e-300) {
      for (size_t i = 0; i < m; ++i) u.at(i, j) = w.at(i, j) / norm;
    }
  }

  // Sort descending.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return sigma[x] > sigma[y]; });
  Svd out;
  out.sigma.resize(n);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    out.sigma[j] = sigma[order[j]];
    for (size_t i = 0; i < m; ++i) out.u.at(i, j) = u.at(i, order[j]);
    for (size_t i = 0; i < n; ++i) out.v.at(i, j) = v.at(i, order[j]);
  }
  if (transposed) std::swap(out.u, out.v);
  return out;
}

Result<Matrix> Cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky: matrix must be square");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double s = a.at(i, j);
      for (size_t k = 0; k < j; ++k) s -= l.at(i, k) * l.at(j, k);
      if (i == j) {
        if (s <= 0.0) {
          return Status::ComputationError(
              "Cholesky: matrix not positive definite");
        }
        l.at(i, j) = std::sqrt(s);
      } else {
        l.at(i, j) = s / l.at(j, j);
      }
    }
  }
  return l;
}

Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("SolveSpd: dimension mismatch");
  }
  MC_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  const size_t n = b.size();
  // Forward solve L y = b.
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l.at(i, k) * y[k];
    y[i] = s / l.at(i, i);
  }
  // Backward solve L^T x = y.
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double s = y[i];
    for (size_t k = i + 1; k < n; ++k) s -= l.at(k, i) * x[k];
    x[i] = s / l.at(i, i);
  }
  return x;
}

Result<Matrix> Inverse(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Inverse: matrix must be square");
  }
  const size_t n = a.rows();
  Matrix m = a;
  Matrix inv = Matrix::Identity(n);
  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    size_t pivot = col;
    double best = std::fabs(m.at(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(m.at(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      return Status::ComputationError("Inverse: singular matrix");
    }
    if (pivot != col) {
      for (size_t j = 0; j < n; ++j) {
        std::swap(m.at(pivot, j), m.at(col, j));
        std::swap(inv.at(pivot, j), inv.at(col, j));
      }
    }
    const double d = m.at(col, col);
    for (size_t j = 0; j < n; ++j) {
      m.at(col, j) /= d;
      inv.at(col, j) /= d;
    }
    for (size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = m.at(r, col);
      if (f == 0.0) continue;
      for (size_t j = 0; j < n; ++j) {
        m.at(r, j) -= f * m.at(col, j);
        inv.at(r, j) -= f * inv.at(col, j);
      }
    }
  }
  return inv;
}

namespace {

Result<Matrix> PowSymmetric(const Matrix& a, double power, double eps) {
  MC_ASSIGN_OR_RETURN(SymmetricEigen eig, EigenSymmetric(a));
  const size_t n = a.rows();
  std::vector<double> powered(n);
  for (size_t i = 0; i < n; ++i) {
    const double lambda = std::max(eig.values[i], eps);
    powered[i] = std::pow(lambda, power);
  }
  // V * diag(powered) * V^T
  Matrix scaled = eig.vectors;
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) scaled.at(i, j) *= powered[j];
  }
  return scaled * eig.vectors.Transpose();
}

}  // namespace

Result<Matrix> SqrtSymmetric(const Matrix& a, double eps) {
  return PowSymmetric(a, 0.5, eps);
}

Result<Matrix> InverseSqrtSymmetric(const Matrix& a, double eps) {
  return PowSymmetric(a, -0.5, eps);
}

Result<Qr> ComputeQr(const Matrix& a) {
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument("ComputeQr: requires rows >= cols");
  }
  const size_t m = a.rows();
  const size_t n = a.cols();
  Matrix r = a;
  // Accumulate Q implicitly by applying the Householder reflectors to an
  // m x n slice of the identity at the end.
  std::vector<std::vector<double>> reflectors;
  reflectors.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    // Build Householder vector for column k, rows k..m-1.
    std::vector<double> v(m, 0.0);
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) {
      v[i] = r.at(i, k);
      norm += v[i] * v[i];
    }
    norm = std::sqrt(norm);
    if (norm < 1e-300) {
      reflectors.push_back(std::vector<double>(m, 0.0));
      continue;
    }
    const double alpha = (v[k] >= 0 ? -norm : norm);
    v[k] -= alpha;
    double vnorm = 0.0;
    for (size_t i = k; i < m; ++i) vnorm += v[i] * v[i];
    vnorm = std::sqrt(vnorm);
    if (vnorm < 1e-300) {
      reflectors.push_back(std::vector<double>(m, 0.0));
      continue;
    }
    for (size_t i = k; i < m; ++i) v[i] /= vnorm;
    // Apply H = I - 2 v v^T to R (columns k..n-1).
    for (size_t j = k; j < n; ++j) {
      double dot = 0.0;
      for (size_t i = k; i < m; ++i) dot += v[i] * r.at(i, j);
      for (size_t i = k; i < m; ++i) r.at(i, j) -= 2.0 * dot * v[i];
    }
    reflectors.push_back(std::move(v));
  }
  // Build thin Q by applying reflectors in reverse to identity columns.
  Matrix q(m, n);
  for (size_t j = 0; j < n; ++j) q.at(j, j) = 1.0;
  for (size_t kk = reflectors.size(); kk > 0; --kk) {
    const std::vector<double>& v = reflectors[kk - 1];
    double vn = 0.0;
    for (double x : v) vn += x * x;
    if (vn < 1e-300) continue;
    for (size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (size_t i = 0; i < m; ++i) dot += v[i] * q.at(i, j);
      for (size_t i = 0; i < m; ++i) q.at(i, j) -= 2.0 * dot * v[i];
    }
  }
  Qr out;
  out.q = std::move(q);
  out.r = Matrix(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) out.r.at(i, j) = r.at(i, j);
  }
  return out;
}

}  // namespace multiclust
