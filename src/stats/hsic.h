#ifndef MULTICLUST_STATS_HSIC_H_
#define MULTICLUST_STATS_HSIC_H_

#include "common/result.h"
#include "common/runguard.h"
#include "linalg/matrix.h"

namespace multiclust {

/// The median heuristic's scale for the rows of `data`: element
/// n(n-1)/2 / 2 (0-based, ascending) of the n(n-1)/2 pairwise squared
/// distances, or 1.0 when that is <= 1e-12 or n < 2. A Gram built with
/// gamma <= 0 uses gamma = 1 / this, picked from the distances it holds in
/// its own upper triangle; this entry point fills n(n-1)/2 doubles of
/// scratch for the same select. `budget` (optional, not owned) is polled
/// once per row of each pass; once cancelled the value is meaningless.
double MedianSquaredDistance(const Matrix& data,
                             const BudgetTracker* budget = nullptr);

/// Gaussian (RBF) kernel matrix of the rows of `data`. `gamma <= 0` selects
/// the median-heuristic bandwidth (gamma = 1 / MedianSquaredDistance).
/// The fill writes each pair's squared distance once into the upper
/// triangle, selects the median from those entries in place when gamma
/// <= 0, then exponentiates them in place. `budget` (optional, not owned)
/// is polled once per row of the distance, select, exp and mirror passes;
/// once it is cancelled the call returns early and the matrix is
/// meaningless, so the caller must check the budget.
Matrix GaussianKernelMatrix(const Matrix& data, double gamma = 0.0,
                            const BudgetTracker* budget = nullptr);

/// Biased empirical Hilbert-Schmidt Independence Criterion between two
/// multivariate samples with paired rows (Gretton et al. 2005; used by
/// mSC, tutorial slide 90, to steer subspace search towards statistically
/// independent subspaces). Returns HSIC = tr(K H L H) / (n-1)^2, which is
/// ~0 for independent views and grows with dependence.
Result<double> Hsic(const Matrix& x, const Matrix& y, double gamma_x = 0.0,
                    double gamma_y = 0.0);

/// HSIC between every pair of columns of `data` (n >= 2, d >= 2): entry
/// (a, b), a != b, has the bits of Hsic(column a, column b, gamma, gamma);
/// the diagonal is zero. Each column's Gram is built once and held packed,
/// d * n(n+1)/2 doubles in all. `budget` (optional, not owned) is polled
/// per Gram row and trace row; once cancelled the call returns its
/// CancelledStatus().
Result<Matrix> HsicMatrix(const Matrix& data, double gamma = 0.0,
                          const BudgetTracker* budget = nullptr);

}  // namespace multiclust

#endif  // MULTICLUST_STATS_HSIC_H_
