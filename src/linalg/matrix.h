#ifndef MULTICLUST_LINALG_MATRIX_H_
#define MULTICLUST_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/profile.h"
#include "common/result.h"
#include "common/status.h"

namespace multiclust {

/// Dense row-major matrix of doubles.
///
/// This is the library's in-house replacement for Eigen: small, predictable,
/// and sufficient for the dense decompositions the clustering algorithms
/// need (covariances, projections, spectral embeddings). Dimensions are
/// fixed at construction; element access is unchecked in release builds.
class Matrix {
 public:
  /// Constructs an empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Constructs a rows x cols matrix filled with `fill`. This is the one
  /// place matrix storage is allocated, so it feeds the telemetry
  /// allocation tally (ResourceProfile::alloc_count/alloc_bytes).
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    if (rows_ != 0 && cols_ != 0) {
      telemetry::CountAlloc(rows_ * cols_ * sizeof(double));
    }
  }

  /// Builds a matrix from nested initializer-style row data. All rows must
  /// have equal length; an empty argument produces a 0x0 matrix.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  /// Diagonal matrix from `diag`.
  static Matrix Diagonal(const std::vector<double>& diag);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& at(size_t i, size_t j) { return data_[i * cols_ + j]; }
  double at(size_t i, size_t j) const { return data_[i * cols_ + j]; }
  double& operator()(size_t i, size_t j) { return data_[i * cols_ + j]; }
  double operator()(size_t i, size_t j) const { return data_[i * cols_ + j]; }

  /// Raw pointer to row i (contiguous `cols()` doubles).
  double* row_data(size_t i) { return data_.data() + i * cols_; }
  const double* row_data(size_t i) const { return data_.data() + i * cols_; }

  /// Copies row i into a vector.
  std::vector<double> Row(size_t i) const;
  /// Copies column j into a vector.
  std::vector<double> Col(size_t j) const;
  /// Overwrites row i with `values` (must have size cols()).
  void SetRow(size_t i, const std::vector<double>& values);
  /// Copies row `src_row` of `src` into row `dst_row` of this matrix
  /// directly (no intermediate vector); copies min(cols(), src.cols())
  /// values.
  void CopyRowFrom(const Matrix& src, size_t src_row, size_t dst_row);
  /// Overwrites column j with `values` (must have size rows()).
  void SetCol(size_t j, const std::vector<double>& values);

  Matrix Transpose() const;

  /// Matrix product; aborts on dimension mismatch in debug, returns empty
  /// matrix in release. Prefer `Multiply` for checked use.
  Matrix operator*(const Matrix& other) const;
  /// The product into `out`, which must be rows() x other.cols(): the
  /// bits of operator*, in storage the caller reuses across products.
  void MultiplyInto(const Matrix& other, Matrix* out) const;
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double scalar) const;

  /// Checked product: error when inner dimensions disagree.
  static Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

  /// Matrix-vector product (v.size() == cols()).
  std::vector<double> Apply(const std::vector<double>& v) const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max absolute element difference to `other` (must be same shape).
  double MaxAbsDiff(const Matrix& other) const;

  /// Returns the submatrix of selected columns, preserving order.
  Matrix SelectColumns(const std::vector<size_t>& cols) const;

  /// Returns the submatrix of selected rows, preserving order.
  Matrix SelectRows(const std::vector<size_t>& rows) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Euclidean (L2) norm of v.
double VectorNorm(const std::vector<double>& v);

/// Dot product; vectors must have equal length.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Squared Euclidean distance between equally sized vectors.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

/// Euclidean distance between equally sized vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// a + b elementwise.
std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b);

/// a - b elementwise.
std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b);

/// v * s elementwise.
std::vector<double> Scale(const std::vector<double>& v, double s);

/// Normalizes v to unit L2 norm (returns v unchanged when its norm is ~0).
std::vector<double> Normalized(const std::vector<double>& v);

/// Mean of the rows of `m` (length cols()).
std::vector<double> RowMean(const Matrix& m);

/// Sample covariance (divides by n-1; by n when n < 2) of the rows of `m`.
Matrix Covariance(const Matrix& m);

/// Outer product a * b^T.
Matrix OuterProduct(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace multiclust

#endif  // MULTICLUST_LINALG_MATRIX_H_
