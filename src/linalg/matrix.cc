#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "common/trace.h"
#include "linalg/kernels.h"

namespace multiclust {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < m.cols_ && j < rows[i].size(); ++j) {
      m.at(i, j) = rows[i][j];
    }
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const std::vector<double>& diag) {
  Matrix m(diag.size(), diag.size());
  for (size_t i = 0; i < diag.size(); ++i) m.at(i, i) = diag[i];
  return m;
}

std::vector<double> Matrix::Row(size_t i) const {
  return std::vector<double>(row_data(i), row_data(i) + cols_);
}

std::vector<double> Matrix::Col(size_t j) const {
  std::vector<double> out(rows_);
  for (size_t i = 0; i < rows_; ++i) out[i] = at(i, j);
  return out;
}

void Matrix::SetRow(size_t i, const std::vector<double>& values) {
  for (size_t j = 0; j < cols_ && j < values.size(); ++j) at(i, j) = values[j];
}

void Matrix::CopyRowFrom(const Matrix& src, size_t src_row, size_t dst_row) {
  const size_t count = cols_ < src.cols_ ? cols_ : src.cols_;
  if (count == 0) return;
  std::memcpy(row_data(dst_row), src.row_data(src_row),
              count * sizeof(double));
}

void Matrix::SetCol(size_t j, const std::vector<double>& values) {
  for (size_t i = 0; i < rows_ && i < values.size(); ++i) at(i, j) = values[i];
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) t.at(j, i) = at(i, j);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_) return Matrix();
  Matrix out(rows_, other.cols_);
  MultiplyInto(other, &out);
  return out;
}

void Matrix::MultiplyInto(const Matrix& other, Matrix* out) const {
  std::fill(out->data_.begin(), out->data_.end(), 0.0);
  // Each output row is produced by exactly one chunk, and the kernel keeps
  // the inner-dimension accumulation order ascending per element, so the
  // product is bit-identical for any thread count and any cache blocking.
  // Grain targets ~32k flops per chunk.
  const size_t row_work = cols_ * other.cols_;
  const size_t grain = row_work == 0 ? rows_ : 32768 / row_work + 1;
  ParallelFor(0, rows_, grain, [&](size_t lo, size_t hi) {
    kernels::GemmRows(data_.data(), cols_, other.data_.data(), other.cols_,
                      out->data_.data(), lo, hi);
  });
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] + other.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = data_[i] - other.data_[i];
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] * scalar;
  return out;
}

Result<Matrix> Matrix::Multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("matrix product dimension mismatch");
  }
  return a * b;
}

std::vector<double> Matrix::Apply(const std::vector<double>& v) const {
  std::vector<double> out(rows_, 0.0);
  const size_t n = cols_ < v.size() ? cols_ : v.size();
  for (size_t i = 0; i < rows_; ++i) {
    out[i] = kernels::Dot(row_data(i), v.data(), n);
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  return std::sqrt(kernels::SquaredNorm(data_.data(), data_.size()));
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    const double d = std::fabs(data_[i] - other.data_[i]);
    // Propagate NaN instead of silently dropping it (`d > m` is false for
    // NaN): convergence checks built on this difference must see poison.
    if (std::isnan(d)) return d;
    if (d > m) m = d;
  }
  return m;
}

Matrix Matrix::SelectColumns(const std::vector<size_t>& cols) const {
  Matrix out(rows_, cols.size());
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols.size(); ++j) out.at(i, j) = at(i, cols[j]);
  }
  return out;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& rows) const {
  Matrix out(rows.size(), cols_);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < cols_; ++j) out.at(i, j) = at(rows[i], j);
  }
  return out;
}

double VectorNorm(const std::vector<double>& v) {
  return std::sqrt(kernels::SquaredNorm(v.data(), v.size()));
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  return kernels::Dot(a.data(), b.data(), n);
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  return kernels::SquaredDistance(a.data(), b.data(), n);
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return std::sqrt(SquaredDistance(a, b));
}

std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> Subtract(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<double> Scale(const std::vector<double>& v, double s) {
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = v[i] * s;
  return out;
}

std::vector<double> Normalized(const std::vector<double>& v) {
  const double n = VectorNorm(v);
  if (n < 1e-300) return v;
  return Scale(v, 1.0 / n);
}

namespace {

// Elementwise vector sum used as the combine step of chunked reductions.
std::vector<double> AddInto(std::vector<double> acc, std::vector<double> b) {
  kernels::Add(acc.data(), b.data(), acc.size());
  return acc;
}

}  // namespace

std::vector<double> RowMean(const Matrix& m) {
  std::vector<double> mean(m.cols(), 0.0);
  if (m.rows() == 0) return mean;
  mean = ParallelReduce(
      0, m.rows(), 1024, std::move(mean),
      [&](size_t lo, size_t hi) {
        std::vector<double> sum(m.cols(), 0.0);
        for (size_t i = lo; i < hi; ++i) {
          kernels::Add(sum.data(), m.row_data(i), m.cols());
        }
        return sum;
      },
      AddInto);
  for (double& x : mean) x /= static_cast<double>(m.rows());
  return mean;
}

Matrix Covariance(const Matrix& m) {
  MULTICLUST_TRACE_SPAN("linalg.matrix.covariance");
  const size_t n = m.rows();
  const size_t d = m.cols();
  Matrix cov(d, d);
  if (n == 0) return cov;
  const std::vector<double> mean = RowMean(m);
  // Upper triangle, packed row-major; partial sums per fixed 256-row chunk
  // combined in chunk order — deterministic for any thread count.
  const std::vector<double> upper = ParallelReduce(
      0, n, 256, std::vector<double>(d * (d + 1) / 2, 0.0),
      [&](size_t lo, size_t hi) {
        std::vector<double> sum(d * (d + 1) / 2, 0.0);
        for (size_t i = lo; i < hi; ++i) {
          const double* r = m.row_data(i);
          size_t idx = 0;
          for (size_t a = 0; a < d; ++a) {
            const double da = r[a] - mean[a];
            // sum[idx + t] += da * ((r+a)[t] - (mean+a)[t]) for the packed
            // upper-triangle tail of row a — elementwise, so bit-identical
            // to the seed's scalar loop.
            kernels::AxpyDiff(da, r + a, mean.data() + a, sum.data() + idx,
                              d - a);
            idx += d - a;
          }
        }
        return sum;
      },
      AddInto);
  {
    size_t idx = 0;
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = a; b < d; ++b) cov.at(a, b) = upper[idx++];
    }
  }
  const double denom = n >= 2 ? static_cast<double>(n - 1)
                              : static_cast<double>(n);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a; b < d; ++b) {
      cov.at(a, b) /= denom;
      cov.at(b, a) = cov.at(a, b);
    }
  }
  return cov;
}

Matrix OuterProduct(const std::vector<double>& a,
                    const std::vector<double>& b) {
  Matrix out(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) out.at(i, j) = a[i] * b[j];
  }
  return out;
}

}  // namespace multiclust
