// matrix.hpp — minimal row-major dense matrix shared by the photonic
// tensor core and the transformer stack.  Header-only, value-semantic;
// this repository's models are small enough that clarity beats BLAS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace pdac {

/// std::allocator that default-initializes where it would value-initialize:
/// a vector growing through resize() leaves its new doubles unwritten
/// instead of zeroing them.  Construction from a value (a fill, a copy)
/// is unchanged.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::allocator_traits<std::allocator<T>>::construct(*this, p, std::forward<Args>(args)...);
  }
};

class Matrix {
 public:
  /// Element storage: contiguous row-major doubles.
  using Storage = std::vector<double, DefaultInitAllocator<double>>;

  Matrix() = default;
  /// Every element starts at `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, const std::vector<double>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    PDAC_REQUIRE(data_.size() == rows_ * cols_, "Matrix: data size mismatch");
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    PDAC_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) {
    PDAC_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    PDAC_REQUIRE(r < rows_, "Matrix: row out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<double> row(std::size_t r) {
    PDAC_REQUIRE(r < rows_, "Matrix: row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::vector<double> col(std::size_t c) const {
    PDAC_REQUIRE(c < cols_, "Matrix: column out of range");
    std::vector<double> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
    return out;
  }

  [[nodiscard]] const Storage& data() const { return data_; }
  Storage& data() { return data_; }

  /// Reshape in place, reusing the existing allocation when it is large
  /// enough (the GEMM engine's per-call scratch buffers rely on this to
  /// stay allocation-free across products).  With the column count
  /// unchanged every kept row keeps its values.  Elements the resize adds
  /// are left unwritten, not zeroed, and after a column-count change every
  /// value is unspecified: callers overwrite what they later read.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  [[nodiscard]] Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    }
    return t;
  }

  /// Seeded Gaussian-filled matrix (synthetic weights/activations).
  static Matrix random_gaussian(std::size_t rows, std::size_t cols, Rng& rng,
                                double mean = 0.0, double stddev = 1.0) {
    Matrix m(rows, cols);
    for (auto& x : m.data_) x = rng.gaussian(mean, stddev);
    return m;
  }

  static Matrix random_uniform(std::size_t rows, std::size_t cols, Rng& rng, double lo,
                               double hi) {
    Matrix m(rows, cols);
    for (auto& x : m.data_) x = rng.uniform(lo, hi);
    return m;
  }

 private:
  std::size_t rows_{0};
  std::size_t cols_{0};
  Storage data_;
};

/// Row-major quantizer codes: a code-stationary operand's digital payload
/// (ptc::PreparedOperand::codes).  int16 holds every width
/// converters::Quantizer accepts (2–16 bits).  Same shape rules as Matrix:
/// resize() reuses the allocation, keeps rows when the column count is
/// unchanged and leaves new elements unwritten.
class CodeMatrix {
 public:
  using Storage = std::vector<std::int16_t, DefaultInitAllocator<std::int16_t>>;

  CodeMatrix() = default;
  /// Every element starts at code 0.
  CodeMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] std::int16_t operator()(std::size_t r, std::size_t c) const {
    PDAC_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  std::int16_t& operator()(std::size_t r, std::size_t c) {
    PDAC_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const std::int16_t> row(std::size_t r) const {
    PDAC_REQUIRE(r < rows_, "CodeMatrix: row out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<std::int16_t> row(std::size_t r) {
    PDAC_REQUIRE(r < rows_, "CodeMatrix: row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

 private:
  std::size_t rows_{0};
  std::size_t cols_{0};
  Storage data_;
};

/// Double-precision reference product (ground truth for the photonic GEMM).
inline Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  PDAC_REQUIRE(a.cols() == b.rows(), "matmul: inner dimensions must agree");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

}  // namespace pdac
