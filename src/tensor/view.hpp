// Non-owning views over dense row-major float32 storage. A MatrixView is
// the currency of the arena-backed batch hot path: kernels and frameworks
// write activations/gradients into views handed out by gt::Arena instead of
// constructing fresh Matrix objects per batch. Views never own or free the
// bytes they point at — the owner (Matrix or Arena) must outlive them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>

#include "tensor/matrix.hpp"

namespace gt {

/// Mutable non-owning view of a rows x cols row-major float block.
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(float* data, std::size_t rows, std::size_t cols) noexcept
      : data_(data), rows_(rows), cols_(cols) {}
  /// Implicit: any mutable Matrix can be passed where a view is expected.
  MatrixView(Matrix& m) noexcept  // NOLINT(google-explicit-constructor)
      : data_(m.data().data()), rows_(m.rows()), cols_(m.cols()) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  std::size_t bytes() const noexcept { return size() * sizeof(float); }
  bool empty() const noexcept { return size() == 0; }

  float& at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_ && "MatrixView::at out of bounds");
    return data_[r * cols_ + c];
  }

  std::span<float> row(std::size_t r) const noexcept {
    assert(r < rows_ && "MatrixView::row out of bounds");
    return {data_ + r * cols_, cols_};
  }

  std::span<float> data() const noexcept { return {data_, size()}; }

  void fill(float v) const noexcept {
    std::fill(data_, data_ + size(), v);
  }

  /// Owning copy (host-side snapshot of an arena-backed result).
  Matrix to_matrix() const {
    Matrix m(rows_, cols_);
    std::copy(data_, data_ + size(), m.data().data());
    return m;
  }

 private:
  float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Read-only non-owning view; implicitly constructible from Matrix and
/// MatrixView so weights, arena activations, and owned tensors all flow
/// through the same kernel signatures.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const float* data, std::size_t rows,
                  std::size_t cols) noexcept
      : data_(data), rows_(rows), cols_(cols) {}
  ConstMatrixView(const Matrix& m) noexcept  // NOLINT
      : data_(m.data().data()), rows_(m.rows()), cols_(m.cols()) {}
  ConstMatrixView(const MatrixView& v) noexcept  // NOLINT
      : data_(v.data().data()), rows_(v.rows()), cols_(v.cols()) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  std::size_t bytes() const noexcept { return size() * sizeof(float); }
  bool empty() const noexcept { return size() == 0; }

  float at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_ && "ConstMatrixView::at out of bounds");
    return data_[r * cols_ + c];
  }

  std::span<const float> row(std::size_t r) const noexcept {
    assert(r < rows_ && "ConstMatrixView::row out of bounds");
    return {data_ + r * cols_, cols_};
  }

  std::span<const float> data() const noexcept { return {data_, size()}; }

  Matrix to_matrix() const {
    Matrix m(rows_, cols_);
    std::copy(data_, data_ + size(), m.data().data());
    return m;
  }

 private:
  const float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Max absolute elementwise difference; infinity if shapes differ.
float max_abs_diff(ConstMatrixView a, ConstMatrixView b);

/// True iff all elements differ by at most `tol`.
bool allclose(ConstMatrixView a, ConstMatrixView b, float tol = 1e-4f);

}  // namespace gt
