// Model parameters (one MLP per layer) kept host-side between batches;
// frameworks upload them per batch and apply SGD updates from downloaded
// gradients.
#pragma once

#include <cstdint>
#include <vector>

#include "models/config.hpp"
#include "tensor/matrix.hpp"
#include "tensor/view.hpp"

namespace gt::models {

class ModelParams {
 public:
  /// Glorot-initialize all layers for an input feature width.
  ModelParams(const GnnModelConfig& config, std::size_t feature_dim,
              std::uint64_t seed);

  std::uint32_t num_layers() const noexcept {
    return static_cast<std::uint32_t>(w_.size());
  }
  const Matrix& w(std::uint32_t layer) const { return w_.at(layer); }
  const Matrix& b(std::uint32_t layer) const { return b_.at(layer); }
  Matrix& w(std::uint32_t layer) { return w_.at(layer); }
  Matrix& b(std::uint32_t layer) { return b_.at(layer); }

  /// Input width of layer l (feature_dim for l == 0, hidden otherwise).
  std::size_t in_dim(std::uint32_t layer) const {
    return w_.at(layer).rows();
  }
  std::size_t out_dim(std::uint32_t layer) const {
    return w_.at(layer).cols();
  }

  /// w -= lr * dw, b -= lr * db for one layer. The view form lets the
  /// batch hot path apply gradients straight from arena downloads.
  void sgd_update(std::uint32_t layer, ConstMatrixView dw, ConstMatrixView db,
                  float lr);
  void sgd_update(std::uint32_t layer, const Matrix& dw, const Matrix& db,
                  float lr);

  /// Total parameter count.
  std::size_t parameter_count() const noexcept;

 private:
  std::vector<Matrix> w_;
  std::vector<Matrix> b_;
};

}  // namespace gt::models
