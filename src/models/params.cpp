#include "models/params.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace gt::models {

ModelParams::ModelParams(const GnnModelConfig& config, std::size_t feature_dim,
                         std::uint64_t seed) {
  if (config.num_layers == 0)
    throw std::invalid_argument("model needs at least one layer");
  Xoshiro256 rng(seed);
  std::size_t in = feature_dim;
  for (std::uint32_t l = 0; l < config.num_layers; ++l) {
    const std::size_t out = config.out_dim_at(l);
    w_.push_back(Matrix::glorot(in, out, rng));
    b_.push_back(Matrix::zeros(1, out));
    in = out;
  }
}

void ModelParams::sgd_update(std::uint32_t layer, ConstMatrixView dw,
                             ConstMatrixView db, float lr) {
  Matrix& w = w_.at(layer);
  Matrix& b = b_.at(layer);
  if (w.rows() != dw.rows() || w.cols() != dw.cols() ||
      b.rows() != db.rows() || b.cols() != db.cols())
    throw std::invalid_argument("sgd_update: gradient shape mismatch");
  auto wd = w.data();
  auto dwd = dw.data();
  for (std::size_t i = 0; i < wd.size(); ++i) wd[i] -= lr * dwd[i];
  auto bd = b.data();
  auto dbd = db.data();
  for (std::size_t i = 0; i < bd.size(); ++i) bd[i] -= lr * dbd[i];
}

void ModelParams::sgd_update(std::uint32_t layer, const Matrix& dw,
                             const Matrix& db, float lr) {
  sgd_update(layer, ConstMatrixView(dw), ConstMatrixView(db), lr);
}

std::size_t ModelParams::parameter_count() const noexcept {
  std::size_t n = 0;
  for (const auto& m : w_) n += m.size();
  for (const auto& m : b_) n += m.size();
  return n;
}

}  // namespace gt::models
