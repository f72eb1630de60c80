#include "dfg/least_squares.hpp"

#include <cmath>
#include <stdexcept>

namespace gt::dfg {

std::vector<double> least_squares(const std::vector<std::vector<double>>& a,
                                  const std::vector<double>& y,
                                  double ridge) {
  const std::size_t n = a.size();
  if (n == 0 || y.size() != n)
    throw std::invalid_argument("least_squares: empty or mismatched input");
  const std::size_t k = a[0].size();
  for (const auto& row : a)
    if (row.size() != k)
      throw std::invalid_argument("least_squares: ragged feature matrix");

  // Normal equations: (A^T A + ridge I) c = A^T y. The rows are sized one
  // by one: GCC 12 reads `vector(k, vector(k + 1))` as a possibly
  // overflowing allocation (-Walloc-size-larger-than), though k + 1 cannot
  // overflow for a vector's size.
  std::vector<std::vector<double>> m(k);
  for (auto& row : m) row.resize(k + 1, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) m[i][j] += a[s][i] * a[s][j];
      m[i][k] += a[s][i] * y[s];
    }
  }
  for (std::size_t i = 0; i < k; ++i) m[i][i] += ridge;

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r)
      if (std::abs(m[r][col]) > std::abs(m[pivot][col])) pivot = r;
    std::swap(m[col], m[pivot]);
    const double diag = m[col][col];
    if (std::abs(diag) < 1e-30) continue;  // singular direction: coeff -> 0
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      const double factor = m[r][col] / diag;
      for (std::size_t c = col; c <= k; ++c) m[r][c] -= factor * m[col][c];
    }
  }
  std::vector<double> coeff(k, 0.0);
  for (std::size_t i = 0; i < k; ++i)
    coeff[i] = std::abs(m[i][i]) < 1e-30 ? 0.0 : m[i][k] / m[i][i];
  return coeff;
}

}  // namespace gt::dfg
