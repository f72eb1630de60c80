// Dense linear-algebra kernels.
//
// These are the "combination" (MLP) building blocks: the paper's Apply
// primitive delegates dense math to the underlying DL framework
// (tf.matmul / bias_add / relu); here they are implemented directly, and
// the NAPA Apply kernels (kernels/napa.cpp) call them for their products.
//
// The three matmuls are register-tiled: each output tile of up to 4 rows x
// 8 columns accumulates in SSE registers, and large products split over
// the process-wide compute engine (util/parallel.hpp). Every output element
// starts from +0.0f and adds its products in ascending inner index, a
// multiply then an add, so each result is bit-identical to the naive loop
// at any shape and thread count. matmul and matmul_a_bt split over output
// rows; matmul_at_b splits over the output rows too (columns of A) and
// streams A's rows in blocks inside each chunk.
//
// Each op comes in two flavours: an owning form returning a fresh Matrix,
// and an `_into` form writing to a caller-supplied MatrixView (typically
// carved from a gt::Arena) so the steady-state batch loop performs zero
// heap allocation. The `_into` forms overwrite `out` entirely; `out` may
// not alias any input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/view.hpp"

namespace gt {

/// C = A * B.           A: [m,k], B: [k,n] -> C: [m,n].   2*m*k*n FLOPs.
Matrix matmul(const Matrix& a, const Matrix& b);
void matmul_into(ConstMatrixView a, ConstMatrixView b, MatrixView out);

/// C = A^T * B.         A: [k,m], B: [k,n] -> C: [m,n].
Matrix matmul_at_b(const Matrix& a, const Matrix& b);
void matmul_at_b_into(ConstMatrixView a, ConstMatrixView b, MatrixView out);

/// C = A * B^T.         A: [m,k], B: [n,k] -> C: [m,n].
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);
void matmul_a_bt_into(ConstMatrixView a, ConstMatrixView b, MatrixView out);

Matrix transpose(const Matrix& a);
void transpose_into(ConstMatrixView a, MatrixView out);

/// Row-broadcast bias add: out[r,c] = a[r,c] + bias[0,c].
Matrix add_bias(const Matrix& a, const Matrix& bias);
void add_bias_into(ConstMatrixView a, ConstMatrixView bias, MatrixView out);

Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);  // elementwise product
Matrix scale(const Matrix& a, float s);
void scale_into(ConstMatrixView a, float s, MatrixView out);

Matrix relu(const Matrix& a);
void relu_into(ConstMatrixView a, MatrixView out);
/// dL/dx for y = relu(x): grad masked where x <= 0.
Matrix relu_backward(const Matrix& grad_out, const Matrix& x);

/// Row-wise softmax.
Matrix softmax_rows(const Matrix& a);
void softmax_rows_into(ConstMatrixView a, MatrixView out);

/// Mean softmax cross-entropy over rows; labels[r] in [0, cols).
/// Also writes dL/dlogits into *grad if non-null (mean-reduced).
float softmax_cross_entropy(const Matrix& logits,
                            const std::vector<std::uint32_t>& labels,
                            Matrix* grad = nullptr);
/// Allocation-free form: if `grad` is non-empty it must match the logits
/// shape and receives dL/dlogits; an empty view computes loss only.
float softmax_cross_entropy_into(ConstMatrixView logits,
                                 const std::vector<std::uint32_t>& labels,
                                 MatrixView grad);

/// Column sums as a 1 x cols matrix (bias gradient).
Matrix col_sum(const Matrix& a);
void col_sum_into(ConstMatrixView a, MatrixView out);

/// Frobenius norm.
float fro_norm(const Matrix& a);

}  // namespace gt
