// Dense kernels used by the transformer forward pass.
//
// All matrices are row-major. Weight matrices follow the PyTorch convention
// W[out, in], so projections are computed with MatMulTransB (y = x · Wᵀ).
#ifndef PRISM_SRC_TENSOR_OPS_H_
#define PRISM_SRC_TENSOR_OPS_H_

#include <cstddef>
#include <span>

#include "src/tensor/tensor.h"

namespace prism {

// C[m,n] = A[m,k] · B[k,n]. C must be pre-sized; contents are overwritten.
void MatMul(const Tensor& a, const Tensor& b, Tensor* c);

// C[m,n] = A[m,k] · B[n,k]ᵀ (B given row-major as [n, k]).
void MatMulTransB(const Tensor& a, const Tensor& b, Tensor* c);

// Raw-pointer variant of MatMulTransB for callers holding weight blobs.
void MatMulTransBRaw(const float* a, size_t m, size_t k, const float* b, size_t n, float* c);

// MatMulTransBRaw over sub-matrices: row i of A starts at a + i * lda, row j
// of B at b + j * ldb, row i of C at c + i * ldc (e.g. one attention head's
// columns of Q and K). Every GEMM here computes each output as one float sum
// over k in order, multiply and add rounded separately, so results are
// bit-identical to that scalar loop (src/tensor/gemm.h).
void MatMulTransBStrided(const float* a, size_t lda, size_t m, size_t k, const float* b,
                         size_t ldb, size_t n, float* c, size_t ldc);

// y += x, elementwise. Shapes must match.
void AddInPlace(Tensor* y, const Tensor& x);

// Each row r of t gets bias added: t[r, c] += bias[c].
void AddBiasInPlace(Tensor* t, std::span<const float> bias);

// In-place row-wise RMSNorm with learned gain: x ← x / rms(x) * gain.
void RmsNormInPlace(Tensor* t, std::span<const float> gain, float eps = 1e-5f);

// In-place row-wise LayerNorm with learned gain and bias.
void LayerNormInPlace(Tensor* t, std::span<const float> gain, std::span<const float> bias,
                      float eps = 1e-5f);

// In-place row-wise softmax. If `causal_limit` >= 0, entries with column index
// > causal_limit are masked to -inf before the softmax (decoder-only models).
void SoftmaxRowInPlace(std::span<float> row, ptrdiff_t causal_limit = -1);

// x ← x * sigmoid(x) (SiLU / swish), elementwise.
void SiluInPlace(Tensor* t);

// tanh-approximation GELU, elementwise.
void GeluInPlace(Tensor* t);

// y ← y ⊙ x elementwise (SwiGLU gating).
void MulInPlace(Tensor* y, const Tensor& x);

// Numerically stable logistic function.
float Sigmoid(float x);

// Dot product of equal-length spans.
float Dot(std::span<const float> a, std::span<const float> b);

}  // namespace prism

#endif  // PRISM_SRC_TENSOR_OPS_H_
