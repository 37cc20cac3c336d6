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

// RMSNorm of `rows` contiguous rows of gain.size() floats at x, with learned
// gain: x ← x / rms(x) * gain.
void RmsNormInPlace(float* x, size_t rows, std::span<const float> gain, float eps = 1e-5f);

// RmsNormInPlace over rows [0, rows) of t.
void RmsNormInPlace(Tensor* t, size_t rows, std::span<const float> gain, float eps = 1e-5f);

// LayerNorm of `rows` contiguous rows of gain.size() floats at x, with learned
// gain and bias.
void LayerNormInPlace(float* x, size_t rows, std::span<const float> gain,
                      std::span<const float> bias, float eps = 1e-5f);

// LayerNormInPlace over rows [0, rows) of t.
void LayerNormInPlace(Tensor* t, size_t rows, std::span<const float> gain,
                      std::span<const float> bias, float eps = 1e-5f);

// e^x in float, the one exponential of the fp32 numerics (no libm):
// Cody–Waite range reduction x = n·ln2 + r with n = round(x·log2e), then a
// fixed degree-7 polynomial in r and an exact scale by 2^n, each multiply
// and add rounded on its own. Inputs are clamped to [−87.3365, 88.3763],
// ln(FLT_MIN) up to the last n whose 2^n is a normal float: above it the
// result is Exp(88.3763) ≈ 2.41e38 (never inf), below it +0 (so Exp(−inf)
// = 0). Within the clamp the error is under 1 ulp of e^x (every float input
// measured against double exp: at most 0.99 ulp). Every SIMD path
// reproduces it bit for bit (src/tensor/vmath.h).
float Exp(float x);

// Numerically stable logistic function over Exp:
// x ≥ 0: 1 / (1 + Exp(−x)); x < 0: Exp(x) / (1 + Exp(x)).
float Sigmoid(float x);

// In-place row softmax over Exp. If `causal_limit` >= 0, entries with column
// index > causal_limit are masked: they take no part and are set to 0
// (decoder-only models). The denominator sums in double over a fixed lane
// structure (src/tensor/vmath.h), so the result does not depend on the path.
void SoftmaxRowInPlace(std::span<float> row, ptrdiff_t causal_limit = -1);

// SwiGLU gating: gate[i] ← gate[i] * Sigmoid(gate[i]) * up[i], i.e.
// silu(gate) ⊙ up. Spans must have equal length.
void SwiGluInPlace(std::span<float> gate, std::span<const float> up);

// tanh-approximation GELU, elementwise.
void GeluInPlace(std::span<float> x);

// Dot product of equal-length spans.
float Dot(std::span<const float> a, std::span<const float> b);

}  // namespace prism

#endif  // PRISM_SRC_TENSOR_OPS_H_
