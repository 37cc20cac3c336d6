// The elementwise kernels behind Exp, Sigmoid, SwiGluInPlace and
// SoftmaxRowInPlace (src/tensor/ops.h): one scalar path, which is the
// definition, and SIMD paths that reproduce it bit for bit. Internal to
// src/tensor; tests include it to run each path directly.
//
// Numerics contract (the fp32 golden fixtures depend on it): every path
// evaluates Exp with the same float operations in the same order, each
// multiply and add rounded on its own (no FMA; the build pins
// -ffp-contract=off), so SIMD lanes are independent scalar evaluations. The
// one reduction, the softmax denominator, has a fixed shape: element i is
// added in double to lane i % kSumLanes in index order, and the lanes are
// combined in the fixed tree of SumLanes() in vmath.cc.
#ifndef PRISM_SRC_TENSOR_VMATH_H_
#define PRISM_SRC_TENSOR_VMATH_H_

#include <cstddef>

namespace prism::vmath {

inline constexpr size_t kSumLanes = 8;  // Softmax denominator partial sums.

struct Kernels {
  const char* name;
  // y[i] = Exp(x[i]) for i < n.
  void (*exp)(const float* x, float* y, size_t n);
  // gate[i] = gate[i] * Sigmoid(gate[i]) * up[i] for i < n.
  void (*swiglu)(float* gate, const float* up, size_t n);
  // SoftmaxRowInPlace({row, n}, causal_limit, scale).
  void (*softmax)(float* row, size_t n, ptrdiff_t causal_limit, float scale);
};

// The definition: plain C++ over prism::Exp and prism::Sigmoid.
extern const Kernels kScalar;

#if defined(__x86_64__) || defined(__i386__)
// Eight lanes with AVX2 intrinsics (mul then add, never FMA). Use only when
// the CPU has AVX2.
extern const Kernels kAvx2;
#endif

// kAvx2 when the CPU supports it, else kScalar. Chosen once per process.
const Kernels& Selected();

}  // namespace prism::vmath

#endif  // PRISM_SRC_TENSOR_VMATH_H_
