#include "src/tensor/vmath.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "src/tensor/ops.h"

namespace prism {

namespace {

// Exp(kExpLo) is the smallest normal float; Exp(kExpHi) is the largest input
// whose 2^n scale is still a normal float (n = 127).
constexpr float kExpLo = -87.33654475f;
constexpr float kExpHi = 88.37626266f;
constexpr float kLog2e = 1.44269504088896341f;
// (t + kRoundToInt) - kRoundToInt rounds t to an integer, ties to even, for
// |t| < 2^22.
constexpr float kRoundToInt = 12582912.0f;
// ln 2 = kLn2Hi + kLn2Lo (Cody–Waite): kLn2Hi has 9 significant bits, so
// n * kLn2Hi is exact for every n the clamp allows.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// (e^r − 1 − r) / r² on |r| ≤ ln2 / 2, Horner from the highest degree
// (the Cephes expf polynomial).
constexpr float kP0 = 1.9875691500e-4f;
constexpr float kP1 = 1.3981999507e-3f;
constexpr float kP2 = 8.3334519073e-3f;
constexpr float kP3 = 4.1665795894e-2f;
constexpr float kP4 = 1.6666665459e-1f;
constexpr float kP5 = 5.0000001201e-1f;

}  // namespace

float Exp(float x) {
  // The two selects are written so that a NaN picks the same operand as the
  // SIMD min / max instructions do.
  float xc = x < kExpHi ? x : kExpHi;
  xc = xc > kExpLo ? xc : kExpLo;
  const float n = (xc * kLog2e + kRoundToInt) - kRoundToInt;
  float r = xc - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kP0;
  p = p * r + kP1;
  p = p * r + kP2;
  p = p * r + kP3;
  p = p * r + kP4;
  p = p * r + kP5;
  const float y = p * (r * r) + r + 1.0f;
  const float scale =
      std::bit_cast<float>(static_cast<uint32_t>(static_cast<int32_t>(n) + 127) << 23);
  return x < kExpLo ? 0.0f : y * scale;
}

float Sigmoid(float x) {
  if (x >= 0.0f) {
    return 1.0f / (1.0f + Exp(-x));
  }
  const float z = Exp(x);
  return z / (1.0f + z);
}

namespace vmath {

namespace {

size_t SoftmaxLimit(size_t n, ptrdiff_t causal_limit) {
  return causal_limit < 0 ? n : std::min(n, static_cast<size_t>(causal_limit) + 1);
}

// The softmax denominator: the fixed tree over the lanes.
double SumLanes(const double* lane) {
  static_assert(kSumLanes == 8, "tree written for eight lanes");
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

// row[i] = e^(row[i] − max) / Σ for i < limit, 0 beyond; row[0, limit)
// already holds the exponentials and `lane` their partial sums.
void Normalize(float* row, size_t n, size_t limit, const double* lane) {
  const float inv = static_cast<float>(1.0 / SumLanes(lane));
  for (size_t i = 0; i < limit; ++i) {
    row[i] *= inv;
  }
  std::fill(row + limit, row + n, 0.0f);
}

void ExpScalar(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] = Exp(x[i]);
  }
}

void SwiGluScalar(float* gate, const float* up, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    gate[i] = gate[i] * Sigmoid(gate[i]) * up[i];
  }
}

void SoftmaxScalar(float* row, size_t n, ptrdiff_t causal_limit, float scale) {
  const size_t limit = SoftmaxLimit(n, causal_limit);
  if (limit == 0) {
    return;
  }
  float max_v = -std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < limit; ++i) {
    row[i] *= scale;
    max_v = std::max(max_v, row[i]);
  }
  double lane[kSumLanes] = {};
  for (size_t i = 0; i < limit; ++i) {
    row[i] = Exp(row[i] - max_v);
    lane[i % kSumLanes] += row[i];
  }
  Normalize(row, n, limit, lane);
}

#if defined(__x86_64__) || defined(__i386__)
// Exp, operation for operation.
__attribute__((target("avx2"))) inline __m256 Exp8(__m256 x) {
  __m256 xc = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  xc = _mm256_max_ps(xc, _mm256_set1_ps(kExpLo));
  const __m256 round = _mm256_set1_ps(kRoundToInt);
  const __m256 n =
      _mm256_sub_ps(_mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kLog2e)), round), round);
  __m256 r = _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP5));
  const __m256 y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
                                 _mm256_set1_ps(1.0f));
  const __m256i scale = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127)), 23);
  const __m256 below = _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ);
  return _mm256_andnot_ps(below, _mm256_mul_ps(y, _mm256_castsi256_ps(scale)));
}

// Sigmoid, both branches evaluated and the scalar one's operands selected.
__attribute__((target("avx2"))) inline __m256 Sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 nonneg = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
  const __m256 z = Exp8(_mm256_blendv_ps(x, _mm256_xor_ps(x, _mm256_set1_ps(-0.0f)), nonneg));
  return _mm256_div_ps(_mm256_blendv_ps(z, one, nonneg), _mm256_add_ps(one, z));
}

__attribute__((target("avx2"))) void ExpAvx2(const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, Exp8(_mm256_loadu_ps(x + i)));
  }
  ExpScalar(x + i, y + i, n - i);
}

__attribute__((target("avx2"))) void SwiGluAvx2(float* gate, const float* up, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_loadu_ps(gate + i);
    _mm256_storeu_ps(gate + i,
                     _mm256_mul_ps(_mm256_mul_ps(g, Sigmoid8(g)), _mm256_loadu_ps(up + i)));
  }
  SwiGluScalar(gate + i, up + i, n - i);
}

__attribute__((target("avx2"))) void SoftmaxAvx2(float* row, size_t n, ptrdiff_t causal_limit,
                                                 float scale) {
  static_assert(kSumLanes == 8, "one float register, two double registers of lanes");
  const size_t limit = SoftmaxLimit(n, causal_limit);
  if (limit == 0) {
    return;
  }
  const size_t blocks = limit - limit % 8;
  // The maximum is the same whatever the order (a ±0 tie changes no Exp
  // argument), so lanes may find it in any order.
  const __m256 vscale = _mm256_set1_ps(scale);
  __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < blocks; i += 8) {
    const __m256 x = _mm256_mul_ps(_mm256_loadu_ps(row + i), vscale);
    _mm256_storeu_ps(row + i, x);
    vmax = _mm256_max_ps(vmax, x);
  }
  float lanes_max[8];
  _mm256_storeu_ps(lanes_max, vmax);
  float max_v = *std::max_element(lanes_max, lanes_max + 8);
  for (size_t i = blocks; i < limit; ++i) {
    row[i] *= scale;
    max_v = std::max(max_v, row[i]);
  }
  const __m256 vm = _mm256_set1_ps(max_v);
  __m256d sum_lo = _mm256_setzero_pd();
  __m256d sum_hi = _mm256_setzero_pd();
  for (size_t i = 0; i < blocks; i += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(row + i), vm));
    _mm256_storeu_ps(row + i, e);
    sum_lo = _mm256_add_pd(sum_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
    sum_hi = _mm256_add_pd(sum_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
  }
  double lane[kSumLanes];
  _mm256_storeu_pd(lane, sum_lo);
  _mm256_storeu_pd(lane + 4, sum_hi);
  for (size_t i = blocks; i < limit; ++i) {
    row[i] = Exp(row[i] - max_v);
    lane[i % kSumLanes] += row[i];
  }
  Normalize(row, n, limit, lane);
}
#endif

}  // namespace

const Kernels kScalar = {"scalar", ExpScalar, SwiGluScalar, SoftmaxScalar};

#if defined(__x86_64__) || defined(__i386__)
const Kernels kAvx2 = {"avx2", ExpAvx2, SwiGluAvx2, SoftmaxAvx2};
#endif

const Kernels& Selected() {
#if defined(__x86_64__) || defined(__i386__)
  static const Kernels& kernels = __builtin_cpu_supports("avx2") ? kAvx2 : kScalar;
  return kernels;
#else
  return kScalar;
#endif
}

}  // namespace vmath
}  // namespace prism
