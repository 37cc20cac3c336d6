#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/tensor/vmath.h"

namespace prism {
namespace {

Tensor RandomTensor(size_t rows, size_t cols, uint64_t seed, MemoryTracker* tracker) {
  Tensor t(rows, cols, MemCategory::kScratch, tracker);
  Rng rng(seed);
  for (float& v : t.flat()) {
    v = static_cast<float>(rng.NextGaussian());
  }
  return t;
}

// Reference O(n³) matmul for cross-checking the optimised kernels.
void NaiveMatMul(const Tensor& a, const Tensor& b, Tensor* c, bool trans_b) {
  for (size_t i = 0; i < c->rows(); ++i) {
    for (size_t j = 0; j < c->cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.at(i, k)) * (trans_b ? b.at(j, k) : b.at(k, j));
      }
      c->at(i, j) = static_cast<float>(acc);
    }
  }
}

// The numerics oracle every GEMM path must reproduce bit for bit: one float
// accumulator per output, summed over k in order, the multiply and the add
// each rounded (src/tensor/gemm.h).
void OracleMatMulTransB(const float* a, size_t lda, size_t m, size_t k, const float* b,
                        size_t ldb, size_t n, float* c, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b[j * ldb + kk];
      }
      c[i * ldc + j] = acc;
    }
  }
}

// Gaussian values with one in eight replaced by ±0, a subnormal, or a value
// whose products underflow into the subnormal range.
std::vector<float> EdgeCaseValues(size_t count, uint64_t seed) {
  const float specials[] = {-0.0f,
                            0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::min() / 4.0f,
                            1e-20f,
                            -1e-20f};
  Rng rng(seed);
  std::vector<float> values(count);
  for (float& v : values) {
    v = rng.NextBelow(8) == 0 ? specials[rng.NextBelow(std::size(specials))]
                              : static_cast<float>(rng.NextGaussian());
  }
  return values;
}

bool SameBits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Every tile path this host can run: portable always, AVX2 and AVX-512
// where supported. A path the CPU lacks is logged, not silently dropped.
std::vector<std::pair<std::string, gemm::TileFn>> TilePaths() {
  std::vector<std::pair<std::string, gemm::TileFn>> paths = {{"portable", gemm::TilePortable}};
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) {
    paths.emplace_back("avx2", gemm::TileAvx2);
  } else {
    std::cout << "[  SKIPPED ] avx2 tile: CPU lacks AVX2\n";
  }
  if (__builtin_cpu_supports("avx512f")) {
    paths.emplace_back("avx512", gemm::TileAvx512);
  } else {
    std::cout << "[  SKIPPED ] avx512 tile: CPU lacks AVX-512F\n";
  }
#endif
  return paths;
}

// Every elementwise path this host can run: the scalar definition always,
// AVX2 where supported.
std::vector<const vmath::Kernels*> VmathPaths() {
  std::vector<const vmath::Kernels*> paths = {&vmath::kScalar};
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) {
    paths.push_back(&vmath::kAvx2);
  } else {
    std::cout << "[  SKIPPED ] avx2 elementwise kernels: CPU lacks AVX2\n";
  }
#endif
  return paths;
}

// EdgeCaseValues scaled by `scale`, with one in eight replaced by a value
// beyond Exp's clamp or an infinity.
std::vector<float> ExpInputs(size_t count, float scale, uint64_t seed) {
  const float beyond[] = {-88.0f,
                          -100.0f,
                          -1e30f,
                          89.0f,
                          1e30f,
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::infinity()};
  std::vector<float> values = EdgeCaseValues(count, seed);
  Rng rng(seed ^ 0x5EED);
  for (float& v : values) {
    v = rng.NextBelow(8) == 0 ? beyond[rng.NextBelow(std::size(beyond))] : v * scale;
  }
  return values;
}

// |got − want| in units of the spacing of floats at `want`.
double UlpError(float got, double want) {
  const auto near = static_cast<float>(want);
  const double ulp =
      static_cast<double>(std::nextafter(near, std::numeric_limits<float>::infinity())) - near;
  return std::fabs(static_cast<double>(got) - want) / ulp;
}

TEST(TensorTest, AllocationTracksMemory) {
  MemoryTracker tracker;
  {
    Tensor t(8, 16, MemCategory::kActivations, &tracker);
    EXPECT_EQ(tracker.CurrentBytes(MemCategory::kActivations), 8 * 16 * 4);
    EXPECT_EQ(t.rows(), 8u);
    EXPECT_EQ(t.cols(), 16u);
  }
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kActivations), 0);
}

TEST(TensorTest, CloneCopiesData) {
  MemoryTracker tracker;
  Tensor t(2, 2, MemCategory::kScratch, &tracker);
  t.at(0, 1) = 3.5f;
  Tensor copy = t.Clone(MemCategory::kScratch, &tracker);
  EXPECT_EQ(copy.at(0, 1), 3.5f);
  copy.at(0, 1) = 1.0f;
  EXPECT_EQ(t.at(0, 1), 3.5f);
}

TEST(TensorTest, RowSpanWrites) {
  MemoryTracker tracker;
  Tensor t(3, 4, MemCategory::kScratch, &tracker);
  auto row = t.row(1);
  row[2] = 7.0f;
  EXPECT_EQ(t.at(1, 2), 7.0f);
}

TEST(OpsTest, MatMulMatchesNaive) {
  MemoryTracker tracker;
  const Tensor a = RandomTensor(7, 13, 1, &tracker);
  const Tensor b = RandomTensor(13, 9, 2, &tracker);
  Tensor c(7, 9, MemCategory::kScratch, &tracker);
  Tensor ref(7, 9, MemCategory::kScratch, &tracker);
  MatMul(a, b, &c);
  NaiveMatMul(a, b, &ref, /*trans_b=*/false);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.flat()[i], ref.flat()[i], 1e-4f);
  }
}

TEST(OpsTest, MatMulTransBMatchesNaive) {
  MemoryTracker tracker;
  const Tensor a = RandomTensor(11, 16, 3, &tracker);
  const Tensor b = RandomTensor(10, 16, 4, &tracker);  // [n, k]
  Tensor c(11, 10, MemCategory::kScratch, &tracker);
  Tensor ref(11, 10, MemCategory::kScratch, &tracker);
  MatMulTransB(a, b, &c);
  OracleMatMulTransB(a.data(), 16, 11, 16, b.data(), 16, 10, ref.data(), 10);
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)), 0);
}

// Each GEMM path, and the dispatched entry point, equals the scalar oracle
// bit for bit across tile edges (m around kMr = 4, n around kNr = 16) and
// the layer shapes, with ±0 and subnormal inputs.
TEST(GemmKernelTest, EveryPathMatchesScalarOracleBitForBit) {
  const size_t ms[] = {1, 3, 4, 5, 17, 384};
  const size_t ns[] = {1, 7, 15, 16, 17, 96, 288};
  const size_t ks[] = {1, 13, 96, 288};
  const auto paths = TilePaths();
  uint64_t seed = 100;
  for (const size_t k : ks) {
    for (const size_t n : ns) {
      const std::vector<float> b = EdgeCaseValues(n * k, ++seed);
      for (const size_t m : ms) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
        const std::vector<float> a = EdgeCaseValues(m * k, ++seed);
        std::vector<float> want(m * n);
        OracleMatMulTransB(a.data(), k, m, k, b.data(), k, n, want.data(), n);
        for (const auto& [name, tile] : paths) {
          std::vector<float> got(m * n);
          gemm::MatMulTransBStrided(a.data(), k, m, k, b.data(), k, n, got.data(), n, tile);
          ASSERT_TRUE(SameBits(got, want)) << name;
        }
        std::vector<float> dispatched(m * n);
        MatMulTransBRaw(a.data(), m, k, b.data(), n, dispatched.data());
        ASSERT_TRUE(SameBits(dispatched, want)) << "dispatched";
      }
    }
  }
}

// The attention score call: one head's dh columns of Q and K inside
// row-major [candidates * seq, d] activations.
TEST(GemmKernelTest, StridedHeadSlicesMatchScalarOracle) {
  const size_t d = 96;
  const size_t dh = 24;
  const size_t seq = 37;
  const size_t candidates = 2;
  const std::vector<float> q = EdgeCaseValues(candidates * seq * d, 7);
  const std::vector<float> k = EdgeCaseValues(candidates * seq * d, 8);
  const auto paths = TilePaths();
  for (size_t cand = 0; cand < candidates; ++cand) {
    for (size_t col0 = 0; col0 < d; col0 += dh) {
      SCOPED_TRACE(::testing::Message() << "candidate " << cand << ", head column " << col0);
      const float* qh = q.data() + cand * seq * d + col0;
      const float* kh = k.data() + cand * seq * d + col0;
      std::vector<float> want(seq * seq);
      OracleMatMulTransB(qh, d, seq, dh, kh, d, seq, want.data(), seq);
      std::vector<float> got(seq * seq);
      MatMulTransBStrided(qh, d, seq, dh, kh, d, seq, got.data(), seq);
      EXPECT_TRUE(SameBits(got, want)) << "dispatched";
      for (const auto& [name, tile] : paths) {
        gemm::MatMulTransBStrided(qh, d, seq, dh, kh, d, seq, got.data(), seq, tile);
        EXPECT_TRUE(SameBits(got, want)) << name;
      }
    }
  }
}

TEST(OpsTest, AddInPlace) {
  MemoryTracker tracker;
  Tensor a(2, 2, MemCategory::kScratch, &tracker);
  Tensor b(2, 2, MemCategory::kScratch, &tracker);
  a.Fill(1.0f);
  b.Fill(2.5f);
  AddInPlace(&a, b);
  EXPECT_EQ(a.at(1, 1), 3.5f);
}

TEST(OpsTest, AddBias) {
  MemoryTracker tracker;
  Tensor a(2, 3, MemCategory::kScratch, &tracker);
  const std::vector<float> bias = {1.0f, 2.0f, 3.0f};
  AddBiasInPlace(&a, bias);
  EXPECT_EQ(a.at(0, 0), 1.0f);
  EXPECT_EQ(a.at(1, 2), 3.0f);
}

TEST(OpsTest, RmsNormNormalizes) {
  MemoryTracker tracker;
  Tensor t = RandomTensor(4, 32, 5, &tracker);
  const std::vector<float> gain(32, 1.0f);
  RmsNormInPlace(&t, t.rows(), gain);
  for (size_t r = 0; r < t.rows(); ++r) {
    double sum_sq = 0.0;
    for (float v : t.row(r)) {
      sum_sq += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(std::sqrt(sum_sq / 32.0), 1.0, 1e-2);
  }
}

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  MemoryTracker tracker;
  Tensor t = RandomTensor(4, 64, 6, &tracker);
  const std::vector<float> gain(64, 1.0f);
  const std::vector<float> bias(64, 0.0f);
  LayerNormInPlace(&t, t.rows(), gain, bias);
  for (size_t r = 0; r < t.rows(); ++r) {
    double mean = 0.0;
    double var = 0.0;
    for (float v : t.row(r)) {
      mean += v;
    }
    mean /= 64.0;
    for (float v : t.row(r)) {
      var += (v - mean) * (v - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(OpsTest, SoftmaxSumsToOne) {
  std::vector<float> row = {1.0f, 2.0f, 3.0f, 4.0f};
  SoftmaxRowInPlace(row);
  float sum = 0.0f;
  for (float v : row) {
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(row[3], row[0]);
}

TEST(OpsTest, CausalSoftmaxMasksFuture) {
  std::vector<float> row = {1.0f, 5.0f, 9.0f, 9.0f};
  SoftmaxRowInPlace(row, /*causal_limit=*/1);
  EXPECT_EQ(row[2], 0.0f);
  EXPECT_EQ(row[3], 0.0f);
  EXPECT_NEAR(row[0] + row[1], 1.0f, 1e-5f);
}

TEST(OpsTest, SoftmaxHandlesExtremeValues) {
  std::vector<float> row = {1000.0f, -1000.0f, 999.0f};
  SoftmaxRowInPlace(row);
  EXPECT_TRUE(std::isfinite(row[0]));
  EXPECT_NEAR(row[0] + row[1] + row[2], 1.0f, 1e-5f);
}

TEST(OpsTest, SwiGluGatesBySilu) {
  std::vector<float> gate = {0.0f, 10.0f, -10.0f, 2.0f};
  const std::vector<float> up = {3.0f, 1.0f, 1.0f, 0.5f};
  SwiGluInPlace(gate, up);
  EXPECT_EQ(gate[0], 0.0f);
  EXPECT_NEAR(gate[1], 10.0f, 1e-3f);
  EXPECT_NEAR(gate[2], 0.0f, 1e-3f);
  EXPECT_NEAR(gate[3], 2.0f / (1.0f + std::exp(-2.0f)) * 0.5f, 1e-6f);
}

TEST(OpsTest, RmsNormLeavesRowsPastCount) {
  MemoryTracker tracker;
  Tensor t = RandomTensor(4, 8, 9, &tracker);
  const Tensor before = t.Clone(MemCategory::kScratch, &tracker);
  const std::vector<float> gain(8, 2.0f);
  RmsNormInPlace(&t, 2, gain);
  EXPECT_NE(t.at(1, 0), before.at(1, 0));
  EXPECT_EQ(std::memcmp(t.row(2).data(), before.row(2).data(), 2 * 8 * sizeof(float)), 0);
}

TEST(OpsTest, GeluMatchesKnownPoints) {
  MemoryTracker tracker;
  Tensor t(1, 2, MemCategory::kScratch, &tracker);
  t.at(0, 0) = 0.0f;
  t.at(0, 1) = 1.0f;
  GeluInPlace(t.flat());
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_NEAR(t.at(0, 1), 0.8412f, 1e-3f);
}

TEST(OpsTest, SigmoidSymmetry) {
  EXPECT_NEAR(Sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(Sigmoid(3.0f) + Sigmoid(-3.0f), 1.0f, 1e-6f);
  EXPECT_TRUE(std::isfinite(Sigmoid(-100.0f)));
  EXPECT_TRUE(std::isfinite(Sigmoid(100.0f)));
}

TEST(OpsTest, DotProduct) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {4.0f, 5.0f, 6.0f};
  EXPECT_FLOAT_EQ(Dot(a, b), 32.0f);
}

TEST(ExpTest, FixedPointsAndClamp) {
  EXPECT_EQ(Exp(0.0f), 1.0f);
  EXPECT_EQ(Exp(-0.0f), 1.0f);
  EXPECT_EQ(Exp(-88.0f), 0.0f);
  EXPECT_EQ(Exp(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_EQ(Exp(89.0f), Exp(88.3763f));
  EXPECT_EQ(Exp(std::numeric_limits<float>::infinity()), Exp(88.3763f));
  EXPECT_TRUE(std::isfinite(Exp(88.3763f)));
  EXPECT_GE(Exp(-87.3365f), std::numeric_limits<float>::min());
}

// The no-FMA definition's bits at inputs where fusing its multiply-adds (as
// -march=x86-64-v3 would without -ffp-contract=off) changes the result.
TEST(ExpTest, PinnedBitsOfTheNoFmaDefinition) {
  const std::pair<float, float> pinned[] = {
      {-0x1.d18794p+2f, 0x1.6b8ae6p-11f}, {-0x1.b2d774p+2f, 0x1.259be8p-10f},
      {-0x1.a3ef9ep+2f, 0x1.729c0ep-10f}, {-0x1.9dcc64p+2f, 0x1.97e93cp-10f},
      {-0x1.134394p+2f, 0x1.bc2b98p-7f},  {-0x1.d95eap+1f, 0x1.95ccc8p-6f}};
  for (const auto& [x, want] : pinned) {
    EXPECT_EQ(Exp(x), want) << std::hexfloat << "Exp(" << x << ")";
  }
}

// Error bound: a million evenly spaced inputs over [−87, 88] plus their
// neighbours one float apart.
TEST(ExpTest, Within2UlpOfDoubleExp) {
  constexpr int kSteps = 1 << 20;
  double worst = 0.0;
  float worst_at = 0.0f;
  for (int s = 0; s <= kSteps; ++s) {
    const float mid = -87.0f + 175.0f * static_cast<float>(s) / kSteps;
    for (const float x : {std::nextafter(mid, -100.0f), mid, std::nextafter(mid, 100.0f)}) {
      const double err = UlpError(Exp(x), std::exp(static_cast<double>(x)));
      if (err > worst) {
        worst = err;
        worst_at = x;
      }
    }
  }
  EXPECT_LE(worst, 2.0) << "at x = " << worst_at;
}

// Every compiled elementwise path equals the scalar definition bit for bit,
// over lengths 1–70 (whole SIMD blocks and every tail) with ±0, subnormal,
// beyond-clamp and infinite inputs.
TEST(VmathKernelTest, ExpPathsMatchScalarBitForBit) {
  for (size_t n = 1; n <= 70; ++n) {
    const std::vector<float> x = ExpInputs(n, 40.0f, n);
    std::vector<float> want(n);
    for (size_t i = 0; i < n; ++i) {
      want[i] = Exp(x[i]);
    }
    for (const vmath::Kernels* path : VmathPaths()) {
      std::vector<float> got(n);
      path->exp(x.data(), got.data(), n);
      ASSERT_TRUE(SameBits(got, want)) << path->name << " n=" << n;
    }
  }
}

TEST(VmathKernelTest, SwiGluPathsMatchScalarBitForBit) {
  for (size_t n = 1; n <= 70; ++n) {
    const std::vector<float> gate = ExpInputs(n, 8.0f, 100 + n);
    const std::vector<float> up = EdgeCaseValues(n, 200 + n);
    std::vector<float> want = gate;
    vmath::kScalar.swiglu(want.data(), up.data(), n);
    for (const vmath::Kernels* path : VmathPaths()) {
      std::vector<float> got = gate;
      path->swiglu(got.data(), up.data(), n);
      ASSERT_TRUE(SameBits(got, want)) << path->name << " n=" << n;
    }
    std::vector<float> dispatched = gate;
    SwiGluInPlace(dispatched, up);
    ASSERT_TRUE(SameBits(dispatched, want)) << "dispatched n=" << n;
  }
}

// Rows spread far enough that some entries fall beyond the clamp after the
// max is subtracted, unmasked and with causal limits that mask part, none
// or (past the end) nothing of the row.
TEST(VmathKernelTest, SoftmaxPathsMatchScalarBitForBit) {
  for (size_t n = 1; n <= 70; ++n) {
    std::vector<float> row = EdgeCaseValues(n, 300 + n);
    for (float& v : row) {
      v *= 30.0f;
    }
    for (const ptrdiff_t limit : {ptrdiff_t{-1}, ptrdiff_t{0}, static_cast<ptrdiff_t>(n / 2),
                                  static_cast<ptrdiff_t>(n) - 1, static_cast<ptrdiff_t>(n) + 3}) {
      std::vector<float> want = row;
      vmath::kScalar.softmax(want.data(), n, limit);
      for (size_t i = limit < 0 ? n : static_cast<size_t>(limit) + 1; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(want[i]), 0u) << "masked entry " << i;
      }
      for (const vmath::Kernels* path : VmathPaths()) {
        std::vector<float> got = row;
        path->softmax(got.data(), n, limit);
        ASSERT_TRUE(SameBits(got, want)) << path->name << " n=" << n << " limit=" << limit;
      }
      std::vector<float> dispatched = row;
      SoftmaxRowInPlace(dispatched, limit);
      ASSERT_TRUE(SameBits(dispatched, want)) << "dispatched n=" << n << " limit=" << limit;
    }
  }
}

}  // namespace
}  // namespace prism
