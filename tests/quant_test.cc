#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/blob_codec.h"
#include "src/tensor/quant.h"
#include "tests/test_util.h"

namespace prism {
namespace {

std::vector<float> RandomWeights(size_t n, uint64_t seed, float scale = 0.1f) {
  std::vector<float> w(n);
  Rng rng(seed);
  for (float& v : w) {
    v = static_cast<float>(rng.NextGaussian()) * scale;
  }
  return w;
}

// The bytes of one tier's encoding of `w`.
std::vector<uint8_t> Encode(Precision precision, const std::vector<float>& w, size_t rows,
                            size_t cols, size_t group) {
  std::vector<uint8_t> encoded(MatrixSpanBytes(precision, rows, cols, group));
  EncodeMatrix(precision, w.data(), rows, cols, group, encoded.data());
  return encoded;
}

// C[m, rows] = A · Wᵀ accumulated in double over the decoded weights.
std::vector<float> ReferenceMatMul(const std::vector<float>& a, size_t m,
                                   const std::vector<float>& w, size_t rows, size_t cols) {
  std::vector<float> c(m * rows);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < rows; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < cols; ++k) {
        acc += static_cast<double>(a[i * cols + k]) * w[j * cols + k];
      }
      c[i * rows + j] = static_cast<float>(acc);
    }
  }
  return c;
}

// --- group-wise tiers (int8, w4) ------------------------------------------

// Each tier keeps the seeds and rounding slack of its own suite.
struct GroupedTier {
  Precision precision;
  float bound_slack;      // Added to half the max scale in the round-trip bound.
  uint64_t row_seed;      // The round-trip sweep seeds a shape with rows * row_seed + cols.
  uint64_t weight_seed;   // The GEMM test's weights...
  uint64_t activation_seed;  // ...and activations.
};

class GroupedTierTest : public ::testing::TestWithParam<GroupedTier> {
 protected:
  // The fused GEMM of the tier's view over `encoded` ([values][scales]).
  static void ViewMatMul(Precision precision, const std::vector<uint8_t>& encoded, size_t rows,
                         size_t cols, size_t group, const float* a, size_t m, float* c) {
    const size_t values_bytes =
        MatrixSpanBytes(precision, rows, cols, group) - rows * (cols / group) * sizeof(float);
    const auto* scales = reinterpret_cast<const float*>(encoded.data() + values_bytes);
    if (precision == Precision::kInt8) {
      Int8MatrixView{reinterpret_cast<const int8_t*>(encoded.data()), scales, rows, cols, group}
          .MatMulTransB(a, m, c);
    } else {
      QuantMatrixView{encoded.data(), scales, rows, cols, group}.MatMulTransB(a, m, c);
    }
  }
};

TEST_P(GroupedTierTest, ErrorBoundedByHalfScale) {
  const GroupedTier tier = GetParam();
  const size_t shapes[][3] = {{8, 32, 16}, {16, 64, 32}, {3, 32, 32}, {32, 128, 64}, {5, 96, 32}};
  for (const auto& [rows, cols, group] : shapes) {
    SCOPED_TRACE(::testing::Message() << rows << "x" << cols << " group " << group);
    const std::vector<float> w = RandomWeights(rows * cols, rows * tier.row_seed + cols);
    const std::vector<uint8_t> encoded = Encode(tier.precision, w, rows, cols, group);
    std::vector<float> back(rows * cols);
    DecodeMatrix(tier.precision, encoded.data(), rows, cols, group, back.data());
    // Symmetric rounding: |err| <= scale/2 everywhere; check against the
    // global max scale (a loose but always-valid bound).
    const float bound =
        MaxGroupScale(tier.precision, encoded.data(), rows, cols, group) * 0.5f + tier.bound_slack;
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_LE(std::fabs(w[i] - back[i]), bound) << "at " << i;
    }
  }
}

TEST_P(GroupedTierTest, MatMulMatchesDecodedMatMul) {
  const GroupedTier tier = GetParam();
  const size_t rows = 12;
  const size_t cols = 32;
  const size_t group = 16;
  const size_t m = 5;
  const std::vector<float> w = RandomWeights(rows * cols, tier.weight_seed);
  const std::vector<float> a = RandomWeights(m * cols, tier.activation_seed, 1.0f);
  const std::vector<uint8_t> encoded = Encode(tier.precision, w, rows, cols, group);
  std::vector<float> decoded(rows * cols);
  DecodeMatrix(tier.precision, encoded.data(), rows, cols, group, decoded.data());
  const std::vector<float> expected = ReferenceMatMul(a, m, decoded, rows, cols);
  std::vector<float> got(m * rows, 0.0f);
  ViewMatMul(tier.precision, encoded, rows, cols, group, a.data(), m, got.data());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-3f);
  }
}

TEST_P(GroupedTierTest, SpanBytesIsValuesPlusScales) {
  const Precision precision = GetParam().precision;
  const size_t value_bytes = precision == Precision::kInt8 ? 16 * 64 : 16 * 64 / 2;
  EXPECT_EQ(MatrixSpanBytes(precision, 16, 64, 32), value_bytes + 16 * 2 * sizeof(float));
}

TEST_P(GroupedTierTest, ZeroMatrixRoundTripsToZero) {
  const Precision precision = GetParam().precision;
  const std::vector<float> w(8 * 16, 0.0f);
  const std::vector<uint8_t> encoded = Encode(precision, w, 8, 16, 16);
  std::vector<float> back(8 * 16, 1.0f);
  DecodeMatrix(precision, encoded.data(), 8, 16, 16, back.data());
  for (float v : back) {
    EXPECT_EQ(v, 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, GroupedTierTest,
                         ::testing::Values(GroupedTier{Precision::kInt8, 1e-7f, 37, 20, 21},
                                           GroupedTier{Precision::kW4, 1e-6f, 31, 10, 11}),
                         [](const ::testing::TestParamInfo<GroupedTier>& info) {
                           return std::string(PrecisionName(info.param.precision));
                         });

// --- fp16 tier ------------------------------------------------------------

TEST(Fp16Test, ExactValuesRoundTripExactly) {
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 0.25f, 1024.0f, 65504.0f, -65504.0f,
                  1.5f, 0.099975586f /* representable in binary16 */}) {
    EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(v)), v) << v;
  }
}

TEST(Fp16Test, OverflowSaturatesToMaxHalf) {
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(65536.0f)), 65504.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(-65536.0f)), -65504.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(std::numeric_limits<float>::infinity())), 65504.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(-std::numeric_limits<float>::infinity())), -65504.0f);
  // 65520 is the rounding boundary: round-to-nearest-even would overflow to
  // infinity; saturation must clamp it back to 65504.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(65520.0f)), 65504.0f);
}

TEST(Fp16Test, NanIsPreserved) {
  const uint16_t h = Fp32ToFp16(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(h & 0x7C00u, 0x7C00u);  // Exponent all ones...
  EXPECT_NE(h & 0x03FFu, 0u);       // ...nonzero mantissa: a NaN, not inf.
  EXPECT_TRUE(std::isnan(Fp16ToFp32(h)));
}

TEST(Fp16Test, SubnormalsRoundTrip) {
  // Largest and smallest positive binary16 subnormals, and one in between.
  for (float v : {5.9604645e-8f, 6.097555e-5f, 3.0517578e-5f}) {
    EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(v)), v) << v;
    EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(-v)), -v) << -v;
  }
  // Below half the smallest subnormal: flushes to (signed) zero.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1e-9f)), 0.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(-1e-9f)), -0.0f);
}

TEST(Fp16Test, RoundsToNearestEven) {
  // 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10): ties
  // go to the even mantissa, i.e. 1.0. Just above the tie rounds up.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1.0f + 4.8828125e-4f)), 1.0f);
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1.0f + 4.9e-4f)), 1.0f + 9.765625e-4f);
  // 1 + 3·2^-11 ties between consecutive halves: even side is the upper.
  EXPECT_EQ(Fp16ToFp32(Fp32ToFp16(1.0f + 3 * 4.8828125e-4f)), 1.0f + 2 * 9.765625e-4f);
}

TEST(Fp16Test, AllFiniteHalfBitPatternsRoundTrip) {
  // Exhaustive: decode→encode is the identity on every finite half. The
  // exponent-all-ones patterns are excluded — inf saturates to ±65504 by
  // design and NaNs canonicalise.
  for (uint32_t bits = 0; bits <= 0xFFFFu; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    if ((h & 0x7C00u) == 0x7C00u) {
      continue;
    }
    EXPECT_EQ(Fp32ToFp16(Fp16ToFp32(h)), h) << "bits " << bits;
  }
}

TEST(Fp16Test, MatMulMatchesDecodedMatMul) {
  const size_t rows = 12;
  const size_t cols = 32;
  const size_t m = 5;
  const std::vector<float> w = RandomWeights(rows * cols, 22);
  const std::vector<float> a = RandomWeights(m * cols, 23, 1.0f);
  const std::vector<uint8_t> encoded = Encode(Precision::kFp16, w, rows, cols, 0);
  std::vector<float> decoded(rows * cols);
  DecodeMatrix(Precision::kFp16, encoded.data(), rows, cols, 0, decoded.data());
  const std::vector<float> expected = ReferenceMatMul(a, m, decoded, rows, cols);
  Fp16MatrixView view;
  view.rows = rows;
  view.cols = cols;
  view.data = reinterpret_cast<const uint16_t*>(encoded.data());
  std::vector<float> got(m * rows, 0.0f);
  view.MatMulTransB(a.data(), m, got.data());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-3f);
  }
}

TEST(Fp16Test, SpanBytesIsTwoPerValue) {
  EXPECT_EQ(Fp16MatrixView::SpanBytes(16, 64), 16 * 64 * 2);
  EXPECT_EQ(MatrixSpanBytes(Precision::kFp16, 16, 64, 32), Fp16MatrixView::SpanBytes(16, 64));
}

// --- precision axis -------------------------------------------------------

TEST(PrecisionTest, NamesRoundTrip) {
  for (const Precision precision : kAllPrecisions) {
    Precision back = Precision::kW4;
    ASSERT_TRUE(PrecisionByName(PrecisionName(precision), &back));
    EXPECT_EQ(back, precision);
  }
  Precision out = Precision::kFp32;
  EXPECT_FALSE(PrecisionByName("fp8", &out));
  EXPECT_FALSE(PrecisionByName("", &out));
}

TEST(PrecisionTest, SpanBytesOrderingMatchesTiers) {
  const size_t rows = 32;
  const size_t cols = 64;
  const size_t group = 16;
  const size_t f32 = MatrixSpanBytes(Precision::kFp32, rows, cols, group);
  const size_t f16 = MatrixSpanBytes(Precision::kFp16, rows, cols, group);
  const size_t i8 = MatrixSpanBytes(Precision::kInt8, rows, cols, group);
  const size_t w4 = MatrixSpanBytes(Precision::kW4, rows, cols, group);
  EXPECT_EQ(f32, rows * cols * 4);
  EXPECT_EQ(f16, f32 / 2);
  EXPECT_LT(i8, f16);
  EXPECT_LT(w4, i8);
}


// --- byte pins ------------------------------------------------------------

// The CRC32C of every tier's encoding of one seeded matrix. Checkpoints are
// written once and streamed forever, so a tier's bytes must never change
// silently; these constants were recorded from the encoder and fail on any
// re-implementation that is not bit-identical. Row 0's first group is all
// zero, the scale-1 path of the grouped tiers.
TEST(EncodingPinTest, EveryTierEncodesToPinnedBytes) {
  const size_t rows = 24;
  const size_t cols = 96;
  const size_t group = 32;
  std::vector<float> w = RandomWeights(rows * cols, 2026);
  std::fill(w.begin(), w.begin() + static_cast<ptrdiff_t>(group), 0.0f);
  const struct {
    Precision precision;
    uint32_t crc32c;
  } pins[] = {{Precision::kFp32, 0xB54C6292u},
              {Precision::kFp16, 0x1B437F34u},
              {Precision::kInt8, 0x2B99E191u},
              {Precision::kW4, 0x668BF31Eu}};
  for (const auto& pin : pins) {
    std::vector<uint8_t> encoded(MatrixSpanBytes(pin.precision, rows, cols, group));
    EncodeMatrix(pin.precision, w.data(), rows, cols, group, encoded.data());
    EXPECT_EQ(blob_codec::Crc32c(encoded), pin.crc32c) << PrecisionName(pin.precision);
  }
}

}  // namespace
}  // namespace prism
