#include "src/tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.h"
#include "src/tensor/gemm.h"

namespace prism {

namespace {

// The integer grid of a group-wise symmetric tier: a group's scale is
// max|w| / max, so its largest value lands on ±max and |err| ≤ scale/2
// holds everywhere.
struct Grid {
  int min;
  int max;
};
// Signed 4-bit, stored biased by +8 into a nibble.
constexpr Grid kW4Grid = {-8, 7};
// −128 unused so the grid is symmetric.
constexpr Grid kInt8Grid = {-127, 127};

// Quantises `w` group by group: the scale (1 for an all-zero group) is
// stored at scales[r * groups_per_row + g], and each value's clamped level
// goes to store(index, level) in row-major order.
template <typename Store>
void EncodeGrouped(const float* w, size_t rows, size_t cols, size_t group_size, Grid grid,
                   float* scales, Store store) {
  PRISM_CHECK_GT(group_size, 0u);
  PRISM_CHECK_EQ(cols % group_size, 0u);
  const size_t groups_per_row = cols / group_size;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t g = 0; g < groups_per_row; ++g) {
      const size_t begin = r * cols + g * group_size;
      float max_abs = 0.0f;
      for (size_t i = 0; i < group_size; ++i) {
        max_abs = std::max(max_abs, std::fabs(w[begin + i]));
      }
      const float scale = max_abs > 0.0f ? max_abs / static_cast<float>(grid.max) : 1.0f;
      const float inv_scale = 1.0f / scale;
      scales[r * groups_per_row + g] = scale;
      for (size_t i = 0; i < group_size; ++i) {
        const int q = static_cast<int>(std::lround(w[begin + i] * inv_scale));
        store(begin + i, std::clamp(q, grid.min, grid.max));
      }
    }
  }
}

// Inverse of EncodeGrouped: out[index] = scale · level(index).
template <typename Level>
void DecodeGrouped(const float* scales, size_t rows, size_t cols, size_t group_size,
                   float* out, Level level) {
  const size_t groups_per_row = cols / group_size;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t g = 0; g < groups_per_row; ++g) {
      const float scale = scales[r * groups_per_row + g];
      const size_t begin = r * cols + g * group_size;
      for (size_t i = 0; i < group_size; ++i) {
        out[begin + i] = scale * static_cast<float>(level(begin + i));
      }
    }
  }
}

// The signed level of element `index` of a w4 matrix: even indices are the
// low nibble of their byte, odd indices the high one.
int W4Level(const uint8_t* packed, size_t index) {
  const uint8_t byte = packed[index / 2];
  return static_cast<int>(index % 2 == 0 ? byte & 0x0F : byte >> 4) - 8;
}

}  // namespace

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kFp16:
      return "fp16";
    case Precision::kInt8:
      return "int8";
    case Precision::kW4:
      return "w4";
  }
  return "?";
}

bool PrecisionByName(const std::string& name, Precision* out) {
  for (const Precision precision : kAllPrecisions) {
    if (name == PrecisionName(precision)) {
      *out = precision;
      return true;
    }
  }
  return false;
}

uint16_t Fp32ToFp16(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint16_t sign = static_cast<uint16_t>((bits >> 16) & 0x8000u);
  const uint32_t exp = (bits >> 23) & 0xFFu;
  uint32_t mant = bits & 0x7FFFFFu;
  if (exp == 0xFFu) {
    // NaN stays NaN; infinities saturate like any other out-of-range value.
    if (mant != 0) {
      return static_cast<uint16_t>(sign | 0x7C00u | 0x200u);
    }
    return static_cast<uint16_t>(sign | 0x7BFFu);
  }
  const int e = static_cast<int>(exp) - 127 + 15;  // Rebias to half exponent.
  if (e >= 0x1F) {
    return static_cast<uint16_t>(sign | 0x7BFFu);  // Saturate to ±65504.
  }
  if (e <= 0) {
    if (e < -10) {
      return sign;  // Underflows even the smallest subnormal: ±0.
    }
    // Subnormal half: shift the 24-bit significand (implicit bit restored)
    // down to a bare 10-bit field, rounding to nearest even.
    mant |= 0x800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - e);
    uint32_t half_mant = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u) != 0)) {
      ++half_mant;
    }
    return static_cast<uint16_t>(sign | half_mant);
  }
  uint32_t half = (static_cast<uint32_t>(e) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u) != 0)) {
    ++half;  // May carry into the exponent — that is the correct rounding.
  }
  if (half >= 0x7C00u) {
    half = 0x7BFFu;  // Rounded past the largest finite half: saturate.
  }
  return static_cast<uint16_t>(sign | half);
}

float Fp16ToFp32(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1Fu;
  uint32_t mant = h & 0x3FFu;
  uint32_t bits = sign;
  if (exp == 0) {
    if (mant != 0) {
      // Normalise the subnormal: slide the leading bit into the implicit
      // position, adjusting the exponent per shift.
      uint32_t e = 127 - 15 + 1;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        --e;
      }
      mant &= 0x3FFu;
      bits |= (e << 23) | (mant << 13);
    }
  } else if (exp == 0x1Fu) {
    bits |= 0x7F800000u | (mant << 13);
  } else {
    bits |= ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

size_t MatrixSpanBytes(Precision precision, size_t rows, size_t cols, size_t group_size) {
  switch (precision) {
    case Precision::kFp32:
      return rows * cols * sizeof(float);
    case Precision::kFp16:
      return Fp16MatrixView::SpanBytes(rows, cols);
    case Precision::kInt8:
      return Int8MatrixView::SpanBytes(rows, cols, group_size);
    case Precision::kW4:
      return QuantMatrixView::SpanBytes(rows, cols, group_size);
  }
  return 0;
}

void EncodeMatrix(Precision precision, const float* w, size_t rows, size_t cols,
                  size_t group_size, uint8_t* out) {
  switch (precision) {
    case Precision::kFp32: {
      std::memcpy(out, w, rows * cols * sizeof(float));
      return;
    }
    case Precision::kFp16: {
      uint16_t* dst = reinterpret_cast<uint16_t*>(out);
      for (size_t i = 0; i < rows * cols; ++i) {
        dst[i] = Fp32ToFp16(w[i]);
      }
      return;
    }
    case Precision::kInt8: {
      int8_t* values = reinterpret_cast<int8_t*>(out);
      EncodeGrouped(w, rows, cols, group_size, kInt8Grid,
                    reinterpret_cast<float*>(out + rows * cols),
                    [&](size_t at, int q) { values[at] = static_cast<int8_t>(q); });
      return;
    }
    case Precision::kW4: {
      PRISM_CHECK_EQ(group_size % 2, 0u);
      EncodeGrouped(w, rows, cols, group_size, kW4Grid,
                    reinterpret_cast<float*>(out + rows * cols / 2), [&](size_t at, int q) {
                      const uint8_t nibble = static_cast<uint8_t>(q + 8);
                      if (at % 2 == 0) {
                        out[at / 2] = nibble;
                      } else {
                        out[at / 2] = static_cast<uint8_t>(out[at / 2] | (nibble << 4));
                      }
                    });
      return;
    }
  }
}

void DecodeMatrix(Precision precision, const uint8_t* in, size_t rows, size_t cols,
                  size_t group_size, float* out) {
  switch (precision) {
    case Precision::kFp32: {
      std::memcpy(out, in, rows * cols * sizeof(float));
      return;
    }
    case Precision::kFp16: {
      const uint16_t* src = reinterpret_cast<const uint16_t*>(in);
      for (size_t i = 0; i < rows * cols; ++i) {
        out[i] = Fp16ToFp32(src[i]);
      }
      return;
    }
    case Precision::kInt8: {
      const int8_t* values = reinterpret_cast<const int8_t*>(in);
      DecodeGrouped(reinterpret_cast<const float*>(in + rows * cols), rows, cols, group_size,
                    out, [&](size_t at) { return values[at]; });
      return;
    }
    case Precision::kW4: {
      DecodeGrouped(reinterpret_cast<const float*>(in + rows * cols / 2), rows, cols, group_size,
                    out, [&](size_t at) { return W4Level(in, at); });
      return;
    }
  }
}

// The fused GEMMs share the fp32 microkernel (src/tensor/gemm.h). Each tier
// only decodes a strip of weight rows into the transposed panel, with the
// expression DecodeMatrix uses, so fused equals decode-then-GEMM bit for bit.

void QuantMatrixView::MatMulTransB(const float* a, size_t m, float* c) const {
  const size_t groups_per_row = cols / group_size;
  gemm::MatMulTransBPanels(
      a, cols, m, cols, rows, c, rows, gemm::SelectedTile(),
      [&](size_t j0, size_t nr, float* panel) {
        for (size_t l = 0; l < nr; ++l) {
          const size_t j = j0 + l;
          for (size_t g = 0; g < groups_per_row; ++g) {
            const float scale = scales[j * groups_per_row + g];
            for (size_t i = 0; i < group_size; i += 2) {
              const size_t kk = g * group_size + i;
              const uint8_t byte = packed[(j * cols + kk) / 2];
              panel[kk * gemm::kNr + l] =
                  scale * static_cast<float>(static_cast<int>(byte & 0x0F) - 8);
              panel[(kk + 1) * gemm::kNr + l] =
                  scale * static_cast<float>(static_cast<int>(byte >> 4) - 8);
            }
          }
        }
      });
}

void Int8MatrixView::MatMulTransB(const float* a, size_t m, float* c) const {
  const size_t groups_per_row = cols / group_size;
  gemm::MatMulTransBPanels(
      a, cols, m, cols, rows, c, rows, gemm::SelectedTile(),
      [&](size_t j0, size_t nr, float* panel) {
        for (size_t l = 0; l < nr; ++l) {
          const size_t j = j0 + l;
          for (size_t g = 0; g < groups_per_row; ++g) {
            const float scale = scales[j * groups_per_row + g];
            for (size_t i = 0; i < group_size; ++i) {
              const size_t kk = g * group_size + i;
              panel[kk * gemm::kNr + l] = scale * static_cast<float>(values[j * cols + kk]);
            }
          }
        }
      });
}

void Fp16MatrixView::MatMulTransB(const float* a, size_t m, float* c) const {
  gemm::MatMulTransBPanels(a, cols, m, cols, rows, c, rows, gemm::SelectedTile(),
                           [&](size_t j0, size_t nr, float* panel) {
                             for (size_t l = 0; l < nr; ++l) {
                               const uint16_t* w = data + (j0 + l) * cols;
                               for (size_t kk = 0; kk < cols; ++kk) {
                                 panel[kk * gemm::kNr + l] = Fp16ToFp32(w[kk]);
                               }
                             }
                           });
}

}  // namespace prism
