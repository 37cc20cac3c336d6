// Reduced-precision weight storage: the streaming precision tiers.
//
// The hot regime is SSD-bound, so bytes streamed per pass — not compute —
// bound throughput. Three reduced tiers sit beside fp32, each with a fused
// dequantising GEMM so the forward pass never materialises fp32 weights:
//
//   w4    4-bit group-wise symmetric (the W4A16 baseline, §6.1): per group a
//         float scale plus two signed 4-bit values per byte. 4× fewer bytes,
//         bounded perturbation (|err| ≤ scale/2, scale = max|w|/7).
//   int8  8-bit group-wise symmetric: per group a float scale plus one
//         signed byte per value. ~4× smaller error than w4 at 2× its bytes
//         (|err| ≤ scale/2, scale = max|w|/127).
//   fp16  scale-free IEEE binary16 storage (software conversion, no
//         compiler half type needed). Exactly 2× fewer bytes; relative
//         error ≤ one half-precision half-ulp (2⁻¹¹) for normal values.
//
// Weights W[out, in] are grouped along the `in` dimension in groups of
// `group_size` (w4/int8 only; fp16 has no groups).
#ifndef PRISM_SRC_TENSOR_QUANT_H_
#define PRISM_SRC_TENSOR_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace prism {

// Weight storage precision, a first-class streaming axis: checkpoints are
// written per precision, the BlobFile entry table tags every blob with it,
// and the engine streams exactly the tagged bytes. Enumerator values are the
// on-disk tag encoding — do not reorder.
enum class Precision : uint8_t {
  kFp32 = 0,
  kFp16 = 1,
  kInt8 = 2,
  kW4 = 3,
};

// "fp32" / "fp16" / "int8" / "w4" (flag spelling and file tags).
const char* PrecisionName(Precision precision);

// Parses a PrecisionName spelling; returns false on an unknown name.
bool PrecisionByName(const std::string& name, Precision* out);

// All precisions, in tag order (for sweeps).
inline constexpr Precision kAllPrecisions[] = {Precision::kFp32, Precision::kFp16,
                                               Precision::kInt8, Precision::kW4};

// Software fp32 ↔ IEEE binary16 conversion (round to nearest even). Values
// beyond the half range saturate to ±65504 so stored weights stay finite.
uint16_t Fp32ToFp16(float v);
float Fp16ToFp32(uint16_t h);

// Non-owning view of a 4-bit quantised matrix laid out as
// [packed nibbles][scales] inside a larger blob (e.g. a streamed layer).
struct QuantMatrixView {
  const uint8_t* packed = nullptr;
  const float* scales = nullptr;
  size_t rows = 0;
  size_t cols = 0;
  size_t group_size = 0;

  // C[m, rows] = A[m, cols] · Wᵀ with on-the-fly dequantisation.
  void MatMulTransB(const float* a, size_t m, float* c) const;

  // Bytes this view spans inside its blob.
  static size_t SpanBytes(size_t rows, size_t cols, size_t group_size) {
    return rows * cols / 2 + rows * (cols / group_size) * sizeof(float);
  }
};

// Non-owning view of an int8 group-wise symmetric matrix laid out as
// [int8 values][scales].
struct Int8MatrixView {
  const int8_t* values = nullptr;
  const float* scales = nullptr;
  size_t rows = 0;
  size_t cols = 0;
  size_t group_size = 0;

  void MatMulTransB(const float* a, size_t m, float* c) const;

  static size_t SpanBytes(size_t rows, size_t cols, size_t group_size) {
    return rows * cols + rows * (cols / group_size) * sizeof(float);
  }
};

// Non-owning view of a matrix stored as packed IEEE binary16 (no scales).
struct Fp16MatrixView {
  const uint16_t* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;

  void MatMulTransB(const float* a, size_t m, float* c) const;

  static size_t SpanBytes(size_t rows, size_t cols) { return rows * cols * sizeof(uint16_t); }
};

// Bytes one [rows, cols] matrix spans at `precision` (group_size ignored for
// fp32/fp16).
size_t MatrixSpanBytes(Precision precision, size_t rows, size_t cols, size_t group_size);

// Serialises `w` (row-major [rows, cols]) at the given precision into `out`
// (MatrixSpanBytes bytes), in the layout the matching *MatrixView reads.
// Deterministic: same input, same bytes. Used by checkpoint generation; the
// matching DecodeMatrix reconstructs fp32 for tests and error measurement.
void EncodeMatrix(Precision precision, const float* w, size_t rows, size_t cols,
                  size_t group_size, uint8_t* out);
void DecodeMatrix(Precision precision, const uint8_t* in, size_t rows, size_t cols,
                  size_t group_size, float* out);

}  // namespace prism

#endif  // PRISM_SRC_TENSOR_QUANT_H_
