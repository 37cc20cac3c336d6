// Lossless coding of streamed layer blobs (BlobFile v3) and the CRC32C that
// guards every v3 blob.
//
// Dense float weights waste bits in their exponents: a Gaussian-like weight
// matrix uses a handful of exponent values, so the 8-bit fp32 exponent
// carries about 2.6 bits of entropy while the sign and mantissa are close to
// uniform. The codec splits every element into a one-byte symbol, entropy
// coded with one canonical Huffman table per blob (code lengths ≤ 12 bits),
// and a raw plane stored verbatim:
//
//   kExp32 (fp32, 4-byte elements): symbol = the 8 exponent bits; raw plane =
//     sign + 23 mantissa bits, 3 bytes per element.
//   kExp16 (fp16, 2-byte elements): symbol = the top byte (sign, the 5
//     exponent bits and the 2 leading mantissa bits); raw plane = the low
//     byte. The three extra bits are near-uniform, so they cost the code what
//     they would cost raw, and the raw plane stays byte-aligned.
//
// Any byte string whose length is a multiple of the element width round-trips
// bit for bit (NaN payloads, subnormals, the trailing fp32 norm vectors of an
// fp16 layer blob): the split is a bijection on bit patterns.
//
// Stored layout (integers little-endian):
//
//   [code lengths: 128 B, one nibble per symbol 0..255, low nibble first]
//   [block sizes: u16 × block_count, the stored bytes of each block]
//   block 0 … block_count-1
//
// A block covers kBlockElements elements (the last one may be shorter). A
// block whose stored size equals its decoded size holds its elements
// verbatim: coding would not have shrunk it. Any other block is
//
//   [u16 × 3: byte lengths of streams 0..2][stream 0..3][raw plane]
//
// where stream s codes, LSB-first, the symbols of the block's elements
// [s·n/4, (s+1)·n/4); four independent streams let the decoder overlap four
// table lookups.
//
// In-place decode. The reader places the stored bytes at the tail of the
// blob's decoded-size buffer and decodes forward. Every block stores at most
// its decoded size, so before block b is decoded the unread input starts at
// least Σ_{i≥b}(decoded_i − stored_i) ≥ 0 bytes past the write cursor: output
// never overtakes input. Within a coded block the symbols are first decoded
// into a one-block scratch, and the raw plane then starts at least n bytes
// past the cursor, exactly the one byte per element the merge adds. So the
// only memory besides the caller's buffer is that scratch and the decode
// tables, a few tens of KiB on the decoding thread's stack.
#ifndef PRISM_SRC_STORAGE_BLOB_CODEC_H_
#define PRISM_SRC_STORAGE_BLOB_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/status.h"

namespace prism {

// How a blob's stored bytes encode its decoded bytes (the v3 codec column).
enum class BlobCodec : uint32_t {
  kRaw = 0,    // Stored bytes are the decoded bytes.
  kExp32 = 1,  // 4-byte elements, exponent byte coded (fp32 layer blobs).
  kExp16 = 2,  // 2-byte elements, top byte coded (fp16 layer blobs).
};
inline constexpr uint32_t kMaxBlobCodecTag = 2;

namespace blob_codec {

inline constexpr size_t kBlockElements = 4096;

// The per-CPU pieces of decoding. The merges write n elements to `out` from n
// symbols and the raw plane; `out` may overlap `raw` as long as it starts at
// least n bytes before it (the in-place layout guarantees that).
struct Kernels {
  const char* name;
  void (*merge_exp32)(const uint8_t* symbols, const uint8_t* raw, size_t n, uint8_t* out);
  void (*merge_exp16)(const uint8_t* symbols, const uint8_t* raw, size_t n, uint8_t* out);
  // CRC32C (Castagnoli, reflected, init and final xor 0xFFFFFFFF).
  uint32_t (*crc32c)(const uint8_t* data, size_t n);
};

// The definition: plain C++ and a table-driven CRC.
extern const Kernels kPortable;

#if defined(__x86_64__) || defined(__i386__)
// AVX2 merges with the SSE4.2 crc32 instruction. Use only when the CPU has
// AVX2 and SSE4.2.
extern const Kernels kAvx2;
#endif

// The fastest kernels this CPU runs: kAvx2 where the CPU has AVX2 and
// SSE4.2, else kPortable. Chosen once per process. Every set produces identical bits.
const Kernels& Selected();

// CRC32C of `bytes` on the selected kernels.
uint32_t Crc32c(std::span<const uint8_t> bytes);

// Codes `decoded` with `codec` (kExp32 or kExp16). Returns std::nullopt when
// the coded form would not be smaller than `decoded` or `decoded` is not a
// whole number of elements; the caller then stores the blob raw.
std::optional<std::vector<uint8_t>> Encode(BlobCodec codec, std::span<const uint8_t> decoded);

// Decodes in place: on entry the last `stored_bytes` bytes of `buf` hold the
// output of Encode(codec, x) where x.size() == buf.size(); on success `buf`
// holds x. Malformed input (a bad length table, block table or bitstream)
// returns kDataLoss; the decoder never reads or writes outside `buf`, its
// scratch and its tables, whatever the input.
Status DecodeInPlace(BlobCodec codec, std::span<uint8_t> buf, size_t stored_bytes,
                     const Kernels& kernels = Selected());

}  // namespace blob_codec
}  // namespace prism

#endif  // PRISM_SRC_STORAGE_BLOB_CODEC_H_
