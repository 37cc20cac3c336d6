#include "src/storage/blob_codec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <queue>
#include <string>

#include "src/common/check.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace prism::blob_codec {

namespace {

constexpr unsigned kMaxCodeBits = 12;
constexpr size_t kStreams = 4;
constexpr size_t kLengthTableBytes = 128;  // 256 symbols × 4 bits.
constexpr size_t kBlockHeaderBytes = 2 * (kStreams - 1);
constexpr uint32_t kTableSize = 1u << kMaxCodeBits;
constexpr uint32_t kTableMask = kTableSize - 1;

using Lengths = std::array<uint8_t, 256>;
using Codes = std::array<uint16_t, 256>;

size_t ElementBytes(BlobCodec codec) { return codec == BlobCodec::kExp32 ? 4 : 2; }

// Stream s of an n-element block covers elements [StreamBegin(n, s),
// StreamBegin(n, s + 1)).
size_t StreamBegin(size_t n, size_t s) { return n * s / kStreams; }

uint16_t LoadU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void StoreU16(uint8_t* p, size_t v) {
  const auto narrow = static_cast<uint16_t>(v);
  std::memcpy(p, &narrow, 2);
}

// --- Element split and merge ------------------------------------------------

void SplitExp32(const uint8_t* in, size_t n, uint8_t* symbols, uint8_t* raw) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t x;
    std::memcpy(&x, in + 4 * i, 4);
    symbols[i] = static_cast<uint8_t>(x >> 23);
    const uint32_t r = (x & 0x7FFFFFu) | ((x >> 31) << 23);
    raw[3 * i] = static_cast<uint8_t>(r);
    raw[3 * i + 1] = static_cast<uint8_t>(r >> 8);
    raw[3 * i + 2] = static_cast<uint8_t>(r >> 16);
  }
}

void SplitExp16(const uint8_t* in, size_t n, uint8_t* symbols, uint8_t* raw) {
  for (size_t i = 0; i < n; ++i) {
    raw[i] = in[2 * i];
    symbols[i] = in[2 * i + 1];
  }
}

// The merges run front to back: element i's raw bytes are read before the
// element is written, and `out` trails `raw` by at least n bytes (see the
// in-place argument in the header), so no write lands on unread input.
void MergeExp32Portable(const uint8_t* symbols, const uint8_t* raw, size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = raw[3 * i] | (uint32_t{raw[3 * i + 1]} << 8) |
                       (uint32_t{raw[3 * i + 2]} << 16);
    const uint32_t x = (r & 0x7FFFFFu) | ((r & 0x800000u) << 8) | (uint32_t{symbols[i]} << 23);
    std::memcpy(out + 4 * i, &x, 4);
  }
}

void MergeExp16Portable(const uint8_t* symbols, const uint8_t* raw, size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[2 * i] = raw[i];
    out[2 * i + 1] = symbols[i];
  }
}

// --- CRC32C ---------------------------------------------------------------

constexpr uint32_t kCrc32cPoly = 0x82F63B78u;  // Castagnoli, reflected.

constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (c >> 1) ^ kCrc32cPoly : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

uint32_t Crc32cPortable(const uint8_t* data, size_t n) {
  uint32_t c = ~0u;
  for (size_t i = 0; i < n; ++i) {
    c = kCrcTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* data, size_t n) {
  uint32_t c = ~0u;
#if defined(__x86_64__)
  uint64_t wide = c;
  for (; n >= 8; data += 8, n -= 8) {
    wide = _mm_crc32_u64(wide, LoadU64(data));
  }
  c = static_cast<uint32_t>(wide);
#endif
  for (; n > 0; ++data, --n) {
    c = _mm_crc32_u8(c, *data);
  }
  return ~c;
}

__attribute__((target("avx2"))) void MergeExp32Avx2(const uint8_t* symbols, const uint8_t* raw,
                                                    size_t n, uint8_t* out) {
  // Each 128-bit half gathers four 3-byte raw words into 32-bit lanes.
  const __m256i gather = _mm256_setr_epi8(0, 1, 2, -1, 3, 4, 5, -1, 6, 7, 8, -1, 9, 10, 11, -1,
                                          0, 1, 2, -1, 3, 4, 5, -1, 6, 7, 8, -1, 9, 10, 11, -1);
  const __m256i mantissa = _mm256_set1_epi32(0x7FFFFF);
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  size_t i = 0;
  // The second 16-byte load reaches raw byte 3i + 28, inside the plane while
  // i + 10 <= n.
  for (; i + 10 <= n; i += 8) {
    const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(raw + 3 * i));
    const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(raw + 3 * i + 12));
    const __m256i r = _mm256_shuffle_epi8(_mm256_set_m128i(hi, lo), gather);
    const __m256i e = _mm256_slli_epi32(
        _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(symbols + i))), 23);
    const __m256i x = _mm256_or_si256(
        _mm256_or_si256(_mm256_and_si256(r, mantissa),
                        _mm256_and_si256(_mm256_slli_epi32(r, 8), sign)),
        e);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * i), x);
  }
  MergeExp32Portable(symbols + i, raw + 3 * i, n - i, out + 4 * i);
}

__attribute__((target("avx2"))) void MergeExp16Avx2(const uint8_t* symbols, const uint8_t* raw,
                                                    size_t n, uint8_t* out) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + i));
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(symbols + i));
    // unpack interleaves within 128-bit halves; the permutes restore order.
    const __m256i lo = _mm256_unpacklo_epi8(r, s);
    const __m256i hi = _mm256_unpackhi_epi8(r, s);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 2 * i),
                        _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 2 * i + 32),
                        _mm256_permute2x128_si256(lo, hi, 0x31));
  }
  MergeExp16Portable(symbols + i, raw + i, n - i, out + 2 * i);
}
#endif

// --- Code construction ------------------------------------------------------

// Huffman code lengths for `freq`, limited to kMaxCodeBits by halving the
// counts until the tree is shallow enough. The result is always a complete
// prefix code (Kraft sum exactly 1): a lone symbol is paired with a dummy.
Lengths CodeLengths(std::array<uint64_t, 256> freq) {
  Lengths lengths{};
  std::vector<int> used;
  for (int s = 0; s < 256; ++s) {
    if (freq[s] > 0) {
      used.push_back(s);
    }
  }
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    lengths[used[0] ^ 1] = 1;
    return lengths;
  }
  for (;;) {
    // (weight, node id) pairs; ids break ties so the tree is deterministic.
    using Node = std::pair<uint64_t, int>;
    std::priority_queue<Node, std::vector<Node>, std::greater<>> heap;
    for (const int s : used) {
      heap.emplace(freq[s], s);
    }
    std::array<int, 512> parent;
    parent.fill(-1);
    int next = 256;
    while (heap.size() > 1) {
      const Node a = heap.top();
      heap.pop();
      const Node b = heap.top();
      heap.pop();
      parent[a.second] = next;
      parent[b.second] = next;
      heap.emplace(a.first + b.first, next++);
    }
    unsigned deepest = 0;
    for (const int s : used) {
      unsigned depth = 0;
      for (int v = s; parent[v] >= 0; v = parent[v]) {
        ++depth;
      }
      lengths[s] = static_cast<uint8_t>(depth);
      deepest = std::max(deepest, depth);
    }
    if (deepest <= kMaxCodeBits) {
      return lengths;
    }
    for (const int s : used) {
      freq[s] = (freq[s] + 1) / 2;
    }
  }
}

// Canonical codes (shorter codes first, then by symbol), bit-reversed so the
// first code bit is the stream's least significant unread bit.
Codes CanonicalCodes(const Lengths& lengths) {
  std::array<uint32_t, kMaxCodeBits + 1> count{};
  for (const uint8_t len : lengths) {
    if (len > 0) {
      ++count[len];
    }
  }
  std::array<uint32_t, kMaxCodeBits + 1> next{};
  uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxCodeBits; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  Codes codes{};
  for (size_t s = 0; s < 256; ++s) {
    const unsigned len = lengths[s];
    if (len == 0) {
      continue;
    }
    const uint32_t canonical = next[len]++;
    uint32_t reversed = 0;
    for (unsigned bit = 0; bit < len; ++bit) {
      reversed = (reversed << 1) | ((canonical >> bit) & 1u);
    }
    codes[s] = static_cast<uint16_t>(reversed);
  }
  return codes;
}

// --- Decoding -----------------------------------------------------------------

// single[x]: the symbol whose code is a prefix of x's low bits, and its length
// (symbol | length << 8). multi[x]: up to three whole codes packed from x's low
// 12 bits: symbols in bits 0-23, bits consumed in 24-27, symbol count in 28-29.
struct Tables {
  std::array<uint16_t, kTableSize> single;
  std::array<uint32_t, kTableSize> multi;
};

Status BuildTables(const uint8_t* packed, Tables* tables) {
  Lengths lengths;
  uint32_t kraft = 0;
  for (size_t s = 0; s < 256; ++s) {
    const uint8_t len = (packed[s / 2] >> (4 * (s % 2))) & 0xFu;
    if (len > kMaxCodeBits) {
      return Status::DataLoss("code length " + std::to_string(len) + " over " +
                              std::to_string(kMaxCodeBits) + " bits");
    }
    lengths[s] = len;
    kraft += len > 0 ? kTableSize >> len : 0;
  }
  // A complete code fills every table slot exactly once, so any 12-bit
  // window decodes; corrupt streams then fail the overrun check instead.
  if (kraft != kTableSize) {
    return Status::DataLoss("code lengths are not a complete prefix code");
  }
  const Codes codes = CanonicalCodes(lengths);
  for (size_t s = 0; s < 256; ++s) {
    const unsigned len = lengths[s];
    if (len == 0) {
      continue;
    }
    for (uint32_t x = codes[s]; x < kTableSize; x += 1u << len) {
      tables->single[x] = static_cast<uint16_t>(s | (len << 8));
    }
  }
  for (uint32_t x = 0; x < kTableSize; ++x) {
    uint32_t symbols = 0;
    uint32_t used = 0;
    uint32_t count = 0;
    // x >> used keeps 12 - used valid bits; a code no longer than that is
    // decided by them alone.
    while (count < 3) {
      const uint16_t entry = tables->single[x >> used];
      const uint32_t len = entry >> 8;
      if (used + len > kMaxCodeBits) {
        break;
      }
      symbols |= uint32_t{static_cast<uint8_t>(entry)} << (8 * count);
      used += len;
      ++count;
    }
    tables->multi[x] = symbols | (used << 24) | (count << 28);
  }
  return Status::Ok();
}

// LSB-first reader over one stream. Fast refills load 8 bytes at a time and
// may look past the stream's end, but never past the end of the buffer;
// those bits are consumed only by a corrupt stream, which Overran() reports.
struct BitReader {
  const uint8_t* data = nullptr;
  size_t size = 0;      // Stream bytes.
  size_t readable = 0;  // Bytes from `data` to the end of the buffer.
  size_t pos = 0;       // Next byte not yet fully in `bits`.
  uint64_t bits = 0;
  unsigned count = 0;  // Valid bits in `bits`.

  bool CanRefillFast() const { return pos + 8 <= readable; }

  // Tops `bits` up to 56..63 valid bits.
  void RefillFast() {
    bits |= LoadU64(data + pos) << count;
    pos += (63 - count) >> 3;
    count |= 56;
  }

  // The same, a byte at a time; bytes past the stream read as zero.
  void RefillSafe() {
    while (count <= 56) {
      const uint64_t byte = pos < size ? data[pos] : 0;
      bits |= byte << count;
      ++pos;
      count += 8;
    }
  }

  void Consume(unsigned n) {
    bits >>= n;
    count -= n;
  }

  bool Overran() const { return pos * 8 - count > size * 8; }
};

// One multi-symbol lookup: writes 4 bytes at `out`, of which the entry's
// symbol count are symbols.
inline void DecodeStep(const Tables& tables, BitReader& reader, uint8_t*& out) {
  const uint32_t entry = tables.multi[reader.bits & kTableMask];
  std::memcpy(out, &entry, 4);
  out += entry >> 28;
  reader.Consume((entry >> 24) & 0xFu);
}

// Finishes one stream a symbol at a time into [out, end). False if the
// stream needed more bits than it holds. Takes the reader by value so the
// fast loop's readers never have their address taken.
bool DecodeTail(const Tables& tables, BitReader reader, uint8_t* out, uint8_t* end) {
  while (out < end) {
    if (reader.count < kMaxCodeBits) {
      reader.RefillSafe();
    }
    const uint16_t entry = tables.single[reader.bits & kTableMask];
    *out++ = static_cast<uint8_t>(entry);
    reader.Consume(entry >> 8);
  }
  return !reader.Overran();
}

// Decodes the block's four streams into symbols[0, n). False if a stream
// needed more bits than it holds.
bool DecodeStreams(const std::array<BitReader, kStreams>& streams, uint8_t* symbols, size_t n,
                   const Tables& tables) {
  // The fast loop keeps every stream's state in named locals: symbol stores
  // go through uint8_t*, which may alias anything whose address escapes.
  BitReader r0 = streams[0];
  BitReader r1 = streams[1];
  BitReader r2 = streams[2];
  BitReader r3 = streams[3];
  uint8_t* o0 = symbols + StreamBegin(n, 0);
  uint8_t* o1 = symbols + StreamBegin(n, 1);
  uint8_t* o2 = symbols + StreamBegin(n, 2);
  uint8_t* o3 = symbols + StreamBegin(n, 3);
  uint8_t* const e0 = o1;
  uint8_t* const e1 = o2;
  uint8_t* const e2 = o3;
  uint8_t* const e3 = symbols + n;
  // One refill then four lookups per stream and round. A lookup consumes at
  // most 12 bits and writes 4 bytes of which up to 3 are symbols, so 56
  // refilled bits and 16 bytes of room cover a round.
  while (e0 - o0 >= 16 && e1 - o1 >= 16 && e2 - o2 >= 16 && e3 - o3 >= 16 &&
         r0.CanRefillFast() && r1.CanRefillFast() && r2.CanRefillFast() && r3.CanRefillFast()) {
    r0.RefillFast();
    r1.RefillFast();
    r2.RefillFast();
    r3.RefillFast();
#pragma GCC unroll 4
    for (int round = 0; round < 4; ++round) {
      DecodeStep(tables, r0, o0);
      DecodeStep(tables, r1, o1);
      DecodeStep(tables, r2, o2);
      DecodeStep(tables, r3, o3);
    }
  }
  return DecodeTail(tables, r0, o0, e0) && DecodeTail(tables, r1, o1, e1) &&
         DecodeTail(tables, r2, o2, e2) && DecodeTail(tables, r3, o3, e3);
}

}  // namespace

const Kernels kPortable = {"portable", MergeExp32Portable, MergeExp16Portable, Crc32cPortable};

#if defined(__x86_64__) || defined(__i386__)
const Kernels kAvx2 = {"avx2", MergeExp32Avx2, MergeExp16Avx2, Crc32cSse42};
#endif

const Kernels& Selected() {
#if defined(__x86_64__) || defined(__i386__)
  static const Kernels& kernels =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2") ? kAvx2 : kPortable;
  return kernels;
#else
  return kPortable;
#endif
}

uint32_t Crc32c(std::span<const uint8_t> bytes) {
  return Selected().crc32c(bytes.data(), bytes.size());
}

std::optional<std::vector<uint8_t>> Encode(BlobCodec codec, std::span<const uint8_t> decoded) {
  PRISM_CHECK(codec == BlobCodec::kExp32 || codec == BlobCodec::kExp16);
  const size_t width = ElementBytes(codec);
  if (decoded.empty() || decoded.size() % width != 0) {
    return std::nullopt;
  }
  const size_t n = decoded.size() / width;
  const size_t raw_width = width - 1;
  std::vector<uint8_t> symbols(n);
  std::vector<uint8_t> raw(n * raw_width);
  (codec == BlobCodec::kExp32 ? SplitExp32 : SplitExp16)(decoded.data(), n, symbols.data(),
                                                         raw.data());
  std::array<uint64_t, 256> freq{};
  for (const uint8_t s : symbols) {
    ++freq[s];
  }
  const Lengths lengths = CodeLengths(freq);
  const Codes codes = CanonicalCodes(lengths);

  const size_t blocks = (n + kBlockElements - 1) / kBlockElements;
  std::vector<uint8_t> out(kLengthTableBytes + 2 * blocks);
  for (size_t s = 0; s < 256; s += 2) {
    out[s / 2] = static_cast<uint8_t>(lengths[s] | (lengths[s + 1] << 4));
  }
  std::vector<uint8_t> block;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t first = b * kBlockElements;
    const size_t count = std::min(kBlockElements, n - first);
    block.assign(kBlockHeaderBytes, 0);
    for (size_t s = 0; s < kStreams; ++s) {
      const size_t stream_start = block.size();
      uint64_t acc = 0;
      unsigned pending = 0;
      for (size_t i = first + StreamBegin(count, s); i < first + StreamBegin(count, s + 1); ++i) {
        acc |= uint64_t{codes[symbols[i]]} << pending;
        pending += lengths[symbols[i]];
        for (; pending >= 8; pending -= 8, acc >>= 8) {
          block.push_back(static_cast<uint8_t>(acc));
        }
      }
      if (pending > 0) {
        block.push_back(static_cast<uint8_t>(acc));
      }
      if (s + 1 < kStreams) {
        StoreU16(block.data() + 2 * s, block.size() - stream_start);
      }
    }
    block.insert(block.end(), raw.begin() + static_cast<ptrdiff_t>(first * raw_width),
                 raw.begin() + static_cast<ptrdiff_t>((first + count) * raw_width));
    const size_t decoded_bytes = count * width;
    if (block.size() >= decoded_bytes) {
      // Would not shrink: store the block verbatim.
      const auto at = decoded.begin() + static_cast<ptrdiff_t>(first * width);
      block.assign(at, at + static_cast<ptrdiff_t>(decoded_bytes));
    }
    StoreU16(out.data() + kLengthTableBytes + 2 * b, block.size());
    out.insert(out.end(), block.begin(), block.end());
  }
  if (out.size() >= decoded.size()) {
    return std::nullopt;
  }
  return out;
}

Status DecodeInPlace(BlobCodec codec, std::span<uint8_t> buf, size_t stored_bytes,
                     const Kernels& kernels) {
  PRISM_CHECK(codec == BlobCodec::kExp32 || codec == BlobCodec::kExp16);
  const size_t width = ElementBytes(codec);
  const size_t raw_width = width - 1;
  const size_t n = buf.size() / width;
  const size_t blocks = (n + kBlockElements - 1) / kBlockElements;
  const size_t header = kLengthTableBytes + 2 * blocks;
  if (buf.size() % width != 0 || stored_bytes > buf.size() || stored_bytes < header) {
    return Status::DataLoss("coded blob of " + std::to_string(stored_bytes) +
                            " stored bytes cannot decode to " + std::to_string(buf.size()));
  }
  uint8_t* const base = buf.data();
  size_t read = buf.size() - stored_bytes;

  // Everything in the header is parsed before the first write: block 0's
  // output may cover it.
  Tables tables;
  PRISM_RETURN_IF_ERROR(BuildTables(base + read, &tables));
  std::vector<uint16_t> block_bytes(blocks);
  size_t total = header;
  for (size_t b = 0; b < blocks; ++b) {
    block_bytes[b] = LoadU16(base + read + kLengthTableBytes + 2 * b);
    const size_t count = std::min(kBlockElements, n - b * kBlockElements);
    if (block_bytes[b] > count * width) {
      return Status::DataLoss("block " + std::to_string(b) + " stores more than it decodes to");
    }
    total += block_bytes[b];
  }
  if (total != stored_bytes) {
    return Status::DataLoss("block table sums to " + std::to_string(total) + " bytes, blob has " +
                            std::to_string(stored_bytes));
  }
  read += header;

  const auto merge = codec == BlobCodec::kExp32 ? kernels.merge_exp32 : kernels.merge_exp16;
  std::array<uint8_t, kBlockElements> symbols;
  size_t write = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t count = std::min(kBlockElements, n - b * kBlockElements);
    const size_t decoded_bytes = count * width;
    const size_t stored = block_bytes[b];
    if (stored == decoded_bytes) {
      std::memmove(base + write, base + read, decoded_bytes);
    } else {
      const size_t raw_bytes = count * raw_width;
      if (stored < kBlockHeaderBytes + raw_bytes) {
        return Status::DataLoss("block " + std::to_string(b) + " is shorter than its raw plane");
      }
      const uint8_t* const in = base + read;
      const size_t stream_bytes = stored - kBlockHeaderBytes - raw_bytes;
      std::array<BitReader, kStreams> streams;
      size_t offset = kBlockHeaderBytes;
      for (size_t s = 0; s < kStreams; ++s) {
        const size_t used = offset - kBlockHeaderBytes;
        const size_t len = s + 1 < kStreams ? LoadU16(in + 2 * s) : stream_bytes - used;
        if (used + len > stream_bytes) {
          return Status::DataLoss("block " + std::to_string(b) + "'s streams overrun the block");
        }
        streams[s].data = in + offset;
        streams[s].size = len;
        streams[s].readable = buf.size() - (read + offset);
        offset += len;
      }
      if (!DecodeStreams(streams, symbols.data(), count, tables)) {
        return Status::DataLoss("block " + std::to_string(b) + "'s bitstream is corrupt");
      }
      merge(symbols.data(), in + kBlockHeaderBytes + stream_bytes, count, base + write);
    }
    read += stored;
    write += decoded_bytes;
  }
  return Status::Ok();
}

}  // namespace prism::blob_codec
