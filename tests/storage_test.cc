#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/model/synthetic.h"
#include "src/model/weights.h"
#include "src/storage/blob_codec.h"
#include "src/storage/blob_file.h"
#include "src/storage/hidden_spill.h"
#include "src/storage/layer_streamer.h"
#include "src/storage/ssd.h"

namespace prism {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> bytes(n);
  Rng rng(seed);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return bytes;
}

class TempFile {
 public:
  explicit TempFile(const char* tag) : path_(MakeTempDevicePath(tag)) {}
  ~TempFile() { ::unlink(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SsdConfig Unthrottled() {
  SsdConfig config;
  config.throttle = false;
  return config;
}

TEST(SsdTest, WriteReadRoundTrip) {
  TempFile file("ssd_rt");
  SimulatedSsd ssd(file.path(), Unthrottled());
  const std::vector<uint8_t> data = RandomBytes(4096, 1);
  ASSERT_TRUE(ssd.Write(100, data).ok());
  std::vector<uint8_t> back(4096);
  ASSERT_TRUE(ssd.Read(100, back).ok());
  EXPECT_EQ(data, back);
}

TEST(SsdTest, AppendReturnsSequentialOffsets) {
  TempFile file("ssd_append");
  SimulatedSsd ssd(file.path(), Unthrottled());
  const auto a = ssd.Append(RandomBytes(128, 2));
  const auto b = ssd.Append(RandomBytes(64, 3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), 0);
  EXPECT_EQ(b.value(), 128);
  EXPECT_EQ(ssd.SizeBytes(), 192);
}

TEST(SsdTest, ReadPastEndFails) {
  TempFile file("ssd_eof");
  SimulatedSsd ssd(file.path(), Unthrottled());
  ASSERT_TRUE(ssd.Write(0, RandomBytes(10, 4)).ok());
  std::vector<uint8_t> buf(100);
  EXPECT_FALSE(ssd.Read(50, buf).ok());
}

TEST(SsdTest, ThrottleEnforcesBandwidth) {
  TempFile file("ssd_bw");
  SsdConfig config;
  config.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;  // 1 MiB/s
  config.latency_micros = 0;
  SimulatedSsd ssd(file.path(), config);
  const std::vector<uint8_t> data = RandomBytes(256 * 1024, 5);  // 0.25 MiB → ≥ 250 ms
  const WallTimer timer;
  ASSERT_TRUE(ssd.Write(0, data).ok());
  EXPECT_GE(timer.ElapsedMicros(), 200000);
}

// A lone read spanning many 64 KiB chunks still costs latency + bytes /
// bandwidth: chunking neither adds latency per chunk nor charges oversleep.
TEST(SsdTest, ThrottleEnforcesBandwidthForMultiChunkRead) {
  TempFile file("ssd_bw_chunks");
  const std::vector<uint8_t> data = RandomBytes(256 * 1024, 15);
  ASSERT_TRUE(SimulatedSsd(file.path(), Unthrottled()).Write(0, data).ok());
  SsdConfig config;
  config.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  config.latency_micros = 2000;
  SimulatedSsd ssd(file.path(), config);
  std::vector<uint8_t> back(data.size());
  const WallTimer timer;
  ASSERT_TRUE(ssd.Read(0, back).ok());
  const int64_t elapsed = timer.ElapsedMicros();
  EXPECT_EQ(back, data);
  EXPECT_EQ(ssd.stats().busy_micros, 2000 + 250000);
  EXPECT_GE(elapsed, 2000 + 250000 - 1000);
  EXPECT_LT(elapsed, 2000 + 250000 + 100000);
}

// The queue is shared per chunk: a 4 KiB read issued while a 1 MiB read is
// in flight waits for at most one of its chunks, not the rest of it.
TEST(SsdTest, SmallReadDuringLargeReadWaitsAtMostOneChunk) {
  TempFile file("ssd_interleave");
  const std::vector<uint8_t> data = RandomBytes(1024 * 1024 + 4096, 16);
  ASSERT_TRUE(SimulatedSsd(file.path(), Unthrottled()).Write(0, data).ok());
  SsdConfig config;
  config.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  config.latency_micros = 1000;
  SimulatedSsd ssd(file.path(), config);
  std::vector<uint8_t> big(1024 * 1024);
  std::thread large([&] { EXPECT_TRUE(ssd.Read(0, big).ok()); });
  while (ssd.stats().busy_micros == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::vector<uint8_t> small(4096);
  const WallTimer timer;
  // EXPECT, not ASSERT: an early return would leave `large` unjoined.
  EXPECT_TRUE(ssd.Read(1024 * 1024, small).ok());
  const int64_t elapsed = timer.ElapsedMicros();
  large.join();
  EXPECT_TRUE(std::equal(small.begin(), small.end(), data.begin() + 1024 * 1024));
  EXPECT_TRUE(std::equal(big.begin(), big.end(), data.begin()));
  // One chunk of the large read (62.5 ms + its latency) plus its own
  // latency and 3.9 ms, with room for the host; the tail of the large read
  // alone would be about 900 ms.
  EXPECT_LT(elapsed, 1000 + 62500 + 1000 + 3907 + 60000);
  // Both reads were charged in full.
  EXPECT_EQ(ssd.stats().busy_micros, 1000 + 1000000 + 1000 + 3906);
}

// A read whose cancel flag is already set stops at its first chunk boundary:
// nothing is charged or moved, and the device counts it as cancelled.
TEST(SsdTest, ReadCancelledBeforeItStartsChargesNothing) {
  TempFile file("ssd_cancel");
  ASSERT_TRUE(SimulatedSsd(file.path(), Unthrottled()).Write(0, RandomBytes(8192, 17)).ok());
  SsdConfig config;
  config.bandwidth_bytes_per_sec = 1.0 * 1024 * 1024;
  SimulatedSsd ssd(file.path(), config);
  const std::atomic<bool> cancel{true};
  std::vector<uint8_t> buf(8192);
  EXPECT_EQ(ssd.Read(0, buf, &cancel).code(), StatusCode::kCancelled);
  const SsdStats stats = ssd.stats();
  EXPECT_EQ(stats.busy_micros, 0);
  EXPECT_EQ(stats.bytes_read, 0);
  EXPECT_EQ(stats.read_requests, 0);
  EXPECT_EQ(stats.cancelled_reads, 1);
}

TEST(SsdTest, StatsAccumulate) {
  TempFile file("ssd_stats");
  SimulatedSsd ssd(file.path(), Unthrottled());
  ASSERT_TRUE(ssd.Write(0, RandomBytes(100, 6)).ok());
  std::vector<uint8_t> buf(50);
  ASSERT_TRUE(ssd.Read(0, buf).ok());
  const SsdStats stats = ssd.stats();
  EXPECT_EQ(stats.bytes_written, 100);
  EXPECT_EQ(stats.bytes_read, 50);
  EXPECT_EQ(stats.read_requests, 1);
}

TEST(BlobFileTest, RoundTripMultipleBlobs) {
  TempFile file("blob_rt");
  std::vector<std::vector<uint8_t>> blobs = {RandomBytes(100, 7), RandomBytes(5000, 8),
                                             RandomBytes(1, 9)};
  {
    BlobFileWriter writer(file.path());
    for (const auto& blob : blobs) {
      writer.AddBlob(blob);
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader.value()->blob_count(), 3u);
  for (size_t i = 0; i < blobs.size(); ++i) {
    ASSERT_EQ(reader.value()->BlobSize(i), static_cast<int64_t>(blobs[i].size()));
    std::vector<uint8_t> back(blobs[i].size());
    ASSERT_TRUE(reader.value()->ReadBlob(i, back).ok());
    EXPECT_EQ(back, blobs[i]);
  }
}

TEST(BlobFileTest, RangeReadWithinBlob) {
  TempFile file("blob_range");
  const std::vector<uint8_t> blob = RandomBytes(1000, 10);
  {
    BlobFileWriter writer(file.path());
    writer.AddBlob(blob);
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> back(100);
  const std::pair<int64_t, std::span<uint8_t>> range(250, back);
  ASSERT_TRUE(reader.value()->ReadBlobRanges(0, {&range, 1}).ok());
  EXPECT_TRUE(std::equal(back.begin(), back.end(), blob.begin() + 250));
}

TEST(BlobFileTest, RejectsGarbageFile) {
  TempFile file("blob_bad");
  {
    SimulatedSsd ssd(file.path(), Unthrottled());
    ASSERT_TRUE(ssd.Write(0, RandomBytes(64, 11)).ok());
  }
  const auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  EXPECT_FALSE(reader.ok());
}

// --- header and precision tags --------------------------------------------

void PutU32(std::vector<uint8_t>& buf, uint32_t v) {
  const size_t at = buf.size();
  buf.resize(at + 4);
  std::memcpy(buf.data() + at, &v, 4);
}

void PutU64(std::vector<uint8_t>& buf, uint64_t v) {
  const size_t at = buf.size();
  buf.resize(at + 8);
  std::memcpy(buf.data() + at, &v, 8);
}

TEST(BlobFileTest, RoundTripPreservesPrecisionTags) {
  TempFile file("blob_tags");
  const std::vector<uint8_t> untagged = RandomBytes(64, 40);
  const std::vector<uint8_t> tagged = RandomBytes(128, 41);
  {
    BlobFileWriter writer(file.path());
    writer.AddBlob(untagged);  // Default tag: fp32, group 0.
    writer.AddBlob(tagged, Precision::kInt8, 32);
    writer.AddBlob(tagged, Precision::kW4, 16);
    writer.AddBlob(tagged, Precision::kFp16, 0);
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->BlobPrecision(0), Precision::kFp32);
  EXPECT_EQ(reader.value()->BlobQuantGroup(0), 0u);
  EXPECT_EQ(reader.value()->BlobPrecision(1), Precision::kInt8);
  EXPECT_EQ(reader.value()->BlobQuantGroup(1), 32u);
  EXPECT_EQ(reader.value()->BlobPrecision(2), Precision::kW4);
  EXPECT_EQ(reader.value()->BlobQuantGroup(2), 16u);
  EXPECT_EQ(reader.value()->BlobPrecision(3), Precision::kFp16);
  std::vector<uint8_t> back(tagged.size());
  ASSERT_TRUE(reader.value()->ReadBlob(1, back).ok());
  EXPECT_EQ(back, tagged);
}

TEST(BlobFileTest, RejectsUnknownVersion) {
  // The untagged v1 and unchecked v2 formats, version 0 and a future one.
  // Room for a table follows, so only the version can fail.
  for (const uint32_t version : {0u, 1u, 2u, kBlobFileVersion + 1, 9u}) {
    SCOPED_TRACE(version);
    TempFile file("blob_version");
    std::vector<uint8_t> buf;
    PutU32(buf, kBlobFileMagic);
    PutU32(buf, version);
    PutU64(buf, 1);
    buf.resize(buf.size() + 64);
    {
      SimulatedSsd ssd(file.path(), Unthrottled());
      ASSERT_TRUE(ssd.Write(0, buf).ok());
    }
    const auto reader = BlobFileReader::Open(file.path(), Unthrottled());
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(BlobFileTest, RejectsTruncatedHeader) {
  TempFile file("blob_trunc");
  {
    SimulatedSsd ssd(file.path(), Unthrottled());
    std::vector<uint8_t> partial;
    PutU32(partial, kBlobFileMagic);
    PutU32(partial, kBlobFileVersion);  // Only 8 of the 16 header bytes.
    ASSERT_TRUE(ssd.Write(0, partial).ok());
  }
  EXPECT_FALSE(BlobFileReader::Open(file.path(), Unthrottled()).ok());
}

TEST(BlobFileTest, RejectsTruncatedEntryTable) {
  // Counts that claim more 40-byte entries than follow the header: an absent
  // table, one entry short, far more than the file holds, a count whose
  // table size wraps around 2^64, and the largest count there is. None may
  // size an allocation from the count.
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const struct {
    uint64_t count;
    size_t entries_present;
  } cases[] = {{4, 0}, {3, 2}, {uint64_t{1} << 40, 2}, {kMax / 40 + 1, 2}, {kMax, 2}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.count);
    TempFile file("blob_trunc_table");
    std::vector<uint8_t> buf;
    PutU32(buf, kBlobFileMagic);
    PutU32(buf, kBlobFileVersion);
    PutU64(buf, c.count);
    buf.resize(buf.size() + c.entries_present * 40);
    {
      SimulatedSsd ssd(file.path(), Unthrottled());
      ASSERT_TRUE(ssd.Write(0, buf).ok());
    }
    const auto reader = BlobFileReader::Open(file.path(), Unthrottled());
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  }
}

TEST(BlobFileTest, RejectsUnknownPrecisionTag) {
  TempFile file("blob_badtag");
  {
    BlobFileWriter writer(file.path());
    writer.AddBlob(RandomBytes(32, 44), Precision::kInt8, 16);
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    // Corrupt entry 0's precision column (header offset 16, entry field
    // offset 16 within the 40-byte entry).
    SimulatedSsd ssd(file.path(), Unthrottled());
    std::vector<uint8_t> tag;
    PutU32(tag, 7);
    ASSERT_TRUE(ssd.Write(16 + 16, tag).ok());
  }
  const auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

// --- exponent coding and checksums ----------------------------------------

// Every decode path this host can run: portable always, AVX2 (with the
// SSE4.2 CRC) where supported. A path the CPU lacks is logged, not silently
// dropped.
std::vector<const blob_codec::Kernels*> DecodePaths() {
  std::vector<const blob_codec::Kernels*> paths = {&blob_codec::kPortable};
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2")) {
    paths.push_back(&blob_codec::kAvx2);
  } else {
    std::cout << "[  SKIPPED ] avx2 decode path: CPU lacks AVX2 or SSE4.2\n";
  }
#endif
  return paths;
}

// `count` fp32 weights ~ N(0, 0.05²), one in eight replaced by a special bit
// pattern: ±0, subnormals, ±inf, quiet and signalling NaNs with payloads,
// the largest finite and smallest normal values.
std::vector<uint8_t> Fp32Blob(size_t count, uint64_t seed) {
  const uint32_t specials[] = {0x00000000u, 0x80000000u, 0x00000001u, 0x807FFFFFu, 0x00400000u,
                               0x7F800000u, 0xFF800000u, 0x7FC00000u, 0x7FC12345u, 0xFFBFFFFFu,
                               0x7F800001u, 0x7F7FFFFFu, 0x00800000u, 0x3F800000u};
  Rng rng(seed);
  std::vector<uint8_t> bytes(count * 4);
  for (size_t i = 0; i < count; ++i) {
    uint32_t bits = specials[rng.NextBelow(std::size(specials))];
    if (rng.NextBelow(8) != 0) {
      const float v = 0.05f * static_cast<float>(rng.NextGaussian());
      std::memcpy(&bits, &v, 4);
    }
    std::memcpy(bytes.data() + 4 * i, &bits, 4);
  }
  return bytes;
}

// The fp16 counterpart of Fp32Blob.
std::vector<uint8_t> Fp16Blob(size_t count, uint64_t seed) {
  const uint16_t specials[] = {0x0000, 0x8000, 0x0001, 0x83FF, 0x7C00, 0xFC00,
                               0x7E00, 0x7E01, 0xFD55, 0x7BFF, 0x0400};
  Rng rng(seed);
  std::vector<uint8_t> bytes(count * 2);
  for (size_t i = 0; i < count; ++i) {
    uint16_t bits = specials[rng.NextBelow(std::size(specials))];
    if (rng.NextBelow(8) != 0) {
      bits = Fp32ToFp16(0.05f * static_cast<float>(rng.NextGaussian()));
    }
    std::memcpy(bytes.data() + 2 * i, &bits, 2);
  }
  return bytes;
}

// Decodes `stored` in place, on `kernels`, in a `decoded_size` buffer whose
// every byte starts as 0xFF (a NaN in both widths), so an element the decoder
// fails to write shows.
Status DecodePoisoned(BlobCodec codec, const std::vector<uint8_t>& stored, size_t decoded_size,
                      const blob_codec::Kernels& kernels, std::vector<uint8_t>* out) {
  out->assign(decoded_size, 0xFF);
  std::copy(stored.begin(), stored.end(), out->end() - static_cast<ptrdiff_t>(stored.size()));
  return blob_codec::DecodeInPlace(codec, *out, stored.size(), kernels);
}

TEST(BlobCodecTest, RoundTripsOnEveryDecodePathBitForBit) {
  const size_t block = blob_codec::kBlockElements;
  struct Case {
    BlobCodec codec;
    std::vector<uint8_t> blob;
  };
  // Whole blocks, partial last blocks, and a one-element last block (which
  // cannot shrink, so it is stored verbatim inside a coded blob).
  std::vector<Case> cases;
  uint64_t seed = 300;
  for (const size_t n : {size_t{1000}, block, block + 1, 3 * block + 1000}) {
    cases.push_back({BlobCodec::kExp32, Fp32Blob(n, ++seed)});
  }
  for (const size_t n : {size_t{2000}, block, 2 * block + 17}) {
    cases.push_back({BlobCodec::kExp16, Fp16Blob(n, ++seed)});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "codec=" << static_cast<int>(c.codec)
                                      << " bytes=" << c.blob.size());
    const auto stored = blob_codec::Encode(c.codec, c.blob);
    ASSERT_TRUE(stored.has_value());
    EXPECT_LT(stored->size(), c.blob.size());
    for (const blob_codec::Kernels* kernels : DecodePaths()) {
      SCOPED_TRACE(kernels->name);
      std::vector<uint8_t> out;
      ASSERT_TRUE(DecodePoisoned(c.codec, *stored, c.blob.size(), *kernels, &out).ok());
      EXPECT_EQ(std::memcmp(out.data(), c.blob.data(), c.blob.size()), 0);
    }
  }
}

TEST(BlobCodecTest, SingleExponentBlobRoundTrips) {
  // Every value in [1, 2): one exponent, so the code has one used symbol.
  Rng rng(310);
  std::vector<uint8_t> blob(5000 * 4);
  for (size_t i = 0; i < 5000; ++i) {
    const uint32_t bits = 0x3F800000u | static_cast<uint32_t>(rng.NextBelow(1u << 23));
    std::memcpy(blob.data() + 4 * i, &bits, 4);
  }
  const auto stored = blob_codec::Encode(BlobCodec::kExp32, blob);
  ASSERT_TRUE(stored.has_value());
  EXPECT_LT(stored->size(), blob.size() * 8 / 10);  // 3 raw bytes + 1 bit per element.
  for (const blob_codec::Kernels* kernels : DecodePaths()) {
    SCOPED_TRACE(kernels->name);
    std::vector<uint8_t> out;
    ASSERT_TRUE(DecodePoisoned(BlobCodec::kExp32, *stored, blob.size(), *kernels, &out).ok());
    EXPECT_EQ(out, blob);
  }
}

TEST(BlobCodecTest, BlobsThatCannotShrinkStayRaw) {
  EXPECT_FALSE(blob_codec::Encode(BlobCodec::kExp32, Fp32Blob(1, 320)).has_value());
  EXPECT_FALSE(blob_codec::Encode(BlobCodec::kExp16, Fp16Blob(1, 321)).has_value());
  EXPECT_FALSE(blob_codec::Encode(BlobCodec::kExp32, RandomBytes(40001, 322)).has_value());
  EXPECT_FALSE(blob_codec::Encode(BlobCodec::kExp32, RandomBytes(40000, 323)).has_value());

  // Through the writer, a one-element float blob falls back to raw and
  // still round-trips.
  TempFile file("blob_one");
  const std::vector<uint8_t> one = Fp32Blob(1, 324);
  {
    BlobFileWriter writer(file.path());
    writer.AddBlob(one, Precision::kFp32, 0, BlobCodec::kExp32);
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->BlobCodecOf(0), BlobCodec::kRaw);
  std::vector<uint8_t> back(one.size());
  ASSERT_TRUE(reader.value()->ReadBlob(0, back).ok());
  EXPECT_EQ(back, one);
}

TEST(BlobCodecTest, Crc32cMatchesKnownAnswerOnEveryPath) {
  const std::string check = "123456789";
  const std::vector<uint8_t> bytes = RandomBytes(70001, 330);
  for (const blob_codec::Kernels* kernels : DecodePaths()) {
    SCOPED_TRACE(kernels->name);
    EXPECT_EQ(kernels->crc32c(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
              0xE3069283u);
    EXPECT_EQ(kernels->crc32c(bytes.data(), 0), 0u);
    // Lengths on and off the 8-byte word, at unaligned starts.
    for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{767}, size_t{768},
                           size_t{24577}, size_t{69993}}) {
      for (const size_t start : {size_t{0}, size_t{3}}) {
        EXPECT_EQ(kernels->crc32c(bytes.data() + start, n),
                  blob_codec::kPortable.crc32c(bytes.data() + start, n))
            << "n=" << n << " start=" << start;
      }
    }
  }
}

TEST(BlobCodecTest, MalformedInputReturnsDataLoss) {
  const std::vector<uint8_t> blob = Fp32Blob(3 * blob_codec::kBlockElements + 500, 340);
  const std::vector<uint8_t> stored = blob_codec::Encode(BlobCodec::kExp32, blob).value();
  std::vector<uint8_t> out;
  for (const blob_codec::Kernels* kernels : DecodePaths()) {
    SCOPED_TRACE(kernels->name);
    // A code length over 12 bits: byte 0 packs the lengths of symbols 0, 1.
    std::vector<uint8_t> bad = stored;
    bad[0] = 0xFF;
    EXPECT_EQ(DecodePoisoned(BlobCodec::kExp32, bad, blob.size(), *kernels, &out).code(),
              StatusCode::kDataLoss);
    // Lengths that are not a complete prefix code: drop the most common
    // exponent (0x7A, around 0.05) from the code.
    bad = stored;
    bad[0x7A / 2] &= 0xF0;
    EXPECT_EQ(DecodePoisoned(BlobCodec::kExp32, bad, blob.size(), *kernels, &out).code(),
              StatusCode::kDataLoss);
    // A truncated stored size no longer matches the block table.
    bad.assign(stored.begin() + 1, stored.end());
    EXPECT_EQ(DecodePoisoned(BlobCodec::kExp32, bad, blob.size(), *kernels, &out).code(),
              StatusCode::kDataLoss);
    // A block claiming more bytes than it decodes to.
    bad = stored;
    bad[128] = 0xFF;
    bad[129] = 0xFF;
    EXPECT_EQ(DecodePoisoned(BlobCodec::kExp32, bad, blob.size(), *kernels, &out).code(),
              StatusCode::kDataLoss);
  }
}

TEST(BlobCodecTest, MutatedInputNeverEscapesItsBuffer) {
  // Seeded single-byte corruptions anywhere in the stored bytes, run without
  // the CRC in front: each decode returns OK (wrong bytes, which the CRC
  // would have caught) or kDataLoss, and never touches memory outside the
  // buffer (the ASan lane checks that).
  struct Case {
    BlobCodec codec;
    std::vector<uint8_t> blob;
  };
  const Case cases[] = {{BlobCodec::kExp32, Fp32Blob(2 * blob_codec::kBlockElements + 9, 350)},
                        {BlobCodec::kExp16, Fp16Blob(blob_codec::kBlockElements + 700, 351)}};
  Rng rng(352);
  std::vector<uint8_t> out;
  for (const Case& c : cases) {
    const std::vector<uint8_t> stored = blob_codec::Encode(c.codec, c.blob).value();
    for (const blob_codec::Kernels* kernels : DecodePaths()) {
      for (int trial = 0; trial < 300; ++trial) {
        std::vector<uint8_t> bad = stored;
        // Half the trials hit the length and block tables, where a flip
        // changes the structure rather than one element.
        const size_t at = trial % 2 == 0 ? rng.NextBelow(128 + 8) : rng.NextBelow(bad.size());
        bad[at] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
        const Status status = DecodePoisoned(c.codec, bad, c.blob.size(), *kernels, &out);
        EXPECT_TRUE(status.ok() || status.code() == StatusCode::kDataLoss) << status.ToString();
      }
    }
  }
}

// v3 header (16 B) then one 40-byte entry: blob 0's stored bytes start at 56.
constexpr int64_t kV3OneBlobDataOffset = 16 + 40;

// Writes a v3 file holding one exponent-coded fp32 blob.
std::vector<uint8_t> WriteOneCodedBlob(const std::string& path) {
  const std::vector<uint8_t> blob = Fp32Blob(20000, 360);
  BlobFileWriter writer(path);
  writer.AddBlob(blob, Precision::kFp32, 0, BlobCodec::kExp32);
  EXPECT_TRUE(writer.Finish().ok());
  return blob;
}

TEST(BlobFileTest, V3ReadChecksAndDecodesStoredBytes) {
  TempFile file("blob_v3");
  const std::vector<uint8_t> blob = WriteOneCodedBlob(file.path());
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->BlobCodecOf(0), BlobCodec::kExp32);
  EXPECT_EQ(reader.value()->BlobSize(0), static_cast<int64_t>(blob.size()));
  const int64_t stored = reader.value()->BlobStoredSize(0);
  EXPECT_LT(stored, reader.value()->BlobSize(0) * 85 / 100);
  std::vector<uint8_t> back(blob.size(), 0xFF);
  ASSERT_TRUE(reader.value()->ReadBlob(0, back).ok());
  EXPECT_EQ(back, blob);
  // The device is charged the stored bytes, not the decoded ones.
  EXPECT_EQ(reader.value()->ssd().stats().bytes_read, stored);
}

TEST(BlobFileTest, V3CorruptionReturnsDataLoss) {
  TempFile file("blob_v3_bad");
  const std::vector<uint8_t> blob = WriteOneCodedBlob(file.path());
  const auto read_status = [&] {
    auto reader = BlobFileReader::Open(file.path(), Unthrottled());
    EXPECT_TRUE(reader.ok());
    std::vector<uint8_t> back(blob.size());
    return reader.value()->ReadBlob(0, back);
  };
  SimulatedSsd ssd(file.path(), Unthrottled());
  const auto patch = [&](int64_t offset, std::span<const uint8_t> bytes) {
    ASSERT_TRUE(ssd.Write(offset, bytes).ok());
  };
  std::vector<uint8_t> stored(static_cast<size_t>(ssd.SizeBytes() - kV3OneBlobDataOffset));
  ASSERT_TRUE(ssd.Read(kV3OneBlobDataOffset, stored).ok());

  // A flipped stored byte fails the checksum.
  const uint8_t flipped[] = {static_cast<uint8_t>(stored[5000] ^ 0x10)};
  patch(kV3OneBlobDataOffset + 5000, flipped);
  EXPECT_EQ(read_status().code(), StatusCode::kDataLoss);
  patch(kV3OneBlobDataOffset, stored);
  ASSERT_TRUE(read_status().ok());

  // A truncated stored size (entry field at 16 + 24) reads the wrong range.
  std::vector<uint8_t> size_field;
  PutU64(size_field, stored.size() - 1);
  patch(16 + 24, size_field);
  EXPECT_EQ(read_status().code(), StatusCode::kDataLoss);
  size_field.clear();
  PutU64(size_field, stored.size());
  patch(16 + 24, size_field);
  ASSERT_TRUE(read_status().ok());

  // A bad length table under a matching checksum (entry field at 16 + 36)
  // reaches the decoder, which rejects it.
  std::vector<uint8_t> bad = stored;
  bad[0] = 0xFF;
  patch(kV3OneBlobDataOffset, bad);
  std::vector<uint8_t> crc_field;
  PutU32(crc_field, blob_codec::Crc32c(bad));
  patch(16 + 36, crc_field);
  EXPECT_EQ(read_status().code(), StatusCode::kDataLoss);
}

TEST(BlobFileTest, GeneratedCheckpointsCodeFloatLayersOnly) {
  const ModelConfig config = TestModel();
  const struct {
    Precision precision;
    BlobCodec layer_codec;
  } tiers[] = {{Precision::kFp32, BlobCodec::kExp32},
               {Precision::kFp16, BlobCodec::kExp16},
               {Precision::kInt8, BlobCodec::kRaw},
               {Precision::kW4, BlobCodec::kRaw}};
  for (const auto& tier : tiers) {
    SCOPED_TRACE(PrecisionName(tier.precision));
    TempFile file("ckpt_codec");
    ASSERT_TRUE(GenerateCheckpoint(config, 7, file.path(), tier.precision).ok());
    auto reader = BlobFileReader::Open(file.path(), Unthrottled());
    ASSERT_TRUE(reader.ok());
    // The embedding table is read by row range, so it and the head stay raw.
    EXPECT_EQ(reader.value()->BlobCodecOf(EmbeddingBlobIndex()), BlobCodec::kRaw);
    EXPECT_EQ(reader.value()->BlobCodecOf(HeadBlobIndex(config)), BlobCodec::kRaw);
    for (size_t layer = 0; layer < config.n_layers; ++layer) {
      const size_t index = LayerBlobIndex(layer);
      EXPECT_EQ(reader.value()->BlobCodecOf(index), tier.layer_codec);
      EXPECT_EQ(reader.value()->BlobSize(index),
                static_cast<int64_t>(LayerBlobBytes(config, tier.precision)));
      std::vector<uint8_t> blob(static_cast<size_t>(reader.value()->BlobSize(index)));
      EXPECT_TRUE(reader.value()->ReadBlob(index, blob).ok());
    }
    EXPECT_TRUE(ValidateCheckpoint(*reader.value(), config, tier.precision).ok());
  }
}

// The crc32c column of TestModel()'s seed-7 checkpoint at every tier, one
// value per blob (embedding, four layers, head), read straight from the v3
// entry table. The CRC covers each blob's stored bytes, so these pin the
// weight generator, every tier's encoding and the layer codecs at once.
TEST(BlobFileTest, GeneratedCheckpointBytesArePinned) {
  const ModelConfig config = TestModel();
  const struct {
    Precision precision;
    std::vector<uint32_t> crc32c;
  } pins[] = {
      {Precision::kFp32,
       {0x6B20C603u, 0x12CF25BBu, 0x69F503C3u, 0x8B619FACu, 0x01858024u, 0xB781AD11u}},
      {Precision::kFp16,
       {0x6B20C603u, 0x49604A58u, 0x86B92036u, 0xD54854C1u, 0x427AD51Du, 0xB781AD11u}},
      {Precision::kInt8,
       {0x6B20C603u, 0xD7DDEE20u, 0xCAD7FC57u, 0x0B38F855u, 0x5EB2A018u, 0xB781AD11u}},
      {Precision::kW4,
       {0x6B20C603u, 0xC62394F1u, 0x025D1313u, 0x1DAB9471u, 0x7C63AA73u, 0xB781AD11u}},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(PrecisionName(pin.precision));
    TempFile file("ckpt_pin");
    ASSERT_TRUE(GenerateCheckpoint(config, 7, file.path(), pin.precision).ok());
    SimulatedSsd ssd(file.path(), Unthrottled());
    std::vector<uint32_t> column(pin.crc32c.size());
    for (size_t i = 0; i < column.size(); ++i) {
      // Entry i's crc32c sits 36 bytes into its 40-byte row after the
      // 16-byte header.
      uint8_t field[4];
      ASSERT_TRUE(ssd.Read(static_cast<int64_t>(16 + 40 * i + 36), field).ok());
      std::memcpy(&column[i], field, 4);
    }
    EXPECT_EQ(column, pin.crc32c);
  }
}

// --- checkpoint-level validation ------------------------------------------

// Builds a checkpoint-shaped blob file (embedding + n_layers + head) whose
// layer blobs have `layer_bytes` bytes and carry the given tag.
void WriteTaggedCheckpoint(const std::string& path, const ModelConfig& config,
                           size_t layer_bytes, Precision tag, uint32_t group) {
  BlobFileWriter writer(path);
  writer.AddBlob(RandomBytes(64, 50));  // Embedding stand-in (not validated).
  for (size_t layer = 0; layer < config.n_layers; ++layer) {
    writer.AddBlob(RandomBytes(layer_bytes, 51 + layer), tag, group);
  }
  writer.AddBlob(RandomBytes(config.HeadBlobBytes(), 60));
  ASSERT_TRUE(writer.Finish().ok());
}

TEST(CheckpointValidationTest, AcceptsMatchingPrecisionAndGroup) {
  const ModelConfig config = TestModel();
  TempFile file("ckpt_ok");
  WriteTaggedCheckpoint(file.path(), config, LayerBlobBytes(config, Precision::kInt8),
                        Precision::kInt8, static_cast<uint32_t>(config.quant_group));
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(ValidateCheckpoint(*reader.value(), config, Precision::kInt8).ok());
}

TEST(CheckpointValidationTest, RejectsTagDisagreeingWithByteSize) {
  // Layer blobs sized for fp32 but tagged int8: an engine configured for
  // int8 must refuse (byte size disagrees with the tag's layout), and one
  // configured for fp32 must refuse too (tag disagrees with configuration).
  const ModelConfig config = TestModel();
  TempFile file("ckpt_tagsize");
  WriteTaggedCheckpoint(file.path(), config, LayerBlobBytes(config, Precision::kFp32),
                        Precision::kInt8, static_cast<uint32_t>(config.quant_group));
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  const Status as_int8 = ValidateCheckpoint(*reader.value(), config, Precision::kInt8);
  ASSERT_FALSE(as_int8.ok());
  EXPECT_EQ(as_int8.code(), StatusCode::kInvalidArgument);
  const Status as_fp32 = ValidateCheckpoint(*reader.value(), config, Precision::kFp32);
  ASSERT_FALSE(as_fp32.ok());
  EXPECT_EQ(as_fp32.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointValidationTest, RejectsWrongQuantGroup) {
  const ModelConfig config = TestModel();
  TempFile file("ckpt_group");
  WriteTaggedCheckpoint(file.path(), config, LayerBlobBytes(config, Precision::kInt8),
                        Precision::kInt8, static_cast<uint32_t>(config.quant_group) * 2);
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(ValidateCheckpoint(*reader.value(), config, Precision::kInt8).ok());
}

TEST(CheckpointValidationTest, RejectsWrongBlobCount) {
  const ModelConfig config = TestModel();
  TempFile file("ckpt_count");
  {
    BlobFileWriter writer(file.path());
    writer.AddBlob(RandomBytes(64, 61));  // Embedding only, no layers/head.
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(ValidateCheckpoint(*reader.value(), config, Precision::kFp32).ok());
}

class StreamerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      blobs_.push_back(RandomBytes(2048 + static_cast<size_t>(i) * 17, 20 + i));
    }
    BlobFileWriter writer(file_.path());
    for (const auto& blob : blobs_) {
      writer.AddBlob(blob);
    }
    ASSERT_TRUE(writer.Finish().ok());
    auto reader = BlobFileReader::Open(file_.path(), Unthrottled());
    ASSERT_TRUE(reader.ok());
    reader_ = std::move(reader).value();
  }

  // Cancellation tests read a second file on a device slow enough (1 MiB/s:
  // one 64 KiB chunk is 62.5 ms, its blob 1 500 ms) that "stopped within a
  // chunk" and "ran to the end" are far apart. Blob 1 is the look-ahead read
  // that dies; blobs 0 and 2 are small live neighbours.
  static constexpr double kSlowBandwidth = 1.0 * 1024 * 1024;
  static constexpr int64_t kSlowLatencyMicros = 1000;
  static constexpr int64_t kSlowChunkMicros = 62500;  // 64 KiB at 1 MiB/s.

  void OpenSlowDevice() {
    for (size_t size : {4096u, 512u * 1024u, 8192u}) {
      slow_blobs_.push_back(RandomBytes(size, 70 + slow_blobs_.size()));
    }
    BlobFileWriter writer(slow_file_.path());
    for (const auto& blob : slow_blobs_) {
      writer.AddBlob(blob);
    }
    ASSERT_TRUE(writer.Finish().ok());
    SsdConfig config;
    config.bandwidth_bytes_per_sec = kSlowBandwidth;
    config.latency_micros = kSlowLatencyMicros;
    auto reader = BlobFileReader::Open(slow_file_.path(), config);
    ASSERT_TRUE(reader.ok());
    slow_reader_ = std::move(reader).value();
  }

  // What the slow device charges a whole read of blob `index`.
  int64_t ReadMicros(size_t index) const {
    return kSlowLatencyMicros +
           static_cast<int64_t>(static_cast<double>(slow_blobs_[index].size()) /
                                kSlowBandwidth * 1e6);
  }

  // Blocks until the prefetcher's read of blob 1 holds the device: its first
  // chunk is charged on top of blob 0's read.
  void AwaitDeadReadInFlight() const {
    while (slow_reader_->ssd().stats().busy_micros <= ReadMicros(0)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // Busy time the device spent on blob 1's cancelled read, given the whole
  // reads it also served (by blob index).
  int64_t DeadReadMicros(std::initializer_list<size_t> whole_reads) const {
    int64_t busy = slow_reader_->ssd().stats().busy_micros;
    for (size_t index : whole_reads) {
      busy -= ReadMicros(index);
    }
    return busy;
  }

  // A later reader of blob 1 (the next request's stream) gets its bytes intact.
  void ExpectNextStreamReadsBlobOne(MemoryTracker* tracker) {
    LayerStreamer next(slow_reader_.get(), {1}, 2, tracker);
    const auto bytes = next.Acquire(0);
    ASSERT_EQ(bytes.size(), slow_blobs_[1].size());
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), slow_blobs_[1].begin()));
    next.Release(0);
  }

  TempFile file_{"streamer"};
  std::vector<std::vector<uint8_t>> blobs_;
  std::unique_ptr<BlobFileReader> reader_;
  TempFile slow_file_{"streamer_slow"};
  std::vector<std::vector<uint8_t>> slow_blobs_;
  std::unique_ptr<BlobFileReader> slow_reader_;
};

TEST_F(StreamerTest, DeliversBlobsInOrder) {
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker);
  for (size_t i = 0; i < 6; ++i) {
    const auto bytes = streamer.Acquire(i);
    ASSERT_EQ(bytes.size(), blobs_[i].size());
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), blobs_[i].begin()));
    streamer.Release(i);
  }
  EXPECT_EQ(streamer.stats().blobs_loaded, 6);
}

TEST(StreamerCodecTest, PrefetchDeliversDecodedBytesOfCodedBlobs) {
  TempFile file("streamer_coded");
  std::vector<std::vector<uint8_t>> blobs;
  {
    BlobFileWriter writer(file.path());
    for (size_t i = 0; i < 4; ++i) {
      blobs.push_back(Fp32Blob(6000 + 333 * i, 380 + i));
      writer.AddBlob(blobs.back(), Precision::kFp32, 0, BlobCodec::kExp32);
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  int64_t decoded = 0;
  int64_t stored = 0;
  MemoryTracker tracker;
  {
    LayerStreamer streamer(reader.value().get(), {0, 1, 2, 3}, 2, &tracker);
    for (size_t i = 0; i < blobs.size(); ++i) {
      const auto bytes = streamer.Acquire(i);
      ASSERT_EQ(bytes.size(), blobs[i].size());
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), blobs[i].begin()));
      // The buffer is the decoded size: no staging copy beside it.
      EXPECT_LE(tracker.PeakBytes(MemCategory::kWeights),
                2 * static_cast<int64_t>(blobs.back().size()));
      streamer.Release(i);
      decoded += reader.value()->BlobSize(i);
      stored += reader.value()->BlobStoredSize(i);
    }
    // Streamed bytes keep their decoded meaning; the device saw stored bytes.
    EXPECT_EQ(streamer.stats().bytes_loaded, decoded);
  }
  EXPECT_EQ(reader.value()->ssd().stats().bytes_read, stored);
  EXPECT_LT(stored, decoded);
}

TEST_F(StreamerTest, AtMostTwoBlobsResident) {
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker);
  int64_t max_weights = 0;
  for (size_t i = 0; i < 6; ++i) {
    streamer.Acquire(i);
    max_weights = std::max(max_weights, tracker.PeakBytes(MemCategory::kWeights));
    streamer.Release(i);
  }
  // Peak must be bounded by the two largest blobs.
  int64_t two_largest = 0;
  std::vector<int64_t> sizes;
  for (const auto& blob : blobs_) {
    sizes.push_back(static_cast<int64_t>(blob.size()));
  }
  std::sort(sizes.rbegin(), sizes.rend());
  two_largest = sizes[0] + sizes[1];
  EXPECT_LE(max_weights, two_largest);
}

TEST_F(StreamerTest, CustomScheduleOrder) {
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {3, 1, 5}, 2, &tracker);
  const auto b3 = streamer.Acquire(0);
  EXPECT_TRUE(std::equal(b3.begin(), b3.end(), blobs_[3].begin()));
  streamer.Release(0);
  const auto b1 = streamer.Acquire(1);
  EXPECT_TRUE(std::equal(b1.begin(), b1.end(), blobs_[1].begin()));
  streamer.Release(1);
  const auto b5 = streamer.Acquire(2);
  EXPECT_TRUE(std::equal(b5.begin(), b5.end(), blobs_[5].begin()));
  streamer.Release(2);
}

TEST_F(StreamerTest, TruncateStopsPrefetch) {
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker);
  streamer.Acquire(0);
  streamer.TruncateSchedule(0);
  streamer.Release(0);
  // Destruction after truncation must not hang (checked by test completion);
  // at most the already-inflight blob 1 may have loaded.
  EXPECT_LE(streamer.stats().blobs_loaded, 2);
}

TEST_F(StreamerTest, CyclicDeliversWrapAroundOrder) {
  // Three full revolutions: position seq must deliver blob schedule[seq % 6].
  // The head (blob 0) is read once and serves every revolution's first
  // position; the other blobs are read once per revolution into the buffers
  // the previous revolution released.
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
  for (size_t seq = 0; seq < 18; ++seq) {
    const auto bytes = streamer.Acquire(seq);
    const auto& expected = blobs_[seq % 6];
    ASSERT_EQ(bytes.size(), expected.size()) << "seq " << seq;
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expected.begin())) << "seq " << seq;
    streamer.Release(seq);
  }
  // 1 head load + 15 other positions, plus at most the look-ahead into the
  // fourth revolution: its head position takes no window slot, so seq 19
  // and seq 20.
  const StreamerStats stats = streamer.stats();
  EXPECT_GE(stats.blobs_loaded, 1 + 15);
  EXPECT_LE(stats.blobs_loaded, 1 + 15 + 2);
  EXPECT_EQ(reader_->BlobReads(0), 1);
  for (size_t blob = 1; blob < 3; ++blob) {
    EXPECT_GE(reader_->BlobReads(blob), 3) << "blob " << blob;
    EXPECT_LE(reader_->BlobReads(blob), 4) << "blob " << blob;
  }
  for (size_t blob = 3; blob < 6; ++blob) {
    EXPECT_EQ(reader_->BlobReads(blob), 3) << "blob " << blob;
  }
}

TEST_F(StreamerTest, CyclicKeepsHeadPlusTwoBlobsResidentAcrossCycles) {
  // The Release-then-reuse discipline must hold across the wrap: two
  // revolutions never hold more than the pinned head plus the two largest
  // other blobs, and the head stays resident, Release included, until the
  // streamer is destroyed.
  MemoryTracker tracker;
  const auto head_bytes = static_cast<int64_t>(blobs_[0].size());
  {
    LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
    int64_t max_weights = 0;
    for (size_t seq = 0; seq < 12; ++seq) {
      streamer.Acquire(seq);
      max_weights = std::max(max_weights, tracker.PeakBytes(MemCategory::kWeights));
      streamer.Release(seq);
      EXPECT_GE(tracker.CurrentBytes(MemCategory::kWeights), head_bytes) << "seq " << seq;
    }
    std::vector<int64_t> others;
    for (size_t blob = 1; blob < blobs_.size(); ++blob) {
      others.push_back(static_cast<int64_t>(blobs_[blob].size()));
    }
    std::sort(others.rbegin(), others.rend());
    EXPECT_LE(max_weights, head_bytes + others[0] + others[1]);
    EXPECT_EQ(reader_->BlobReads(0), 1);
    streamer.TruncateSchedule(11);  // Walk over; stop the prefetcher fetching cycle 3.
  }
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
}

TEST_F(StreamerTest, CyclicTruncateMidCycleStopsPrefetch) {
  // TruncateSchedule caps the monotonic sequence space, so truncating at
  // seq 8 — layer 2 of the second revolution — behaves exactly like a
  // mid-schedule truncation: in-flight loads finish, nothing past the cap
  // starts, destruction does not hang.
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
  for (size_t seq = 0; seq <= 8; ++seq) {
    streamer.Acquire(seq);
    if (seq == 8) {
      streamer.TruncateSchedule(8);
    }
    streamer.Release(seq);
  }
  // Everything consumed plus at most buffer_count in-flight/prefetched.
  EXPECT_LE(streamer.stats().blobs_loaded, 8 + 1 + 2);
}

TEST_F(StreamerTest, CyclicSkipToRealignsAtNextCycle) {
  // A carousel that drains at layer 1 skips the rest of the cycle: SkipTo
  // the next boundary must discard the unconsumed positions (freeing their
  // buffers) and deliver the next cycle's layer 0 — the pinned head, not a
  // second read of it — and the rest of that cycle correctly.
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
  for (size_t seq = 0; seq < 2; ++seq) {
    const auto bytes = streamer.Acquire(seq);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), blobs_[seq].begin()));
    streamer.Release(seq);
  }
  streamer.SkipTo(6);
  for (size_t seq = 6; seq < 12; ++seq) {
    const auto bytes = streamer.Acquire(seq);
    const auto& expected = blobs_[seq % 6];
    ASSERT_EQ(bytes.size(), expected.size()) << "seq " << seq;
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expected.begin())) << "seq " << seq;
    streamer.Release(seq);
  }
  streamer.TruncateSchedule(11);
  // The head once, seq 1, seq 7..11; at most the look-ahead (seq 2 and 3)
  // of the skipped positions may have been fetched before the skip landed,
  // and at most seq 13 and 14 past the last release (seq 12 is a head
  // position and takes no window slot).
  const StreamerStats stats = streamer.stats();
  EXPECT_GE(stats.blobs_loaded, 1 + 1 + 5);
  EXPECT_LE(stats.blobs_loaded, 1 + 1 + 2 + 5 + 2);
  EXPECT_EQ(reader_->BlobReads(0), 1);
  // Skipped-but-fetched bytes are still accounted (they were real I/O): the
  // total covers at least every read a consumed position needed.
  int64_t consumed_bytes = 0;
  for (size_t seq : {0u, 1u, 7u, 8u, 9u, 10u, 11u}) {
    consumed_bytes += static_cast<int64_t>(blobs_[seq % 6].size());
  }
  EXPECT_GE(stats.bytes_loaded, consumed_bytes);
}

TEST_F(StreamerTest, CyclicHeadSurvivesSkipToAndIsNotReloaded) {
  // SkipTo keeps the pinned head, including a head load still in flight for
  // a position the skip discards: every later head position is served from
  // the one buffer, at the same address, and blob 0 is read once.
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
  streamer.SkipTo(6);  // Before anything is consumed; seq 0's load may be in flight.
  const auto first = streamer.Acquire(6);
  ASSERT_EQ(first.size(), blobs_[0].size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), blobs_[0].begin()));
  streamer.Release(6);
  for (size_t seq = 7; seq < 9; ++seq) {
    streamer.Acquire(seq);
    streamer.Release(seq);
  }
  streamer.SkipTo(12);  // An early wrap from the middle of a revolution.
  EXPECT_GE(tracker.CurrentBytes(MemCategory::kWeights),
            static_cast<int64_t>(blobs_[0].size()));
  const auto again = streamer.Acquire(12);
  EXPECT_EQ(again.data(), first.data());
  EXPECT_TRUE(std::equal(again.begin(), again.end(), blobs_[0].begin()));
  streamer.Release(12);
  const auto next = streamer.Acquire(13);
  EXPECT_TRUE(std::equal(next.begin(), next.end(), blobs_[1].begin()));
  streamer.Release(13);
  streamer.TruncateSchedule(13);
  EXPECT_EQ(reader_->BlobReads(0), 1);
}

TEST_F(StreamerTest, CyclicIdleBoundaryPrefetchesTwoLayersPastTheHead) {
  // A carousel idling at a boundary: nothing consumed, the release floor on a
  // head position. The head has a buffer of its own and takes no slot of the
  // look-ahead window, so the window holds the next two positions, blobs 1
  // and 2, and a request boarding there rides both without waiting on the
  // device. The resident set is the three blobs a running pass peaks at.
  SsdConfig config;
  config.bandwidth_bytes_per_sec = 64.0 * 1024;  // About 32 ms per blob.
  config.latency_micros = 1000;
  auto opened = BlobFileReader::Open(file_.path(), config);
  ASSERT_TRUE(opened.ok());
  BlobFileReader* reader = opened.value().get();
  const int64_t read_micros =
      config.latency_micros +
      static_cast<int64_t>(static_cast<double>(blobs_[2].size()) /
                           config.bandwidth_bytes_per_sec * 1e6);
  MemoryTracker tracker;
  LayerStreamer streamer(reader, {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
  streamer.SkipTo(6);  // Idle at the second revolution's boundary.
  const WallTimer timer;
  while (reader->BlobReads(2) == 0 && timer.ElapsedMicros() < 2000000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(reader->BlobReads(2), 1) << "blob 2 waits for the head position's release";
  EXPECT_EQ(reader->BlobReads(0), 1);
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights),
            static_cast<int64_t>(blobs_[0].size() + blobs_[1].size() + blobs_[2].size()));
  streamer.Acquire(6);
  streamer.Release(6);
  const int64_t stall_before = streamer.stats().stall_micros;
  for (size_t seq = 7; seq < 9; ++seq) {
    const auto bytes = streamer.Acquire(seq);
    ASSERT_EQ(bytes.size(), blobs_[seq % 6].size()) << "seq " << seq;
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), blobs_[seq % 6].begin())) << "seq " << seq;
    streamer.Release(seq);
  }
  // Warm: far less than one read (nothing, but for the moment between the
  // device counting blob 2's read and the prefetcher marking it ready).
  EXPECT_LT(streamer.stats().stall_micros - stall_before, read_micros / 4);
  EXPECT_EQ(reader->BlobReads(1), 1);
  EXPECT_EQ(reader->BlobReads(2), 1);
  streamer.TruncateSchedule(8);
}

TEST_F(StreamerTest, CyclicOneBlobScheduleServesEveryPositionFromTheHead) {
  // Every position of a one-blob cyclic schedule is a head position. The
  // look-ahead window stays finite all the same (the prefetcher steps over
  // the head positions inside it and then waits, rather than walking its
  // position towards SIZE_MAX under the lock), every position is served from
  // the one head buffer, the blob is read once, and destruction returns.
  MemoryTracker tracker;
  {
    LayerStreamer streamer(reader_.get(), {3}, 2, &tracker, /*cyclic=*/true);
    const uint8_t* head = nullptr;
    for (size_t seq = 0; seq < 6; ++seq) {
      const auto bytes = streamer.Acquire(seq);
      head = seq == 0 ? bytes.data() : head;
      EXPECT_EQ(bytes.data(), head) << "seq " << seq;
      ASSERT_EQ(bytes.size(), blobs_[3].size()) << "seq " << seq;
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), blobs_[3].begin())) << "seq " << seq;
      streamer.Release(seq);
    }
    EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights),
              static_cast<int64_t>(blobs_[3].size()));
    EXPECT_EQ(streamer.stats().blobs_loaded, 1);
  }
  EXPECT_EQ(reader_->BlobReads(3), 1);
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
}

TEST_F(StreamerTest, StallAccountingIsMonotonic) {
  // Snapshots taken between acquires must never decrease: stall, bytes, and
  // blob counters only accumulate.
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
  StreamerStats last = streamer.stats();
  for (size_t seq = 0; seq < 12; ++seq) {
    streamer.Acquire(seq);
    streamer.Release(seq);
    const StreamerStats now = streamer.stats();
    EXPECT_GE(now.stall_micros, last.stall_micros) << "seq " << seq;
    EXPECT_GE(now.bytes_loaded, last.bytes_loaded) << "seq " << seq;
    EXPECT_GE(now.blobs_loaded, last.blobs_loaded) << "seq " << seq;
    last = now;
  }
  streamer.TruncateSchedule(11);
}

TEST_F(StreamerTest, SkipToCancelsInFlightReadWithinOneChunk) {
  ASSERT_NO_FATAL_FAILURE(OpenSlowDevice());
  MemoryTracker tracker;
  {
    LayerStreamer streamer(slow_reader_.get(), {0, 1, 2}, 2, &tracker);
    streamer.Acquire(0);
    AwaitDeadReadInFlight();
    streamer.Release(0);
    streamer.SkipTo(2);
    const auto bytes = streamer.Acquire(2);
    ASSERT_EQ(bytes.size(), slow_blobs_[2].size());
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), slow_blobs_[2].begin()));
    streamer.Release(2);
    // The cancelled buffer is gone while the stream lives.
    EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
    EXPECT_EQ(streamer.stats().blobs_loaded, 2);
  }
  EXPECT_LE(DeadReadMicros({0, 2}), kSlowLatencyMicros + kSlowChunkMicros);
  const SsdStats stats = slow_reader_->ssd().stats();
  EXPECT_EQ(stats.cancelled_reads, 1);
  EXPECT_EQ(stats.read_requests, 2);
  EXPECT_EQ(slow_reader_->BlobReads(1), 0);  // Completed reads only.
  // The cancelled read moved whole chunks, fewer than the blob holds.
  const int64_t dead_bytes = stats.bytes_read - static_cast<int64_t>(slow_blobs_[0].size()) -
                             static_cast<int64_t>(slow_blobs_[2].size());
  EXPECT_GT(dead_bytes, 0);
  EXPECT_LT(dead_bytes, static_cast<int64_t>(slow_blobs_[1].size()));
  EXPECT_EQ(dead_bytes % (64 * 1024), 0);
}

TEST_F(StreamerTest, TruncateScheduleCancelsInFlightReadWithinOneChunk) {
  ASSERT_NO_FATAL_FAILURE(OpenSlowDevice());
  MemoryTracker tracker;
  {
    LayerStreamer streamer(slow_reader_.get(), {0, 1, 2}, 2, &tracker);
    streamer.Acquire(0);
    AwaitDeadReadInFlight();
    streamer.TruncateSchedule(0);
    streamer.Release(0);
    // The cut-off read stops and frees its buffer while the stream lives;
    // run to the end it would take 500 ms and stay resident.
    const WallTimer timer;
    while (tracker.CurrentBytes(MemCategory::kWeights) != 0 && timer.ElapsedMicros() < 400000) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
  }
  ExpectNextStreamReadsBlobOne(&tracker);
  EXPECT_LE(DeadReadMicros({0, 1}), kSlowLatencyMicros + kSlowChunkMicros);
  EXPECT_EQ(slow_reader_->ssd().stats().cancelled_reads, 1);
  EXPECT_EQ(slow_reader_->BlobReads(1), 1);
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
}

TEST_F(StreamerTest, DestructorCancelsInFlightReadWithinOneChunk) {
  ASSERT_NO_FATAL_FAILURE(OpenSlowDevice());
  MemoryTracker tracker;
  auto streamer = std::make_unique<LayerStreamer>(slow_reader_.get(),
                                                  std::vector<size_t>{0, 1, 2}, 2, &tracker);
  streamer->Acquire(0);
  AwaitDeadReadInFlight();
  streamer->Release(0);
  const WallTimer timer;
  streamer.reset();
  const int64_t destroy_micros = timer.ElapsedMicros();
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
  EXPECT_LT(destroy_micros, 250000);  // The whole read would hold it ~500 ms.
  ExpectNextStreamReadsBlobOne(&tracker);
  EXPECT_LE(DeadReadMicros({0, 1}), kSlowLatencyMicros + kSlowChunkMicros);
  EXPECT_EQ(slow_reader_->ssd().stats().cancelled_reads, 1);
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
}

TEST(SpillPoolTest, SpillTakeRoundTrip) {
  MemoryTracker tracker;
  SpillPool pool(Unthrottled(), &tracker);
  Tensor t(4, 8, MemCategory::kHiddenStates, &tracker);
  Rng rng(30);
  for (float& v : t.flat()) {
    v = static_cast<float>(rng.NextGaussian());
  }
  const Tensor copy = t.Clone(MemCategory::kScratch, &tracker);
  pool.SpillAsync(7, std::move(t));
  Tensor back = pool.Take(7);
  ASSERT_EQ(back.rows(), 4u);
  ASSERT_EQ(back.cols(), 8u);
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.flat()[i], copy.flat()[i]);
  }
}

TEST(SpillPoolTest, PrefetchThenTake) {
  MemoryTracker tracker;
  SpillPool pool(Unthrottled(), &tracker);
  Tensor t(2, 16, MemCategory::kHiddenStates, &tracker);
  t.Fill(3.25f);
  pool.SpillAsync(1, std::move(t));
  pool.PrefetchAsync(1);
  Tensor back = pool.Take(1);
  EXPECT_EQ(back.at(1, 15), 3.25f);
}

TEST(SpillPoolTest, SpilledTensorFreesMemory) {
  MemoryTracker tracker;
  SpillPool pool(Unthrottled(), &tracker);
  {
    Tensor t(64, 64, MemCategory::kHiddenStates, &tracker);
    pool.SpillAsync(2, std::move(t));
  }
  // After the spill completes, the hidden-state bytes must be released.
  Tensor back = pool.Take(2);  // Forces the spill to have completed.
  back = Tensor();             // Drop it.
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kHiddenStates), 0);
}

TEST(SpillPoolTest, RespillSameKeyOverwrites) {
  MemoryTracker tracker;
  SpillPool pool(Unthrottled(), &tracker);
  Tensor a(1, 4, MemCategory::kHiddenStates, &tracker);
  const auto tensor_bytes = static_cast<int64_t>(a.ByteSize());
  a.Fill(1.0f);
  pool.SpillAsync(5, std::move(a));
  Tensor first = pool.Take(5);
  EXPECT_EQ(first.at(0, 0), 1.0f);
  Tensor b(1, 4, MemCategory::kHiddenStates, &tracker);
  b.Fill(2.0f);
  pool.SpillAsync(5, std::move(b));
  Tensor second = pool.Take(5);
  EXPECT_EQ(second.at(0, 0), 2.0f);

  // A taken (or re-spilled) entry's extent is reused: the file holds one
  // tensor however many cycles run.
  for (int cycle = 0; cycle < 10; ++cycle) {
    Tensor c(1, 4, MemCategory::kHiddenStates, &tracker);
    c.Fill(static_cast<float>(cycle));
    pool.SpillAsync(5, std::move(c));
    if (cycle % 2 == 0) {
      Tensor d(1, 4, MemCategory::kHiddenStates, &tracker);
      d.Fill(-1.0f);
      pool.SpillAsync(5, std::move(d));  // Respill before the take.
      EXPECT_EQ(pool.Take(5).at(0, 0), -1.0f);
    } else {
      EXPECT_EQ(pool.Take(5).at(0, 0), static_cast<float>(cycle));
    }
    EXPECT_EQ(pool.bytes_on_disk(), tensor_bytes) << "cycle " << cycle;
  }
}


TEST(SpillPoolTest, DropReleasesEntryWithoutReadback) {
  MemoryTracker tracker;
  SpillPool pool(Unthrottled(), &tracker);
  Tensor t(8, 8, MemCategory::kHiddenStates, &tracker);
  t.Fill(4.0f);
  pool.SpillAsync(3, std::move(t));
  pool.PrefetchAsync(3);
  pool.Drop(3);  // Entry gone, prefetched tensor's claim released.
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kHiddenStates), 0);
  pool.Drop(3);  // Absent key: no-op.
  // The key is free for reuse.
  Tensor u(1, 8, MemCategory::kHiddenStates, &tracker);
  u.Fill(9.0f);
  pool.SpillAsync(3, std::move(u));
  EXPECT_EQ(pool.Take(3).at(0, 0), 9.0f);
}

TEST(SpillPoolTest, ConcurrentDisjointKeysRoundTrip) {
  // Requests in flight through the engine share one pool under disjoint
  // (namespaced) keys; spills/prefetches/takes from several threads must
  // round-trip exactly (TSan validates the locking discipline).
  MemoryTracker tracker;
  SpillPool pool(Unthrottled(), &tracker);
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 8;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (size_t r = 0; r < kRounds; ++r) {
        const int64_t key = static_cast<int64_t>(w * kRounds + r);
        Tensor t(2, 4, MemCategory::kHiddenStates, &tracker);
        t.Fill(static_cast<float>(key));
        pool.SpillAsync(key, std::move(t));
        if (r % 2 == 0) {
          pool.PrefetchAsync(key);
        }
        Tensor back = pool.Take(key);
        EXPECT_EQ(back.at(1, 3), static_cast<float>(key));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kHiddenStates), 0);
}

TEST(SsdTest, ScatteredReadReturnsDataAndChargesOnce) {
  TempFile file("ssd_scatter");
  SimulatedSsd ssd(file.path(), Unthrottled());
  const std::vector<uint8_t> data = RandomBytes(1024, 12);
  ASSERT_TRUE(ssd.Write(0, data).ok());
  std::vector<uint8_t> a(64);
  std::vector<uint8_t> b(32);
  std::vector<std::pair<int64_t, std::span<uint8_t>>> requests = {
      {100, std::span<uint8_t>(a)}, {700, std::span<uint8_t>(b)}};
  const int64_t reads_before = ssd.stats().read_requests;
  ASSERT_TRUE(ssd.ReadScattered(requests).ok());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), data.begin() + 100));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), data.begin() + 700));
  // One queued submission: the device counts a single request.
  EXPECT_EQ(ssd.stats().read_requests, reads_before + 1);
}

TEST(BlobFileTest, ScatteredRangesWithinBlob) {
  TempFile file("blob_scatter");
  const std::vector<uint8_t> blob = RandomBytes(2000, 13);
  {
    BlobFileWriter writer(file.path());
    writer.AddBlob(RandomBytes(100, 14));  // Blob 0: offset shift.
    writer.AddBlob(blob);                  // Blob 1: target.
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> a(16);
  std::vector<uint8_t> b(24);
  std::vector<std::pair<int64_t, std::span<uint8_t>>> ranges = {
      {10, std::span<uint8_t>(a)}, {1500, std::span<uint8_t>(b)}};
  ASSERT_TRUE(reader.value()->ReadBlobRanges(1, ranges).ok());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), blob.begin() + 10));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), blob.begin() + 1500));
}

}  // namespace
}  // namespace prism
