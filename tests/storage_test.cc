#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/model/weights.h"
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
  ASSERT_TRUE(reader.value()->ReadBlobRange(0, 250, back).ok());
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

// --- v2 precision tags ----------------------------------------------------

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

TEST(BlobFileTest, V2RoundTripPreservesPrecisionTags) {
  TempFile file("blob_v2");
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
  EXPECT_EQ(reader.value()->version(), kBlobFileVersion);
  EXPECT_TRUE(reader.value()->has_precision_tags());
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

// Hand-writes a format-v1 file: [magic][version=1][count] then 16-byte
// {offset, size} entries — no precision column.
void WriteV1File(const std::string& path, const std::vector<std::vector<uint8_t>>& blobs) {
  std::vector<uint8_t> buf;
  PutU32(buf, kBlobFileMagic);
  PutU32(buf, kBlobFileVersionLegacy);
  PutU64(buf, blobs.size());
  const size_t header = 16 + blobs.size() * 16;
  uint64_t offset = header;
  for (const auto& blob : blobs) {
    PutU64(buf, offset);
    PutU64(buf, blob.size());
    offset += blob.size();
  }
  for (const auto& blob : blobs) {
    buf.insert(buf.end(), blob.begin(), blob.end());
  }
  SimulatedSsd ssd(path, Unthrottled());
  ASSERT_TRUE(ssd.Write(0, buf).ok());
}

TEST(BlobFileTest, OpensLegacyV1Files) {
  TempFile file("blob_v1");
  const std::vector<std::vector<uint8_t>> blobs = {RandomBytes(48, 42), RandomBytes(200, 43)};
  WriteV1File(file.path(), blobs);
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->version(), kBlobFileVersionLegacy);
  EXPECT_FALSE(reader.value()->has_precision_tags());
  ASSERT_EQ(reader.value()->blob_count(), 2u);
  for (size_t i = 0; i < blobs.size(); ++i) {
    // Untagged blobs report the fp32 default.
    EXPECT_EQ(reader.value()->BlobPrecision(i), Precision::kFp32);
    EXPECT_EQ(reader.value()->BlobQuantGroup(i), 0u);
    std::vector<uint8_t> back(blobs[i].size());
    ASSERT_TRUE(reader.value()->ReadBlob(i, back).ok());
    EXPECT_EQ(back, blobs[i]);
  }
}

TEST(BlobFileTest, RejectsUnknownVersion) {
  TempFile file("blob_v9");
  std::vector<uint8_t> buf;
  PutU32(buf, kBlobFileMagic);
  PutU32(buf, 9);  // Future version.
  PutU64(buf, 0);
  {
    SimulatedSsd ssd(file.path(), Unthrottled());
    ASSERT_TRUE(ssd.Write(0, buf).ok());
  }
  const auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
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
  TempFile file("blob_trunc_table");
  std::vector<uint8_t> buf;
  PutU32(buf, kBlobFileMagic);
  PutU32(buf, kBlobFileVersion);
  PutU64(buf, 4);  // Claims four entries; the table is absent.
  {
    SimulatedSsd ssd(file.path(), Unthrottled());
    ASSERT_TRUE(ssd.Write(0, buf).ok());
  }
  EXPECT_FALSE(BlobFileReader::Open(file.path(), Unthrottled()).ok());
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
    // offset 16 within the 24-byte v2 entry).
    SimulatedSsd ssd(file.path(), Unthrottled());
    std::vector<uint8_t> tag;
    PutU32(tag, 7);
    ASSERT_TRUE(ssd.Write(16 + 16, tag).ok());
  }
  const auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
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

TEST(CheckpointValidationTest, LegacyV1CheckpointValidatesAsFp32) {
  // v1 files carry no tags; size is the only check, so an fp32-shaped legacy
  // checkpoint still opens — the back-compat contract.
  const ModelConfig config = TestModel();
  TempFile file("ckpt_v1");
  std::vector<std::vector<uint8_t>> blobs;
  blobs.push_back(RandomBytes(64, 62));
  for (size_t layer = 0; layer < config.n_layers; ++layer) {
    blobs.push_back(RandomBytes(LayerBlobBytes(config, Precision::kFp32), 63 + layer));
  }
  blobs.push_back(RandomBytes(config.HeadBlobBytes(), 70));
  WriteV1File(file.path(), blobs);
  auto reader = BlobFileReader::Open(file.path(), Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(ValidateCheckpoint(*reader.value(), config, Precision::kFp32).ok());
  // A reduced-precision engine cannot use it: the blob sizes are fp32-shaped.
  EXPECT_FALSE(ValidateCheckpoint(*reader.value(), config, Precision::kInt8).ok());
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

  TempFile file_{"streamer"};
  std::vector<std::vector<uint8_t>> blobs_;
  std::unique_ptr<BlobFileReader> reader_;
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
  // Three full revolutions: position seq must deliver blob schedule[seq % 6],
  // and buffers released in one cycle are reused by the next.
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
  for (size_t seq = 0; seq < 18; ++seq) {
    const auto bytes = streamer.Acquire(seq);
    const auto& expected = blobs_[seq % 6];
    ASSERT_EQ(bytes.size(), expected.size()) << "seq " << seq;
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expected.begin())) << "seq " << seq;
    streamer.Release(seq);
  }
  // Each of the 18 positions loaded exactly once, plus at most the
  // prefetcher's look-ahead (2 buffers) into the fourth revolution.
  const StreamerStats stats = streamer.stats();
  EXPECT_GE(stats.blobs_loaded, 18);
  EXPECT_LE(stats.blobs_loaded, 18 + 2);
}

TEST_F(StreamerTest, CyclicKeepsAtMostTwoBlobsResidentAcrossCycles) {
  // The Release-then-reuse discipline must hold across the wrap: two
  // revolutions never hold more than the two largest blobs at once.
  MemoryTracker tracker;
  LayerStreamer streamer(reader_.get(), {0, 1, 2, 3, 4, 5}, 2, &tracker, /*cyclic=*/true);
  int64_t max_weights = 0;
  for (size_t seq = 0; seq < 12; ++seq) {
    streamer.Acquire(seq);
    max_weights = std::max(max_weights, tracker.PeakBytes(MemCategory::kWeights));
    streamer.Release(seq);
  }
  std::vector<int64_t> sizes;
  for (const auto& blob : blobs_) {
    sizes.push_back(static_cast<int64_t>(blob.size()));
  }
  std::sort(sizes.rbegin(), sizes.rend());
  EXPECT_LE(max_weights, sizes[0] + sizes[1]);
  streamer.TruncateSchedule(11);  // Walk over; stop the prefetcher fetching cycle 3.
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
  // buffers) and deliver the next cycle's layer 0 correctly.
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
  // Positions 2..5 were never consumed; at most the prefetcher's look-ahead
  // (2 buffers) of them may have been fetched before the skip landed.
  const StreamerStats stats = streamer.stats();
  EXPECT_LE(stats.blobs_loaded, 2 + 2 + 6 + 2);
  // Skipped-but-fetched bytes are still accounted (they were real I/O): the
  // total covers at least the 8 consumed positions.
  int64_t consumed_bytes = 0;
  for (size_t seq : {0u, 1u, 6u, 7u, 8u, 9u, 10u, 11u}) {
    consumed_bytes += static_cast<int64_t>(blobs_[seq % 6].size());
  }
  EXPECT_GE(stats.bytes_loaded, consumed_bytes);
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
  a.Fill(1.0f);
  pool.SpillAsync(5, std::move(a));
  Tensor first = pool.Take(5);
  EXPECT_EQ(first.at(0, 0), 1.0f);
  Tensor b(1, 4, MemCategory::kHiddenStates, &tracker);
  b.Fill(2.0f);
  pool.SpillAsync(5, std::move(b));
  Tensor second = pool.Take(5);
  EXPECT_EQ(second.at(0, 0), 2.0f);
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
