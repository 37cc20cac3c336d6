#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "src/common/timer.h"
#include "src/model/config.h"
#include "src/model/embedding.h"
#include "src/model/layer.h"
#include "src/model/pair_encoder.h"
#include "src/model/synthetic.h"
#include "src/model/tokenizer.h"
#include "src/model/weights.h"
#include "src/storage/blob_file.h"
#include "tests/test_util.h"

namespace prism {
namespace {

SsdConfig Unthrottled() {
  SsdConfig config;
  config.throttle = false;
  return config;
}

TEST(ConfigTest, ZooHasFivePaperModels) {
  const auto zoo = ModelZoo();
  ASSERT_EQ(zoo.size(), 5u);
  EXPECT_EQ(zoo[0].name, "Qwen3-Reranker-0.6B");
  EXPECT_EQ(zoo[4].arch, ModelArch::kEncoderOnly);  // BGE-M3 is encoder-only.
  // Parameter ordering mirrors the paper's model sizes.
  EXPECT_LT(ModelByName("Qwen3-Reranker-0.6B").TotalParams(),
            ModelByName("Qwen3-Reranker-4B").TotalParams());
  EXPECT_LT(ModelByName("Qwen3-Reranker-4B").TotalParams(),
            ModelByName("Qwen3-Reranker-8B").TotalParams());
}

TEST(ConfigTest, LayerParamsCountsArchDifference) {
  ModelConfig dec = TestModel(ModelArch::kDecoderOnly);
  ModelConfig enc = TestModel(ModelArch::kEncoderOnly);
  // Decoder has a gate matrix the encoder lacks.
  EXPECT_EQ(dec.LayerParams() - enc.LayerParams(), dec.hidden * dec.ffn);
}

TEST(ConfigTest, HeadDimDividesHidden) {
  for (const ModelConfig& config : ModelZoo()) {
    EXPECT_EQ(config.hidden % config.n_heads, 0u) << config.name;
    EXPECT_EQ(config.hidden % config.quant_group, 0u) << config.name;
    EXPECT_EQ(config.ffn % config.quant_group, 0u) << config.name;
  }
}

TEST(SyntheticTest, CheckpointIsDeterministic) {
  const ModelConfig config = TestModel();
  const std::string a = MakeTempDevicePath("ckpt_a");
  const std::string b = MakeTempDevicePath("ckpt_b");
  ASSERT_TRUE(GenerateCheckpoint(config, 7, a).ok());
  ASSERT_TRUE(GenerateCheckpoint(config, 7, b).ok());
  auto ra = BlobFileReader::Open(a, Unthrottled());
  auto rb = BlobFileReader::Open(b, Unthrottled());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  for (size_t i = 0; i < ra.value()->blob_count(); ++i) {
    std::vector<uint8_t> ba(static_cast<size_t>(ra.value()->BlobSize(i)));
    std::vector<uint8_t> bb(static_cast<size_t>(rb.value()->BlobSize(i)));
    ASSERT_TRUE(ra.value()->ReadBlob(i, ba).ok());
    ASSERT_TRUE(rb.value()->ReadBlob(i, bb).ok());
    EXPECT_EQ(ba, bb) << "blob " << i;
  }
  ::unlink(a.c_str());
  ::unlink(b.c_str());
}

TEST(SyntheticTest, BlobCountAndSizesMatchConfig) {
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->blob_count(), config.n_layers + 2);
  EXPECT_EQ(reader.value()->BlobSize(EmbeddingBlobIndex()),
            static_cast<int64_t>(config.EmbeddingBlobBytes()));
  EXPECT_EQ(reader.value()->BlobSize(LayerBlobIndex(0)),
            static_cast<int64_t>(LayerBlobBytes(config, Precision::kFp32)));
  EXPECT_EQ(reader.value()->BlobSize(HeadBlobIndex(config)),
            static_cast<int64_t>(config.HeadBlobBytes()));
}

TEST(SyntheticTest, QuantizedCheckpointSmaller) {
  const ModelConfig config = TestModel();
  const std::string f32 = TestCheckpoint(config);
  const std::string q4 = TestCheckpoint(config, Precision::kW4);
  auto rf = BlobFileReader::Open(f32, Unthrottled());
  auto rq = BlobFileReader::Open(q4, Unthrottled());
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rq.ok());
  EXPECT_LT(rq.value()->BlobSize(LayerBlobIndex(0)), rf.value()->BlobSize(LayerBlobIndex(0)) / 3);
}

TEST(SyntheticTest, ClassifierIsScaledUnitVector) {
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  std::vector<uint8_t> blob(static_cast<size_t>(reader.value()->BlobSize(HeadBlobIndex(config))));
  ASSERT_TRUE(reader.value()->ReadBlob(HeadBlobIndex(config), blob).ok());
  const HeadWeights head = ParseHeadBlob(config, blob);
  float norm = 0.0f;
  for (float w : head.w) {
    norm += w * w;
  }
  EXPECT_NEAR(std::sqrt(norm), kHeadScale, 1e-3f);
  EXPECT_EQ(head.bias, 0.0f);
}

TEST(WeightsTest, LayerViewPointersPartitionBlob) {
  const ModelConfig config = TestModel();
  std::vector<uint8_t> blob(LayerBlobBytes(config, Precision::kFp32));
  const AnyLayerView view = ParseAnyLayerBlob(config, blob, Precision::kFp32);
  const auto* base = reinterpret_cast<const float*>(blob.data());
  EXPECT_EQ(view.wq.f32, base);
  EXPECT_EQ(view.wk.f32, base + config.hidden * config.hidden);
  EXPECT_NE(view.w_gate.f32, nullptr);  // Decoder layout.
  EXPECT_EQ(view.norm2_bias.size(), config.hidden);
  // The last norm ends exactly at the blob end.
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(view.norm2_bias.data() + config.hidden),
            blob.data() + blob.size());
}

TEST(WeightsTest, EncoderLayoutHasNoGate) {
  const ModelConfig config = TestModel(ModelArch::kEncoderOnly);
  std::vector<uint8_t> blob(LayerBlobBytes(config, Precision::kFp32));
  const AnyLayerView view = ParseAnyLayerBlob(config, blob, Precision::kFp32);
  EXPECT_EQ(view.w_gate.f32, nullptr);
  EXPECT_EQ(view.w_gate.rows, 0u);
}

TEST(EmbeddingTest, CacheMatchesFullTableBitExact) {
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  FullEmbeddingTable table(config, reader.value().get(), &tracker);
  EmbeddingCache cache(config, reader.value().get(), 16, &tracker);
  std::vector<float> a(config.hidden);
  std::vector<float> b(config.hidden);
  for (uint32_t token : {0u, 5u, 100u, 5u, 511u, 100u}) {
    table.Lookup(token, a);
    cache.Lookup(token, b);
    EXPECT_EQ(a, b) << "token " << token;
  }
}

TEST(EmbeddingTest, CacheLruEvicts) {
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  EmbeddingCache cache(config, reader.value().get(), 2, &tracker);
  std::vector<float> buf(config.hidden);
  cache.Lookup(1, buf);
  cache.Lookup(2, buf);
  cache.Lookup(1, buf);  // 1 is now most-recent.
  cache.Lookup(3, buf);  // Evicts 2.
  cache.Lookup(1, buf);  // Hit.
  EXPECT_EQ(cache.resident_rows(), 2u);
  const EmbeddingCacheStats& stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);    // Second and third lookups of 1.
  EXPECT_EQ(stats.misses, 3);  // 1, 2, 3 first touches.
}

TEST(EmbeddingTest, CacheCapacityNeverExceeded) {
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  EmbeddingCache cache(config, reader.value().get(), 8, &tracker);
  std::vector<float> buf(config.hidden);
  Rng rng(40);
  for (int i = 0; i < 200; ++i) {
    cache.Lookup(static_cast<uint32_t>(rng.NextBelow(config.vocab_size)), buf);
    EXPECT_LE(cache.resident_rows(), 8u);
  }
}

TEST(EmbeddingTest, ZipfTrafficHasHighHitRate) {
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  // 10% of the vocabulary, the paper's setting.
  EmbeddingCache cache(config, reader.value().get(), config.vocab_size / 10, &tracker);
  const ZipfSampler zipf(config.vocab_size, 1.1);
  Rng rng(41);
  std::vector<float> buf(config.hidden);
  for (int i = 0; i < 4000; ++i) {
    cache.Lookup(static_cast<uint32_t>(zipf.Sample(rng)), buf);
  }
  EXPECT_GT(cache.stats().HitRate(), 0.5);
}

TEST(EmbeddingTest, ConcurrentLookupsMatchTableBitExactly) {
  // The cache is shared by every in-flight request; parallel lookups and
  // prefetches must return table-exact rows regardless of LRU interleaving
  // (this is also the ThreadSanitizer target for the cache's locking).
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  FullEmbeddingTable table(config, reader.value().get(), &tracker);
  EmbeddingCache cache(config, reader.value().get(), 16, &tracker);  // Tiny: force evictions.
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      std::vector<float> expected(config.hidden);
      std::vector<float> got(config.hidden);
      for (int i = 0; i < 200; ++i) {
        if (i % 16 == 0) {
          std::vector<uint32_t> batch;
          for (int j = 0; j < 8; ++j) {
            batch.push_back(static_cast<uint32_t>(rng.NextBelow(config.vocab_size)));
          }
          cache.PrefetchTokens(batch);
        }
        const auto token = static_cast<uint32_t>(rng.NextBelow(config.vocab_size));
        table.Lookup(token, expected);
        cache.Lookup(token, got);
        EXPECT_EQ(expected, got) << "token " << token;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const EmbeddingCacheStats stats = cache.stats();
  EXPECT_GT(stats.misses, 0);
  EXPECT_LE(cache.resident_rows(), 16u);
}

TEST(EmbeddingTest, LookupHitsProceedWhilePrefetchReadsDevice) {
  // PrefetchTokens must not hold the cache mutex across its batched device
  // read: a prefetch of many missing rows on a slow SSD takes hundreds of
  // milliseconds, and concurrent Lookup *hits* — pure memory copies — must
  // not wait behind it. (This is the regression test for the lock-holding
  // bug: with the lock held across ReadBlobRanges, the hit below blocked
  // for the whole device wait.)
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  SsdConfig slow;
  slow.throttle = true;
  // 128 B rows at 16 KiB/s: a 48-row prefetch models ~375 ms of device
  // time; a single warm-up row miss ~8 ms.
  slow.bandwidth_bytes_per_sec = 16.0 * 1024;
  slow.latency_micros = 200;
  auto reader = BlobFileReader::Open(path, slow);
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  EmbeddingCache cache(config, reader.value().get(), 64, &tracker);
  std::vector<float> buf(config.hidden);
  cache.Lookup(7, buf);  // Warm one row (pays a single slow row read).

  std::vector<uint32_t> missing;
  for (uint32_t t = 100; t < 148; ++t) {
    missing.push_back(t);
  }
  const WallTimer prefetch_timer;
  std::thread prefetcher([&] { cache.PrefetchTokens(missing); });
  // Land the hits inside the prefetch's device window.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  double max_hit_ms = 0.0;
  std::vector<float> hit(config.hidden);
  for (int i = 0; i < 20; ++i) {
    const WallTimer timer;
    cache.Lookup(7, hit);
    max_hit_ms = std::max(max_hit_ms, timer.ElapsedMillis());
  }
  EXPECT_EQ(hit, buf);
  prefetcher.join();
  const double prefetch_ms = prefetch_timer.ElapsedMillis();
  // The prefetch spent its life on the device; the hits never touched it.
  // Bound generous enough for TSan, still far below the device read.
  EXPECT_GT(prefetch_ms, 200.0);
  EXPECT_LT(max_hit_ms, 100.0);
  EXPECT_EQ(cache.resident_rows(), 49u);  // 48 prefetched + the warm row.
}

TEST(PairEncoderTest, FixedLengthWithMarkers) {
  const ModelConfig config = TestModel();
  const std::vector<uint32_t> query = {20, 21, 22};
  const std::vector<uint32_t> doc = {30, 31};
  const PairInput pair = BuildPairInput(config, query, doc, 0.7f, 16);
  ASSERT_EQ(pair.tokens.size(), 16u);
  EXPECT_EQ(pair.tokens.front(), kBosToken);
  EXPECT_EQ(pair.tokens.back(), kEosToken);
  EXPECT_NE(std::find(pair.tokens.begin(), pair.tokens.end(), kSepToken), pair.tokens.end());
  // Short doc cycles to fill.
  int count30 = 0;
  for (uint32_t t : pair.tokens) {
    count30 += t == 30 ? 1 : 0;
  }
  EXPECT_GT(count30, 1);
}

TEST(PairEncoderTest, ChooseSeqLenClamps) {
  const ModelConfig config = TestModel();  // max_seq = 32
  const std::vector<uint32_t> query(4, 20);
  EXPECT_EQ(ChooseSeqLen(config, query, {{30, 31}}), 9u);
  const std::vector<std::vector<uint32_t>> long_docs = {std::vector<uint32_t>(100, 30)};
  EXPECT_EQ(ChooseSeqLen(config, query, long_docs), config.max_seq);
}

TEST(PairEncoderTest, PoolRowByArch) {
  const ModelConfig dec = TestModel(ModelArch::kDecoderOnly);
  const ModelConfig enc = TestModel(ModelArch::kEncoderOnly);
  EXPECT_EQ(PoolRow(dec, 2, 10), 2 * 10 + 9);  // Last token.
  EXPECT_EQ(PoolRow(enc, 2, 10), 2 * 10);      // CLS.
}


TEST(EmbeddingTest, PrefetchTokensBatchesMisses) {
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  FullEmbeddingTable table(config, reader.value().get(), &tracker);
  EmbeddingCache cache(config, reader.value().get(), 32, &tracker);
  const std::vector<uint32_t> tokens = {5, 9, 9, 5, 200, 333, 200};
  cache.PrefetchTokens(tokens);
  EXPECT_EQ(cache.resident_rows(), 4u);  // Unique tokens only.
  // All subsequent lookups hit and match the table bit-exactly.
  const int64_t misses_after_prefetch = cache.stats().misses;
  std::vector<float> a(config.hidden);
  std::vector<float> b(config.hidden);
  for (uint32_t token : tokens) {
    table.Lookup(token, a);
    cache.Lookup(token, b);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(cache.stats().misses, misses_after_prefetch);
}

TEST(EmbeddingTest, PrefetchClampsToCapacity) {
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  EmbeddingCache cache(config, reader.value().get(), 4, &tracker);
  std::vector<uint32_t> tokens;
  for (uint32_t t = 0; t < 20; ++t) {
    tokens.push_back(t);
  }
  cache.PrefetchTokens(tokens);
  EXPECT_LE(cache.resident_rows(), 4u);
}

TEST(EmbeddingTest, PrefetchKeepsTheRequestsOwnHits) {
  // The request's hits sit at the LRU tail and its misses fill the rest of
  // the capacity: inserting the misses must evict the other rows, so every
  // Lookup after the prefetch hits and the device sees one batched read.
  const ModelConfig config = TestModel();
  const std::string path = TestCheckpoint(config);
  auto reader = BlobFileReader::Open(path, Unthrottled());
  ASSERT_TRUE(reader.ok());
  MemoryTracker tracker;
  FullEmbeddingTable table(config, reader.value().get(), &tracker);
  EmbeddingCache cache(config, reader.value().get(), 4, &tracker);
  std::vector<float> a(config.hidden);
  std::vector<float> b(config.hidden);
  for (uint32_t token : {1u, 2u, 3u, 4u}) {
    cache.Lookup(token, b);  // LRU front to back: 4, 3, 2, 1.
  }
  const std::vector<uint32_t> tokens = {2, 1, 10, 11};
  const int64_t reads_before = reader.value()->ssd().stats().read_requests;
  const EmbeddingCacheStats before = cache.stats();
  cache.PrefetchTokens(tokens);
  for (uint32_t token : tokens) {
    table.Lookup(token, a);
    cache.Lookup(token, b);
    EXPECT_EQ(a, b) << "token " << token;
  }
  EXPECT_EQ(reader.value()->ssd().stats().read_requests - reads_before, 1);
  EXPECT_EQ(cache.stats().hits - before.hits, 4);
  EXPECT_EQ(cache.stats().misses - before.misses, 2);  // The prefetched rows.
  EXPECT_EQ(cache.resident_rows(), 4u);
}

TEST(TokenizerTest, DeterministicAndInRange) {
  const ModelConfig config = TestModel();
  const SyntheticTokenizer tokenizer(config);
  const auto a = tokenizer.Encode("Hello, World! hello");
  const auto b = tokenizer.Encode("hello world hello");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a, b);  // Case/punctuation-insensitive.
  EXPECT_EQ(a[0], a[2]);
  for (uint32_t t : a) {
    EXPECT_GE(t, kFirstWordToken);
    EXPECT_LT(t, config.vocab_size);
  }
}

TEST(TokenizerTest, DifferentWordsUsuallyDiffer) {
  const ModelConfig config = TestModel();
  const SyntheticTokenizer tokenizer(config);
  EXPECT_NE(tokenizer.TokenOf("alpha"), tokenizer.TokenOf("beta"));
}

}  // namespace
}  // namespace prism
