#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/embedding.h"
#include "src/model/layer.h"
#include "src/model/pair_encoder.h"
#include "src/model/synthetic.h"
#include "src/model/weights.h"
#include "src/storage/blob_file.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace prism {
namespace {

SsdConfig Unthrottled() {
  SsdConfig config;
  config.throttle = false;
  return config;
}

// Loads everything needed to run layers of a test checkpoint in memory, at
// every storage precision.
struct LoadedModel {
  ModelConfig config;
  std::unique_ptr<BlobFileReader> reader;
  std::unique_ptr<FullEmbeddingTable> embedding;
  // Indexed by static_cast<size_t>(Precision), then layer.
  std::array<std::vector<std::vector<uint8_t>>, 4> layers;
  HeadWeights head;
  MemoryTracker tracker;
  Tensor positions;
};

std::unique_ptr<LoadedModel> Load(ModelArch arch) {
  auto m = std::make_unique<LoadedModel>();
  m->config = TestModel(arch);
  auto reader = BlobFileReader::Open(TestCheckpoint(m->config), Unthrottled());
  PRISM_CHECK(reader.ok());
  m->reader = std::move(reader).value();
  m->embedding = std::make_unique<FullEmbeddingTable>(m->config, m->reader.get(), &m->tracker);
  for (const Precision precision : kAllPrecisions) {
    auto r = precision == Precision::kFp32
                 ? nullptr
                 : std::move(BlobFileReader::Open(TestCheckpoint(m->config, precision),
                                                  Unthrottled()))
                       .value();
    BlobFileReader* src = r != nullptr ? r.get() : m->reader.get();
    auto& dst = m->layers[static_cast<size_t>(precision)];
    for (size_t layer = 0; layer < m->config.n_layers; ++layer) {
      std::vector<uint8_t> blob(static_cast<size_t>(src->BlobSize(LayerBlobIndex(layer))));
      PRISM_CHECK(src->ReadBlob(LayerBlobIndex(layer), blob).ok());
      dst.push_back(std::move(blob));
    }
  }
  std::vector<uint8_t> head(static_cast<size_t>(m->reader->BlobSize(HeadBlobIndex(m->config))));
  PRISM_CHECK(m->reader->ReadBlob(HeadBlobIndex(m->config), head).ok());
  m->head = ParseHeadBlob(m->config, head);
  m->positions = MakePositionTable(m->config, &m->tracker);
  return m;
}

Tensor EmbedBatch(LoadedModel* m, const RerankRequest& request, size_t seq_len) {
  Tensor hidden(request.docs.size() * seq_len, m->config.hidden, MemCategory::kHiddenStates,
                &m->tracker);
  for (size_t c = 0; c < request.docs.size(); ++c) {
    const PairInput pair =
        BuildPairInput(m->config, request.query, request.docs[c], request.planted_r[c], seq_len);
    EmbedPairInto(m->config, m->embedding.get(), m->head, m->positions, pair, c, seq_len,
                  &hidden);
  }
  return hidden;
}

std::vector<float> ForwardAll(LoadedModel* m, Tensor* hidden, size_t seq_len,
                              Precision precision = Precision::kFp32) {
  LayerScratch scratch = LayerScratch::Make(m->config, hidden->rows(), seq_len, 1, &m->tracker);
  const auto& blobs = m->layers[static_cast<size_t>(precision)];
  for (size_t layer = 0; layer < m->config.n_layers; ++layer) {
    const AnyLayerView view = ParseAnyLayerBlob(m->config, blobs[layer], precision);
    LayerForward(m->config, view, seq_len, hidden, &scratch, nullptr);
  }
  std::vector<float> scores;
  ScoreChunk(m->config, m->head, *hidden, seq_len, &scores);
  return scores;
}

// Per-precision score tolerance vs fp32 for TestModel-sized layers: fp16 is
// nearly exact, int8 a little looser, w4 the loosest (calibrated once against
// the planted-relevance model, with ~3× headroom over observed drift).
float ScoreTolerance(Precision precision) {
  switch (precision) {
    case Precision::kFp16:
      return 0.01f;
    case Precision::kInt8:
      return 0.05f;
    default:
      return 0.15f;
  }
}

class LayerArchTest : public ::testing::TestWithParam<ModelArch> {};

TEST_P(LayerArchTest, ForwardIsDeterministic) {
  auto m = Load(GetParam());
  const RerankRequest request = TestRequest(m->config, 6, 2);
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor h1 = EmbedBatch(m.get(), request, seq_len);
  Tensor h2 = EmbedBatch(m.get(), request, seq_len);
  const auto s1 = ForwardAll(m.get(), &h1, seq_len);
  const auto s2 = ForwardAll(m.get(), &h2, seq_len);
  EXPECT_EQ(s1, s2);
}

TEST_P(LayerArchTest, BatchPartitioningDoesNotChangeScores) {
  // Forward 6 candidates as one batch vs. two batches of 3: per-candidate
  // attention means scores must be bit-identical — the invariant that makes
  // chunked execution exact (§4.3).
  auto m = Load(GetParam());
  const RerankRequest request = TestRequest(m->config, 6, 2);
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor whole = EmbedBatch(m.get(), request, seq_len);
  const auto s_whole = ForwardAll(m.get(), &whole, seq_len);

  std::vector<float> s_split;
  for (size_t half = 0; half < 2; ++half) {
    RerankRequest sub;
    sub.query = request.query;
    sub.k = request.k;
    for (size_t c = half * 3; c < half * 3 + 3; ++c) {
      sub.docs.push_back(request.docs[c]);
      sub.planted_r.push_back(request.planted_r[c]);
    }
    Tensor part = EmbedBatch(m.get(), sub, seq_len);
    const auto s = ForwardAll(m.get(), &part, seq_len);
    s_split.insert(s_split.end(), s.begin(), s.end());
  }
  ASSERT_EQ(s_whole.size(), s_split.size());
  for (size_t i = 0; i < s_whole.size(); ++i) {
    EXPECT_EQ(s_whole[i], s_split[i]) << "candidate " << i;
  }
}

TEST_P(LayerArchTest, ScoresAreProbabilities) {
  auto m = Load(GetParam());
  const RerankRequest request = TestRequest(m->config, 8, 2);
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor hidden = EmbedBatch(m.get(), request, seq_len);
  const auto scores = ForwardAll(m.get(), &hidden, seq_len);
  for (float s : scores) {
    EXPECT_GT(s, 0.0f);
    EXPECT_LT(s, 1.0f);
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST_P(LayerArchTest, ReducedPrecisionScoresCloseToF32) {
  auto m = Load(GetParam());
  const RerankRequest request = TestRequest(m->config, 8, 2);
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor h1 = EmbedBatch(m.get(), request, seq_len);
  const auto f32 = ForwardAll(m.get(), &h1, seq_len);
  for (const Precision precision :
       {Precision::kFp16, Precision::kInt8, Precision::kW4}) {
    Tensor h2 = EmbedBatch(m.get(), request, seq_len);
    const auto reduced = ForwardAll(m.get(), &h2, seq_len, precision);
    for (size_t i = 0; i < f32.size(); ++i) {
      EXPECT_NEAR(f32[i], reduced[i], ScoreTolerance(precision))
          << PrecisionName(precision) << " candidate " << i;
    }
  }
}

TEST_P(LayerArchTest, PlantedRelevanceDrivesScores) {
  // Two candidates with identical text but extreme planted relevance must
  // separate decisively after the full forward pass.
  auto m = Load(GetParam());
  RerankRequest request;
  request.query = {40, 41, 42, 43};
  request.docs = {std::vector<uint32_t>{60, 61, 62, 63, 64, 65},
                  std::vector<uint32_t>{60, 61, 62, 63, 64, 65}};
  request.planted_r = {0.95f, 0.05f};
  request.k = 1;
  const size_t seq_len = ChooseSeqLen(m->config, request.query, request.docs);
  Tensor hidden = EmbedBatch(m.get(), request, seq_len);
  const auto scores = ForwardAll(m.get(), &hidden, seq_len);
  EXPECT_GT(scores[0], scores[1] + 0.2f);
}

INSTANTIATE_TEST_SUITE_P(Archs, LayerArchTest,
                         ::testing::Values(ModelArch::kDecoderOnly, ModelArch::kEncoderOnly));

// Uniform values in [-1, 1), deterministic in `seed`.
std::vector<float> RandomFloats(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& x : out) {
    x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  return out;
}

// Layer `layer`'s blob of the test checkpoint for `config` at `precision`.
std::vector<uint8_t> CheckpointLayerBlob(const ModelConfig& config, Precision precision,
                                         size_t layer) {
  auto opened = BlobFileReader::Open(TestCheckpoint(config, precision), Unthrottled());
  PRISM_CHECK(opened.ok());
  const std::unique_ptr<BlobFileReader> reader = std::move(opened).value();
  std::vector<uint8_t> blob(static_cast<size_t>(reader->BlobSize(LayerBlobIndex(layer))));
  PRISM_CHECK(reader->ReadBlob(LayerBlobIndex(layer), blob).ok());
  return blob;
}

Tensor RandomHidden(const ModelConfig& config, size_t rows, uint64_t seed, MemoryTracker* t) {
  Tensor hidden(rows, config.hidden, MemCategory::kHiddenStates, t);
  const std::vector<float> values = RandomFloats(hidden.size(), seed);
  std::copy(values.begin(), values.end(), hidden.data());
  return hidden;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.ByteSize()) == 0;
}

// The full-width layer sequence LayerForward used before its workspace was
// planned by lifetime: every intermediate in its own tensor, gate and up
// projected over all ffn columns at once. Kept here as the reference the
// aliased workspace must reproduce bit for bit.
void FullWidthLayerForward(const ModelConfig& config, const AnyLayerView& w, size_t seq_len,
                           Tensor* hidden, MemoryTracker* t) {
  const size_t rows = hidden->rows();
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  const size_t dh = config.head_dim();
  const bool causal = config.arch == ModelArch::kDecoderOnly;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor normed(rows, d, MemCategory::kScratch, t);
  Tensor q(rows, d, MemCategory::kScratch, t);
  Tensor k(rows, d, MemCategory::kScratch, t);
  Tensor v(rows, d, MemCategory::kScratch, t);
  Tensor ctx(rows, d, MemCategory::kScratch, t);
  Tensor attn_out(rows, d, MemCategory::kScratch, t);
  Tensor gate(rows, f, MemCategory::kScratch, t);
  Tensor up(rows, f, MemCategory::kScratch, t);
  Tensor down(rows, d, MemCategory::kScratch, t);
  Tensor scores(seq_len, seq_len, MemCategory::kScratch, t);
  auto pre_norm = [&](std::span<const float> gain, std::span<const float> bias) {
    std::copy_n(hidden->data(), rows * d, normed.data());
    if (causal) {
      RmsNormInPlace(&normed, rows, gain);
    } else {
      LayerNormInPlace(&normed, rows, gain, bias);
    }
  };
  pre_norm(w.norm1_gain, w.norm1_bias);
  w.wq.MatMulTransB(normed.data(), rows, q.data());
  w.wk.MatMulTransB(normed.data(), rows, k.data());
  w.wv.MatMulTransB(normed.data(), rows, v.data());
  for (size_t base = 0; base < rows; base += seq_len) {
    for (size_t col0 = 0; col0 < d; col0 += dh) {
      const size_t head0 = base * d + col0;
      MatMulTransBStrided(q.data() + head0, d, seq_len, dh, k.data() + head0, d, seq_len,
                          scores.data(), seq_len);
      for (size_t i = 0; i < seq_len; ++i) {
        float* srow = scores.data() + i * seq_len;
        const size_t jmax = causal ? i + 1 : seq_len;
        for (size_t j = 0; j < jmax; ++j) {
          srow[j] *= inv_sqrt_dh;
        }
        SoftmaxRowInPlace({srow, seq_len}, causal ? static_cast<ptrdiff_t>(i) : -1);
        float* out = ctx.data() + (base + i) * d + col0;
        std::fill_n(out, dh, 0.0f);
        for (size_t j = 0; j < jmax; ++j) {
          if (srow[j] == 0.0f) {
            continue;
          }
          const float* vj = v.data() + (base + j) * d + col0;
          for (size_t x = 0; x < dh; ++x) {
            out[x] += srow[j] * vj[x];
          }
        }
      }
    }
  }
  w.wo.MatMulTransB(ctx.data(), rows, attn_out.data());
  AddInPlace(hidden, attn_out);
  pre_norm(w.norm2_gain, w.norm2_bias);
  if (causal) {
    w.w_gate.MatMulTransB(normed.data(), rows, gate.data());
    w.w_up.MatMulTransB(normed.data(), rows, up.data());
    SwiGluInPlace(gate.flat(), up.flat());
    w.w_down.MatMulTransB(gate.data(), rows, down.data());
  } else {
    w.w_up.MatMulTransB(normed.data(), rows, up.data());
    GeluInPlace(up.flat());
    w.w_down.MatMulTransB(up.data(), rows, down.data());
  }
  AddInPlace(hidden, down);
}

void Poison(Tensor* t) {
  std::fill_n(t->data(), t->size(), std::numeric_limits<float>::quiet_NaN());
}

// The MiniCPM proxy's shape (104 / 312, quant_group 8) as the given arch,
// two layers deep: ffn % kFfnBlock == 8, so the last FFN block is partial.
// Checkpoints are cached by name, so the name carries the arch and depth.
ModelConfig MiniCpmShape(ModelArch arch) {
  ModelConfig config = BgeRerankerV2MiniCpm();
  config.arch = arch;
  config.n_layers = 2;
  config.name += arch == ModelArch::kDecoderOnly ? "-decoder-2L" : "-encoder-2L";
  return config;
}

struct AliasCase {
  const char* name;
  ModelConfig config;
};

void PrintTo(const AliasCase& c, std::ostream* os) { *os << c.name; }

class LayerWorkspaceTest : public ::testing::TestWithParam<std::tuple<AliasCase, Precision>> {};

TEST_P(LayerWorkspaceTest, PoisonedScratchMatchesFreshAndFullWidth) {
  const auto& [alias_case, precision] = GetParam();
  const ModelConfig& config = alias_case.config;
  constexpr size_t kSeqLen = 7;
  constexpr size_t kCandidates = 3;
  const size_t rows = kCandidates * kSeqLen;
  MemoryTracker tracker;
  Tensor fresh_h = RandomHidden(config, rows, 5, &tracker);
  Tensor poisoned_h = RandomHidden(config, rows, 5, &tracker);
  Tensor reference_h = RandomHidden(config, rows, 5, &tracker);
  // One scratch per layer stack, reused across layers as the engine does;
  // the poisoned one is also taller than the chunk and re-poisoned per layer.
  LayerScratch fresh = LayerScratch::Make(config, rows, kSeqLen, 1, &tracker);
  LayerScratch poisoned = LayerScratch::Make(config, rows + kSeqLen, kSeqLen, 1, &tracker);
  for (size_t layer = 0; layer < 2; ++layer) {
    const std::vector<uint8_t> blob = CheckpointLayerBlob(config, precision, layer);
    const AnyLayerView view = ParseAnyLayerBlob(config, blob, precision);
    for (Tensor* t : {&poisoned.narrow, &poisoned.wide, &poisoned.gate_block, &poisoned.up_block,
                      &poisoned.scores}) {
      Poison(t);
    }
    LayerForward(config, view, kSeqLen, &fresh_h, &fresh, nullptr);
    LayerForward(config, view, kSeqLen, &poisoned_h, &poisoned, nullptr);
    FullWidthLayerForward(config, view, kSeqLen, &reference_h, &tracker);
    for (size_t i = 0; i < fresh_h.size(); ++i) {
      ASSERT_TRUE(std::isfinite(fresh_h.data()[i])) << "layer " << layer << " element " << i;
    }
    EXPECT_TRUE(SameBits(fresh_h, poisoned_h)) << "layer " << layer;
    EXPECT_TRUE(SameBits(fresh_h, reference_h)) << "layer " << layer;
  }
}

const auto kArchsAndTiers = ::testing::Combine(
    ::testing::Values(AliasCase{"TestDecoder", TestModel(ModelArch::kDecoderOnly)},
                      AliasCase{"TestEncoder", TestModel(ModelArch::kEncoderOnly)},
                      AliasCase{"MiniCpmDecoder", MiniCpmShape(ModelArch::kDecoderOnly)},
                      AliasCase{"MiniCpmEncoder", MiniCpmShape(ModelArch::kEncoderOnly)}),
    ::testing::ValuesIn(kAllPrecisions));

std::string ArchAndTierName(
    const ::testing::TestParamInfo<std::tuple<AliasCase, Precision>>& info) {
  return std::string(std::get<0>(info.param).name) + "_" + PrecisionName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(ArchsAndTiers, LayerWorkspaceTest, kArchsAndTiers, ArchAndTierName);


// A pooled LayerForward splits the chunk into contiguous candidate blocks, one
// per pool thread, each on its own slice of the scratch. Every pool width and
// candidate count, fewer candidates than threads included, must reproduce
// the serial call and the full-width reference bit for bit, on a NaN-poisoned
// scratch taller than the chunk.
class PooledLayerTest : public ::testing::TestWithParam<std::tuple<AliasCase, Precision>> {};

TEST_P(PooledLayerTest, PooledMatchesSerialAndFullWidth) {
  const auto& [alias_case, precision] = GetParam();
  const ModelConfig& config = alias_case.config;
  constexpr size_t kSeqLen = 7;
  std::vector<std::vector<uint8_t>> blobs;
  for (size_t layer = 0; layer < 2; ++layer) {
    blobs.push_back(CheckpointLayerBlob(config, precision, layer));
  }
  MemoryTracker tracker;
  for (size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    for (size_t candidates = 1; candidates <= 9; ++candidates) {
      const size_t rows = candidates * kSeqLen;
      const uint64_t seed = 100 + candidates;
      Tensor serial_h = RandomHidden(config, rows, seed, &tracker);
      Tensor pooled_h = RandomHidden(config, rows, seed, &tracker);
      Tensor reference_h = RandomHidden(config, rows, seed, &tracker);
      LayerScratch serial = LayerScratch::Make(config, rows, kSeqLen, 1, &tracker);
      LayerScratch pooled =
          LayerScratch::Make(config, rows + kSeqLen, kSeqLen, threads, &tracker);
      for (size_t layer = 0; layer < blobs.size(); ++layer) {
        const AnyLayerView view = ParseAnyLayerBlob(config, blobs[layer], precision);
        for (Tensor* t : {&pooled.narrow, &pooled.wide, &pooled.gate_block, &pooled.up_block,
                          &pooled.scores}) {
          Poison(t);
        }
        LayerForward(config, view, kSeqLen, &serial_h, &serial, nullptr);
        LayerForward(config, view, kSeqLen, &pooled_h, &pooled, &pool);
        FullWidthLayerForward(config, view, kSeqLen, &reference_h, &tracker);
        for (size_t i = 0; i < serial_h.size(); ++i) {
          ASSERT_TRUE(std::isfinite(serial_h.data()[i])) << "layer " << layer << " element " << i;
        }
        EXPECT_TRUE(SameBits(serial_h, pooled_h))
            << threads << " threads, " << candidates << " candidates, layer " << layer;
        EXPECT_TRUE(SameBits(serial_h, reference_h))
            << threads << " threads, " << candidates << " candidates, layer " << layer;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ArchsAndTiers, PooledLayerTest, kArchsAndTiers, ArchAndTierName);

// A kFfnBlock-row slice of a weight matrix computes exactly those columns of
// the full product, on every tier — the identity the blocked SwiGLU rests on.
// The MiniCPM proxy's w_gate [312, 104] and w_down [104, 312] both end in a
// partial 8-row block, and quant_group 8 puts several groups in each row.
class RowSliceTest : public ::testing::TestWithParam<Precision> {};

TEST_P(RowSliceTest, BlockColumnsMatchFullProduct) {
  const Precision precision = GetParam();
  const ModelConfig config = MiniCpmShape(ModelArch::kDecoderOnly);
  ASSERT_EQ(config.quant_group, 8u);
  ASSERT_NE(config.ffn % kFfnBlock, 0u);
  const std::vector<uint8_t> blob = CheckpointLayerBlob(config, precision, 0);
  const AnyLayerView view = ParseAnyLayerBlob(config, blob, precision);
  constexpr size_t kRows = 13;  // Not a multiple of the register tile.
  for (const WeightView* w : {&view.w_gate, &view.w_down}) {
    const std::vector<float> a = RandomFloats(kRows * w->cols, 9);
    std::vector<float> full(kRows * w->rows);
    w->MatMulTransB(a.data(), kRows, full.data());
    size_t blocks = 0;
    for (size_t j0 = 0; j0 < w->rows; j0 += kFfnBlock, ++blocks) {
      const size_t nr = std::min(kFfnBlock, w->rows - j0);
      std::vector<float> block(kRows * nr, std::numeric_limits<float>::quiet_NaN());
      w->RowSlice(j0, nr).MatMulTransB(a.data(), kRows, block.data());
      for (size_t i = 0; i < kRows; ++i) {
        ASSERT_EQ(std::memcmp(block.data() + i * nr, full.data() + i * w->rows + j0,
                              nr * sizeof(float)),
                  0)
            << PrecisionName(precision) << " rows " << w->rows << " block " << j0 << " row " << i;
      }
    }
    EXPECT_EQ(blocks, (w->rows + kFfnBlock - 1) / kFfnBlock);
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, RowSliceTest, ::testing::ValuesIn(kAllPrecisions),
                         [](const auto& info) { return std::string(PrecisionName(info.param)); });

TEST(LayerScratchTest, BytesForMatchesAllocation) {
  const ModelConfig config = TestModel();
  MemoryTracker tracker;
  const size_t rows = 4 * 16;
  const LayerScratch scratch = LayerScratch::Make(config, rows, 16, 1, &tracker);
  (void)scratch;
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kActivations),
            LayerScratch::BytesFor(config, rows, 16, 1));
}

TEST(LayerScratchTest, PerRowFootprintIsTheLiveSet) {
  // 0.6B proxy: the narrow [d] and wide [max(3d, f)] buffers plus the two
  // 16-column SwiGLU blocks, 1664 B a row. A full-width intermediate coming
  // back (the old layout was 7d + 2f floats, 4992 B) breaks this.
  const ModelConfig config = Qwen3Reranker0_6B();
  const int64_t d = static_cast<int64_t>(config.hidden);
  const int64_t f = static_cast<int64_t>(config.ffn);
  const int64_t per_row = (d + std::max(3 * d, f) + 32) * 4;
  EXPECT_EQ(per_row, 1664);
  const size_t seq_len = config.max_seq;
  for (const size_t rows : {size_t{1}, size_t{64}, size_t{320}}) {
    EXPECT_EQ(LayerScratch::BytesFor(config, rows, seq_len, 1) -
                  LayerScratch::BytesFor(config, 0, seq_len, 1),
              static_cast<int64_t>(rows) * per_row)
        << rows << " rows";
  }
}

TEST(LayerScratchTest, EncoderScratchSmaller) {
  const ModelConfig dec = TestModel(ModelArch::kDecoderOnly);
  const ModelConfig enc = TestModel(ModelArch::kEncoderOnly);
  EXPECT_GT(LayerScratch::BytesFor(dec, 64, 16, 1), LayerScratch::BytesFor(enc, 64, 16, 1));
}

}  // namespace
}  // namespace prism
