// The shared query prefix (src/model/layer.h, docs/ARCHITECTURE.md "Shared
// query prefix"): on a causal model the engine forwards each request's
// [BOS] query [SEP] rows once per layer, and every candidate's own rows
// attend to them. Two properties are checked here:
//   - it is exact: ForwardPrefix + LayerForward reproduce the unshared
//     LayerForward bit for bit, and every engine path reproduces HfRunner
//     (which never shares) bit for bit, on every tier, query length class,
//     candidate count, scheduler, offload setting and chunk size;
//   - it really happens: a request holds (P + n·S) hidden rows, not n·T, so
//     a change that quietly stops sharing fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/engine.h"
#include "src/core/service.h"
#include "src/model/layer.h"
#include "src/model/pair_encoder.h"
#include "src/model/weights.h"
#include "src/runtime/hf_runner.h"
#include "src/storage/blob_file.h"
#include "tests/test_util.h"

namespace prism {
namespace {

struct ModelCase {
  const char* name;
  ModelConfig config;
};

void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

bool SameBits(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// --- Layer level -------------------------------------------------------

std::vector<uint8_t> LayerBlob(const ModelConfig& config, Precision precision, size_t layer) {
  SsdConfig ssd;
  ssd.throttle = false;
  auto opened = BlobFileReader::Open(TestCheckpoint(config, precision), ssd);
  PRISM_CHECK(opened.ok());
  const std::unique_ptr<BlobFileReader> reader = std::move(opened).value();
  std::vector<uint8_t> blob(static_cast<size_t>(reader->BlobSize(LayerBlobIndex(layer))));
  PRISM_CHECK(reader->ReadBlob(LayerBlobIndex(layer), blob).ok());
  return blob;
}

class SharedPrefixLayerTest
    : public ::testing::TestWithParam<std::tuple<ModelCase, Precision>> {};

// C candidates whose first P rows are the same: the unshared LayerForward
// over all C·T rows and ForwardPrefix + LayerForward over P + C·S rows give
// the same bits in every row, through two layers, at every pool width, on a
// NaN-poisoned scratch.
TEST_P(SharedPrefixLayerTest, PrefixOnceMatchesEveryCandidateForwardingIt) {
  const auto& [model, precision] = GetParam();
  const ModelConfig& config = model.config;
  const size_t d = config.hidden;
  std::vector<std::vector<uint8_t>> blobs;
  for (size_t layer = 0; layer < 2; ++layer) {
    blobs.push_back(LayerBlob(config, precision, layer));
  }
  MemoryTracker tracker;
  Rng rng(7);
  for (const size_t seq_len : {size_t{8}, size_t{13}}) {
    for (const size_t prefix_len : {size_t{1}, size_t{2}, seq_len / 3 + 2}) {
      const size_t suffix_len = seq_len - prefix_len;
      for (const size_t candidates : {size_t{1}, size_t{3}, size_t{7}}) {
        std::vector<float> prefix_rows(prefix_len * d);
        for (float& x : prefix_rows) {
          x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
        }
        Tensor full(candidates * seq_len, d, MemCategory::kHiddenStates, &tracker);
        for (size_t c = 0; c < candidates; ++c) {
          std::copy(prefix_rows.begin(), prefix_rows.end(), full.data() + c * seq_len * d);
          for (size_t i = prefix_len * d; i < seq_len * d; ++i) {
            full.data()[c * seq_len * d + i] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
          }
        }
        for (size_t threads = 1; threads <= 4; threads += 3) {
          ThreadPool pool(threads);
          Tensor reference = full.Clone(MemCategory::kHiddenStates, &tracker);
          Tensor prefix(prefix_len, d, MemCategory::kHiddenStates, &tracker);
          std::copy(prefix_rows.begin(), prefix_rows.end(), prefix.data());
          Tensor suffix(candidates * suffix_len, d, MemCategory::kHiddenStates, &tracker);
          for (size_t c = 0; c < candidates; ++c) {
            std::copy_n(full.data() + (c * seq_len + prefix_len) * d, suffix_len * d,
                        suffix.data() + c * suffix_len * d);
          }
          LayerScratch unshared =
              LayerScratch::Make(config, reference.rows(), seq_len, 0, 1, &tracker);
          LayerScratch shared =
              LayerScratch::Make(config, suffix.rows(), seq_len, prefix_len, threads, &tracker);
          for (size_t layer = 0; layer < blobs.size(); ++layer) {
            const AnyLayerView view = ParseAnyLayerBlob(config, blobs[layer], precision);
            for (Tensor* t : {&shared.narrow, &shared.wide, &shared.gate_block, &shared.up_block,
                              &shared.scores, &shared.prefix_kv}) {
              std::fill_n(t->data(), t->size(), std::numeric_limits<float>::quiet_NaN());
            }
            LayerForward(config, view, seq_len, 0, &reference, &unshared, nullptr);
            ForwardPrefix(config, view, &prefix, &shared);
            LayerForward(config, view, seq_len, prefix_len, &suffix, &shared, &pool);
            for (size_t c = 0; c < candidates; ++c) {
              SCOPED_TRACE(::testing::Message()
                           << "seq " << seq_len << " prefix " << prefix_len << " candidates "
                           << candidates << " threads " << threads << " layer " << layer
                           << " candidate " << c);
              const float* row = reference.data() + c * seq_len * d;
              ASSERT_TRUE(SameBits(row, prefix.data(), prefix_len * d));
              ASSERT_TRUE(SameBits(row + prefix_len * d, suffix.data() + c * suffix_len * d,
                                   suffix_len * d));
            }
          }
        }
      }
    }
  }
}

const ModelCase kDecoders[] = {
    {"TestDecoder", TestModel(ModelArch::kDecoderOnly)},
    {"Qwen3_0_6B", Qwen3Reranker0_6B()},
};

std::string CaseName(const ::testing::TestParamInfo<std::tuple<ModelCase, Precision>>& info) {
  return std::string(std::get<0>(info.param).name) + "_" + PrecisionName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(DecodersAndTiers, SharedPrefixLayerTest,
                         ::testing::Combine(::testing::ValuesIn(kDecoders),
                                            ::testing::ValuesIn(kAllPrecisions)),
                         CaseName);

// --- Engine level ------------------------------------------------------

// How much of the query BuildPairInput keeps.
enum class QueryLen { kEmpty, kOne, kAtCap, kPastCap };

// Candidate count classes: one candidate, n ≤ k, and a full selection.
struct CountCase {
  size_t n;
  size_t k;
};
constexpr CountCase kCounts[] = {{1, 1}, {3, 5}, {16, 3}};
constexpr size_t kMaxCandidates = 16;

// A random token of the model's word vocabulary.
uint32_t Word(const ModelConfig& config, Rng* rng) {
  return kFirstWordToken +
         static_cast<uint32_t>(rng->NextBelow(config.vocab_size - kFirstWordToken));
}

// One request per query length class × count class. Documents are 3–8 tokens,
// so sequences stay short; the query length is then searched for the class:
// at the cap it is exactly seq/3 (all kept), past it at least two more.
std::vector<RerankRequest> MakeRequests(const ModelConfig& config, uint64_t seed) {
  Rng rng(seed);
  std::vector<RerankRequest> requests;
  for (const QueryLen kind :
       {QueryLen::kEmpty, QueryLen::kOne, QueryLen::kAtCap, QueryLen::kPastCap}) {
    for (const CountCase& count : kCounts) {
      RerankRequest request;
      request.k = count.k;
      for (size_t c = 0; c < count.n; ++c) {
        std::vector<uint32_t> doc(3 + rng.NextBelow(6));
        for (uint32_t& t : doc) {
          t = Word(config, &rng);
        }
        request.docs.push_back(std::move(doc));
        request.planted_r.push_back(static_cast<float>(rng.NextDouble()));
      }
      size_t query_len = kind == QueryLen::kOne ? 1 : 0;
      if (kind == QueryLen::kAtCap || kind == QueryLen::kPastCap) {
        for (query_len = 1;; ++query_len) {
          PRISM_CHECK_LT(query_len, config.max_seq);
          const size_t seq = ChooseSeqLen(config, std::vector<uint32_t>(query_len), request.docs);
          if (kind == QueryLen::kAtCap ? query_len == seq / 3 : query_len >= seq / 3 + 2) {
            break;
          }
        }
      }
      for (size_t i = 0; i < query_len; ++i) {
        request.query.push_back(Word(config, &rng));
      }
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

// Hidden-state bytes one request holds: P shared rows plus S own rows per
// candidate.
int64_t SharedHiddenBytes(const ModelConfig& config, const RerankRequest& request) {
  const size_t seq = ChooseSeqLen(config, request.query, request.docs);
  const size_t prefix = SharedPrefixLen(config, request.query.size(), seq);
  return static_cast<int64_t>((prefix + request.docs.size() * (seq - prefix)) * config.hidden *
                              sizeof(float));
}

enum class Path { kRerank, kRerankUnpruned, kCarousel1, kCarousel4 };

const char* PathName(Path path) {
  switch (path) {
    case Path::kRerank:
      return "Rerank";
    case Path::kRerankUnpruned:
      return "RerankUnpruned";
    case Path::kCarousel1:
      return "carousel/max_inflight=1";
    case Path::kCarousel4:
      return "carousel/max_inflight=4";
  }
  return "?";
}

struct EngineCase {
  Path path;
  bool offload;
  size_t chunk;  // chunk_candidates; kMaxCandidates means one chunk.
};

std::vector<EngineCase> AllEngineCases() {
  std::vector<EngineCase> cases;
  for (const Path path :
       {Path::kRerank, Path::kRerankUnpruned, Path::kCarousel1, Path::kCarousel4}) {
    for (const bool offload : {false, true}) {
      for (const size_t chunk : {size_t{1}, size_t{3}, kMaxCandidates}) {
        cases.push_back({path, offload, chunk});
      }
    }
  }
  return cases;
}

// Serves `requests` on one engine case: the serial paths one after another
// on a PrismEngine (Rerank on an engine with pruning off, RerankUnpruned on
// one with it on), the carousel paths all at once from one thread each. The
// tracker's kHiddenStates peak is left for the caller.
std::vector<RerankResult> Serve(const ModelConfig& config, const std::string& ckpt,
                                Precision precision, const EngineCase& e,
                                const std::vector<const RerankRequest*>& requests,
                                MemoryTracker* tracker) {
  PrismOptions options;
  options.device = FastDevice();
  options.precision = precision;
  options.offload_hidden = e.offload;
  options.chunk_candidates = e.chunk;
  options.pruning = e.path == Path::kRerankUnpruned;
  std::vector<RerankResult> results(requests.size());
  if (e.path == Path::kRerank || e.path == Path::kRerankUnpruned) {
    PrismEngine engine(config, ckpt, options, tracker);
    for (size_t i = 0; i < requests.size(); ++i) {
      results[i] = e.path == Path::kRerank ? engine.Rerank(*requests[i])
                                           : engine.RerankUnpruned(*requests[i]);
    }
    return results;
  }
  ServiceOptions service_options;
  service_options.engine = options;
  service_options.scheduler = SchedulerKind::kCarousel;
  service_options.max_inflight = e.path == Path::kCarousel1 ? 1 : 4;
  service_options.compute_threads = service_options.max_inflight;
  RerankService service(config, ckpt, service_options, tracker);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] { results[i] = service.Rerank(*requests[i]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  return results;
}

class SharedPrefixEngineTest
    : public ::testing::TestWithParam<std::tuple<ModelCase, Precision>> {};

// Every request runs on a third of the 24 engine cases and every engine case
// on a third of the 12 requests: the ones whose query class, count class,
// path, offload setting and chunk size indices sum to a multiple of 3. Any
// two dimensions' values then meet, since a third dimension is left free.
TEST_P(SharedPrefixEngineTest, EveryPathMatchesUnsharedHfBitForBit) {
  const auto& [model, precision] = GetParam();
  const ModelConfig& config = model.config;
  const std::string ckpt = TestCheckpoint(config, precision);
  const std::vector<RerankRequest> requests = MakeRequests(config, 11);

  std::vector<RerankResult> truth;
  {
    MemoryTracker tracker;
    HfRunnerOptions hf_options;
    hf_options.device = FastDevice();
    hf_options.precision = precision;
    HfRunner hf(config, ckpt, hf_options, &tracker);
    for (const RerankRequest& request : requests) {
      truth.push_back(hf.Rerank(request));
      ASSERT_TRUE(truth.back().status.ok());
    }
  }

  const std::vector<EngineCase> cases = AllEngineCases();
  for (size_t ei = 0; ei < cases.size(); ++ei) {
    const EngineCase& e = cases[ei];
    std::vector<size_t> picked;
    std::vector<const RerankRequest*> batch;
    const size_t case_sum = static_cast<size_t>(e.path) + (e.offload ? 1 : 0) + ei % 3;
    for (size_t r = 0; r < requests.size(); ++r) {
      if ((r / std::size(kCounts) + r % std::size(kCounts) + case_sum) % 3 == 0) {
        picked.push_back(r);
        batch.push_back(&requests[r]);
      }
    }
    SCOPED_TRACE(::testing::Message() << PathName(e.path) << " offload " << e.offload
                                      << " chunk_candidates " << e.chunk);
    MemoryTracker tracker;
    const std::vector<RerankResult> results = Serve(config, ckpt, precision, e, batch, &tracker);
    int64_t largest = 0;
    int64_t total = 0;
    for (size_t i = 0; i < picked.size(); ++i) {
      const RerankRequest& request = requests[picked[i]];
      SCOPED_TRACE(::testing::Message() << "request " << picked[i] << ": query "
                                        << request.query.size() << ", " << request.docs.size()
                                        << " candidates, k " << request.k);
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      ASSERT_EQ(results[i].scores.size(), truth[picked[i]].scores.size());
      EXPECT_TRUE(SameBits(results[i].scores.data(), truth[picked[i]].scores.data(),
                           results[i].scores.size()));
      EXPECT_EQ(results[i].topk, truth[picked[i]].topk);
      largest = std::max(largest, SharedHiddenBytes(config, request));
      total += SharedHiddenBytes(config, request);
    }
    const int64_t peak = tracker.PeakBytes(MemCategory::kHiddenStates);
    if (e.path == Path::kRerank || e.path == Path::kRerankUnpruned) {
      // One request at a time and no compaction: its prefix and its chunks
      // are all there is. Spilled chunks leave memory, so offload holds less.
      if (e.offload) {
        EXPECT_LE(peak, largest);
      } else {
        EXPECT_EQ(peak, largest);
      }
    } else {
      EXPECT_LE(peak, total);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DecodersAndTiers, SharedPrefixEngineTest,
                         ::testing::Combine(::testing::ValuesIn(kDecoders),
                                            ::testing::ValuesIn(kAllPrecisions)),
                         CaseName);

// A query may hold any id below the vocab size, reserved ones included. The
// planted signal starts after the [SEP] BuildPairInput places, not at the
// first [SEP] token, so a query holding [SEP] still gives every candidate
// the same prefix and the engine still matches HfRunner in every candidate.
TEST(SharedPrefixReservedTokenTest, QueryHoldingSepMatchesHf) {
  const ModelConfig config = TestModel(ModelArch::kDecoderOnly);
  const std::string ckpt = TestCheckpoint(config, Precision::kFp32);
  Rng rng(13);
  const std::vector<std::vector<uint32_t>> queries = {
      {kSepToken},
      {Word(config, &rng), kSepToken, Word(config, &rng)},
      {kPadToken, kBosToken, kSepToken, kEosToken},
  };
  MemoryTracker hf_tracker;
  HfRunnerOptions hf_options;
  hf_options.device = FastDevice();
  HfRunner hf(config, ckpt, hf_options, &hf_tracker);
  MemoryTracker tracker;
  PrismOptions options;
  options.device = FastDevice();
  options.chunk_candidates = 2;
  PrismEngine engine(config, ckpt, options, &tracker);
  for (const std::vector<uint32_t>& query : queries) {
    RerankRequest request;
    request.k = 2;
    request.query = query;
    for (size_t c = 0; c < 5; ++c) {
      std::vector<uint32_t> doc(4 + c);
      for (uint32_t& t : doc) {
        t = Word(config, &rng);
      }
      request.docs.push_back(std::move(doc));
      request.planted_r.push_back(0.2f * static_cast<float>(c));
    }
    SCOPED_TRACE(::testing::Message() << "query of " << query.size() << " tokens");
    const size_t seq = ChooseSeqLen(config, request.query, request.docs);
    const size_t prefix = SharedPrefixLen(config, request.query.size(), seq);
    for (size_t c = 0; c < request.docs.size(); ++c) {
      EXPECT_EQ(BuildPairInput(config, request.query, request.docs[c], request.planted_r[c], seq)
                    .sep,
                prefix - 1);
    }
    const RerankResult truth = hf.Rerank(request);
    const RerankResult got = engine.RerankUnpruned(request);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ASSERT_EQ(got.scores.size(), truth.scores.size());
    EXPECT_TRUE(SameBits(got.scores.data(), truth.scores.data(), got.scores.size()));
  }
}

// Encoders share nothing: P = 0, the engine holds n·T hidden rows, and its
// scores stay HfRunner's.
TEST(SharedPrefixEncoderTest, EncoderSharesNothingAndMatchesHf) {
  for (const ModelCase& model : {ModelCase{"TestEncoder", TestModel(ModelArch::kEncoderOnly)},
                                 ModelCase{"BgeM3", BgeRerankerV2M3()}}) {
    const ModelConfig& config = model.config;
    const std::vector<RerankRequest> requests = MakeRequests(config, 12);
    for (const Precision precision : kAllPrecisions) {
      SCOPED_TRACE(::testing::Message() << model.name << " " << PrecisionName(precision));
      const std::string ckpt = TestCheckpoint(config, precision);
      MemoryTracker hf_tracker;
      HfRunnerOptions hf_options;
      hf_options.device = FastDevice();
      hf_options.precision = precision;
      HfRunner hf(config, ckpt, hf_options, &hf_tracker);
      PrismOptions options;
      options.device = FastDevice();
      options.precision = precision;
      MemoryTracker tracker;
      PrismEngine engine(config, ckpt, options, &tracker);
      int64_t largest = 0;
      for (size_t r = 3 * static_cast<size_t>(precision) % 4; r < requests.size(); r += 4) {
        const RerankRequest& request = requests[r];
        const size_t seq = ChooseSeqLen(config, request.query, request.docs);
        EXPECT_EQ(SharedPrefixLen(config, request.query.size(), seq), 0u);
        const RerankResult truth = hf.Rerank(request);
        const RerankResult got = engine.RerankUnpruned(request);
        ASSERT_EQ(got.scores.size(), truth.scores.size());
        EXPECT_TRUE(SameBits(got.scores.data(), truth.scores.data(), got.scores.size()))
            << "request " << r;
        largest = std::max(largest, static_cast<int64_t>(request.docs.size() * seq *
                                                         config.hidden * sizeof(float)));
      }
      EXPECT_EQ(tracker.PeakBytes(MemCategory::kHiddenStates), largest);
    }
  }
}

// The prefix is [BOS], the kept query and [SEP], so its length follows the
// query length class; the test requests really are in the classes they name.
TEST(SharedPrefixLenTest, FollowsTheKeptQuery) {
  const ModelConfig config = Qwen3Reranker0_6B();
  const std::vector<RerankRequest> requests = MakeRequests(config, 11);
  ASSERT_EQ(requests.size(), 12u);
  for (size_t r = 0; r < requests.size(); ++r) {
    const RerankRequest& request = requests[r];
    const size_t q = request.query.size();
    const size_t seq = ChooseSeqLen(config, request.query, request.docs);
    const size_t prefix = SharedPrefixLen(config, q, seq);
    switch (r / 3) {
      case 0:
        EXPECT_EQ(prefix, 2u);
        break;
      case 1:
        EXPECT_EQ(prefix, 3u);
        break;
      case 2:
        EXPECT_EQ(q, seq / 3);
        EXPECT_EQ(prefix, q + 2);
        break;
      default:
        EXPECT_GT(q, seq / 3);
        EXPECT_EQ(prefix, seq / 3 + 2);
        break;
    }
    const PairInput pair = BuildPairInput(config, request.query, request.docs[0],
                                          request.planted_r[0], seq);
    EXPECT_EQ(pair.tokens[0], kBosToken);
    EXPECT_EQ(pair.tokens[prefix - 1], kSepToken);
    EXPECT_EQ(pair.sep, prefix - 1);
  }
  EXPECT_EQ(SharedPrefixLen(TestModel(ModelArch::kEncoderOnly), 5, 20), 0u);
}

}  // namespace
}  // namespace prism
