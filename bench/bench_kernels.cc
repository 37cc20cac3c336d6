// Supporting kernel microbenchmarks (google-benchmark): the GEMM of every
// precision tier (fp32 and the fused fp16 / int8 / w4 dequantising GEMMs) at
// the 0.6B proxy's layer shapes, softmax, SwiGLU, RMSNorm, one whole layer
// forward, the layer-blob decode, 1-D k-means, BM25 — the primitives whose
// costs set the compute side of the overlap window.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/cluster.h"
#include "src/model/config.h"
#include "src/model/layer.h"
#include "src/model/weights.h"
#include "src/retrieval/bm25.h"
#include "src/storage/blob_codec.h"
#include "src/tensor/ops.h"
#include "src/tensor/quant.h"

namespace prism {
namespace {

Tensor RandomTensor(size_t rows, size_t cols, uint64_t seed, MemoryTracker* tracker) {
  Tensor t(rows, cols, MemCategory::kScratch, tracker);
  Rng rng(seed);
  for (float& v : t.flat()) {
    v = static_cast<float>(rng.NextGaussian());
  }
  return t;
}

constexpr size_t kGroup = 32;  // The 0.6B proxy's quant group.

// The 0.6B proxy's projection shapes {m, out, in}: q/k/v/o 96×96, gate/up
// 288×96 and down 96×288, at 64 and 384 input rows (one and six 64-token
// candidates).
void LayerShapes(benchmark::internal::Benchmark* bench) {
  for (const int64_t m : {64, 384}) {
    bench->Args({m, 96, 96})->Args({m, 288, 96})->Args({m, 96, 288});
  }
}

// Times `gemm(a, m, out, in, encoded, c)`, one tier's C = A · Wᵀ over a
// random [out, in] weight encoded at `precision`. Items are 2·m·out·in flops.
template <typename Gemm>
void RunGemm(benchmark::State& state, Precision precision, const Gemm& gemm) {
  const auto m = static_cast<size_t>(state.range(0));
  const auto out = static_cast<size_t>(state.range(1));
  const auto in = static_cast<size_t>(state.range(2));
  MemoryTracker tracker;
  const Tensor a = RandomTensor(m, in, 1, &tracker);
  const Tensor w = RandomTensor(out, in, 2, &tracker);
  std::vector<uint8_t> encoded(MatrixSpanBytes(precision, out, in, kGroup));
  EncodeMatrix(precision, w.data(), out, in, kGroup, encoded.data());
  std::vector<float> c(m * out);
  for (auto _ : state) {
    gemm(a.data(), m, out, in, encoded.data(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * m * out * in));
}

void BM_MatMulTransB(benchmark::State& state) {
  RunGemm(state, Precision::kFp32,
          [](const float* a, size_t m, size_t out, size_t in, const uint8_t* w, float* c) {
            MatMulTransBRaw(a, m, in, reinterpret_cast<const float*>(w), out, c);
          });
}
BENCHMARK(BM_MatMulTransB)->Apply(LayerShapes);

void BM_Fp16MatMulTransB(benchmark::State& state) {
  RunGemm(state, Precision::kFp16,
          [](const float* a, size_t m, size_t out, size_t in, const uint8_t* w, float* c) {
            Fp16MatrixView{reinterpret_cast<const uint16_t*>(w), out, in}.MatMulTransB(a, m, c);
          });
}
BENCHMARK(BM_Fp16MatMulTransB)->Apply(LayerShapes);

void BM_Int8MatMulTransB(benchmark::State& state) {
  RunGemm(state, Precision::kInt8,
          [](const float* a, size_t m, size_t out, size_t in, const uint8_t* w, float* c) {
            Int8MatrixView{reinterpret_cast<const int8_t*>(w),
                           reinterpret_cast<const float*>(w + out * in), out, in, kGroup}
                .MatMulTransB(a, m, c);
          });
}
BENCHMARK(BM_Int8MatMulTransB)->Apply(LayerShapes);

void BM_QuantMatMulTransB(benchmark::State& state) {
  RunGemm(state, Precision::kW4,
          [](const float* a, size_t m, size_t out, size_t in, const uint8_t* w, float* c) {
            QuantMatrixView{w, reinterpret_cast<const float*>(w + out * in / 2), out, in, kGroup}
                .MatMulTransB(a, m, c);
          });
}
BENCHMARK(BM_QuantMatMulTransB)->Apply(LayerShapes);

void BM_SoftmaxRow(benchmark::State& state) {
  std::vector<float> row(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (float& v : row) {
    v = static_cast<float>(rng.NextGaussian());
  }
  for (auto _ : state) {
    SoftmaxRowInPlace(row);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_SoftmaxRow)->Arg(64)->Arg(512);

// SwiGLU over one layer's gate at 64 and 320 rows (one and five 64-token
// candidates) of the 0.6B proxy's 288-wide FFN.
void BM_SwiGlu(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  MemoryTracker tracker;
  const Tensor gate = RandomTensor(1, n, 9, &tracker);
  const Tensor up = RandomTensor(1, n, 10, &tracker);
  std::vector<float> out(n);
  for (auto _ : state) {
    std::copy_n(gate.data(), n, out.data());
    SwiGluInPlace(out, up.flat());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SwiGlu)->Arg(64 * 288)->Arg(320 * 288);

void BM_RmsNorm(benchmark::State& state) {
  MemoryTracker tracker;
  Tensor t = RandomTensor(static_cast<size_t>(state.range(0)), 96, 6, &tracker);
  const std::vector<float> gain(96, 1.0f);
  for (auto _ : state) {
    RmsNormInPlace(&t, t.rows(), gain);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_RmsNorm)->Arg(64)->Arg(1024);

// A random layer blob laid out as ParseAnyLayerBlob reads it: the seven
// matrices (weights ~ N(0, 1/in)) at `precision`, then unit norm gains and
// zero biases.
std::vector<uint8_t> RandomLayerBlob(const ModelConfig& config, Precision precision) {
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  const std::pair<size_t, size_t> shapes[] = {{d, d}, {d, d}, {d, d}, {d, d},
                                              {f, d}, {f, d}, {d, f}};
  std::vector<uint8_t> blob;
  uint64_t seed = 20;
  for (const auto& [out, in] : shapes) {
    MemoryTracker tracker;
    Tensor w = RandomTensor(out, in, ++seed, &tracker);
    for (float& v : w.flat()) {
      v /= std::sqrt(static_cast<float>(in));
    }
    const size_t offset = blob.size();
    blob.resize(offset + MatrixSpanBytes(precision, out, in, config.quant_group));
    EncodeMatrix(precision, w.data(), out, in, config.quant_group, blob.data() + offset);
  }
  std::vector<float> norms(4 * d, 0.0f);
  std::fill_n(norms.begin(), d, 1.0f);
  std::fill_n(norms.begin() + 2 * static_cast<ptrdiff_t>(d), d, 1.0f);
  const auto* bytes = reinterpret_cast<const uint8_t*>(norms.data());
  blob.insert(blob.end(), bytes, bytes + norms.size() * sizeof(float));
  PRISM_CHECK_EQ(blob.size(), LayerBlobBytes(config, precision));
  return blob;
}

// One 0.6B-proxy layer forward over 16 candidates × 64 tokens, at the
// storage precision and LayerForward thread count given as the arguments:
// GEMMs, attention, softmax, SwiGLU, norms. One thread is the serial path (no
// pool); more split the candidates into that many blocks on a pool.
void BM_LayerForward(benchmark::State& state) {
  const auto precision = static_cast<Precision>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  const ModelConfig config = Qwen3Reranker0_6B();
  constexpr size_t kCandidates = 16;
  const size_t seq_len = config.max_seq;
  const size_t rows = kCandidates * seq_len;
  const std::vector<uint8_t> blob = RandomLayerBlob(config, precision);
  const AnyLayerView view = ParseAnyLayerBlob(config, blob, precision);
  MemoryTracker tracker;
  const Tensor input = RandomTensor(rows, config.hidden, 30, &tracker);
  Tensor hidden(rows, config.hidden, MemCategory::kScratch, &tracker);
  LayerScratch scratch = LayerScratch::Make(config, rows, seq_len, threads, &tracker);
  const std::unique_ptr<ThreadPool> pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  for (auto _ : state) {
    std::copy_n(input.data(), input.size(), hidden.data());
    LayerForward(config, view, seq_len, &hidden, &scratch, pool.get());
    benchmark::DoNotOptimize(hidden.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::string(PrecisionName(precision)) + " threads=" + std::to_string(threads));
}
BENCHMARK(BM_LayerForward)
    ->Args({static_cast<int64_t>(Precision::kFp32), 1})
    ->Args({static_cast<int64_t>(Precision::kFp32), 4})
    ->Args({static_cast<int64_t>(Precision::kInt8), 1})
    ->Args({static_cast<int64_t>(Precision::kInt8), 4})
    ->UseRealTime();

// What BlobFileReader::ReadBlob does to one coded 0.6B-proxy layer blob after
// the device read, on the selected kernels: the CRC32C of the stored bytes
// and the in-place decode. Copying the stored bytes into the buffer's tail
// stands in for the read. Bytes processed are decoded bytes.
void BM_DecodeLayerBlob(benchmark::State& state) {
  const auto precision = static_cast<Precision>(state.range(0));
  const BlobCodec codec = precision == Precision::kFp16 ? BlobCodec::kExp16 : BlobCodec::kExp32;
  const std::vector<uint8_t> blob = RandomLayerBlob(Qwen3Reranker0_6B(), precision);
  const std::vector<uint8_t> stored = blob_codec::Encode(codec, blob).value();
  std::vector<uint8_t> buf(blob.size());
  const std::span<uint8_t> tail = std::span<uint8_t>(buf).last(stored.size());
  for (auto _ : state) {
    std::copy(stored.begin(), stored.end(), tail.begin());
    benchmark::DoNotOptimize(blob_codec::Crc32c(tail));
    PRISM_CHECK(blob_codec::DecodeInPlace(codec, buf, stored.size()).ok());
    benchmark::ClobberMemory();
  }
  PRISM_CHECK(buf == blob);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(blob.size()));
  state.SetLabel(std::string(PrecisionName(precision)) + " " + blob_codec::Selected().name +
                 ", stored/decoded " +
                 std::to_string(static_cast<double>(stored.size()) /
                                static_cast<double>(blob.size())));
}
BENCHMARK(BM_DecodeLayerBlob)
    ->Arg(static_cast<int64_t>(Precision::kFp32))
    ->Arg(static_cast<int64_t>(Precision::kFp16))
    ->Unit(benchmark::kMicrosecond);

void BM_ClusterScores(benchmark::State& state) {
  Rng rng(7);
  std::vector<float> scores(static_cast<size_t>(state.range(0)));
  for (float& s : scores) {
    s = static_cast<float>(rng.NextDouble());
  }
  uint64_t seed = 0;
  for (auto _ : state) {
    const Clustering c = ClusterScores(scores, 4, seed++);
    benchmark::DoNotOptimize(c.assignment.data());
  }
}
BENCHMARK(BM_ClusterScores)->Arg(20)->Arg(60);

void BM_Bm25Search(benchmark::State& state) {
  Bm25Index index;
  Rng rng(8);
  for (int d = 0; d < 1000; ++d) {
    std::vector<uint32_t> doc;
    for (int t = 0; t < 30; ++t) {
      doc.push_back(static_cast<uint32_t>(rng.NextBelow(5000)));
    }
    index.Add(doc);
  }
  std::vector<uint32_t> query;
  for (int t = 0; t < 8; ++t) {
    query.push_back(static_cast<uint32_t>(rng.NextBelow(5000)));
  }
  for (auto _ : state) {
    const auto hits = index.Search(query, 10);
    benchmark::DoNotOptimize(hits.data());
  }
}
BENCHMARK(BM_Bm25Search);

}  // namespace
}  // namespace prism

BENCHMARK_MAIN();
