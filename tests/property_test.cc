// Property-based tests: hundreds of randomized cases from a seeded RNG,
// asserting the invariants PlanChunkCandidates and DecidePrune promise
// rather than hand-picked examples. Failures print the case's derived seed
// so any counterexample replays deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/pruner.h"
#include "src/core/service.h"
#include "src/core/stages.h"
#include "src/model/layer.h"
#include "src/tensor/ops.h"
#include "src/tensor/quant.h"
#include "tests/test_util.h"

namespace prism {
namespace {

constexpr uint64_t kSuiteSeed = 0xBEEF5EED;
constexpr int kCases = 300;

// --- ChunkPlanner::PlanCandidates -----------------------------------------

struct PlannerCase {
  size_t n = 0;
  size_t seq_len = 0;
  int64_t budget = 0;
  size_t chunk_candidates = 0;
  bool chunked = true;
  bool offload_hidden = false;
};

size_t Plan(const ModelConfig& config, const PlannerCase& c) {
  PrismOptions options;
  options.chunked = c.chunked;
  options.chunk_candidates = c.chunk_candidates;
  options.offload_hidden = c.offload_hidden;
  options.device.activation_budget_bytes = c.budget;
  StageResources resources;
  resources.config = &config;
  resources.options = &options;
  const ChunkPlanner planner(resources);
  return planner.PlanCandidates(c.n, c.seq_len);
}

PlannerCase RandomPlannerCase(Rng& rng) {
  PlannerCase c;
  c.n = 1 + rng.NextBelow(80);
  c.seq_len = 8 + rng.NextBelow(120);
  // From starved (forces the floor) to roomy (fits everything).
  c.budget = static_cast<int64_t>(1) << (10 + rng.NextBelow(16));
  if (rng.NextDouble() < 0.2) {
    c.chunk_candidates = 1 + rng.NextBelow(16);
  }
  return c;
}

TEST(PlannerPropertyTest, PlanRespectsBoundsBudgetAndFloor) {
  const ModelConfig config = TestModel();
  Rng rng(kSuiteSeed);
  for (int i = 0; i < kCases; ++i) {
    const PlannerCase c = RandomPlannerCase(rng);
    const size_t plan = Plan(config, c);
    SCOPED_TRACE(::testing::Message() << "case " << i << ": n=" << c.n << " seq_len="
                                      << c.seq_len << " budget=" << c.budget
                                      << " chunk_candidates=" << c.chunk_candidates);
    ASSERT_GE(plan, 1u);
    ASSERT_LE(plan, c.n);
    if (c.chunk_candidates > 0) {
      ASSERT_EQ(plan, std::min(c.chunk_candidates, c.n));
      continue;
    }
    // Budget floor of 2: the plan never goes below min(2, n) however starved
    // the budget is.
    ASSERT_GE(plan, std::min<size_t>(2, c.n));
    // Above the floor, the plan must fit the budget...
    const int64_t scratch =
        LayerScratch::BytesFor(config, plan * c.seq_len, c.seq_len, 1);
    if (plan > std::min<size_t>(2, c.n)) {
      ASSERT_LE(scratch, c.budget);
    }
    // ...and be maximal: one more candidate must not also fit.
    if (plan < c.n) {
      ASSERT_GT(LayerScratch::BytesFor(config, (plan + 1) * c.seq_len, c.seq_len, 1), c.budget);
    }
  }
}

TEST(PlannerPropertyTest, OffloadPlanSplitsIntoEnoughChunks) {
  // With hidden-state offload the plan is the budget's plan capped at
  // ⌈n / kOffloadMinChunks⌉ candidates, still floored at min(2, n).
  const ModelConfig config = TestModel();
  Rng rng(kSuiteSeed + 2);
  for (int i = 0; i < kCases; ++i) {
    PlannerCase c = RandomPlannerCase(rng);
    c.chunk_candidates = 0;
    const size_t budget_plan = Plan(config, c);
    c.offload_hidden = true;
    const size_t plan = Plan(config, c);
    SCOPED_TRACE(::testing::Message() << "case " << i << ": n=" << c.n << " seq_len="
                                      << c.seq_len << " budget=" << c.budget);
    const size_t cap = (c.n + ChunkPlanner::kOffloadMinChunks - 1) /
                       ChunkPlanner::kOffloadMinChunks;
    ASSERT_EQ(plan, std::max(std::min<size_t>(2, c.n), std::min(budget_plan, cap)));
  }
}

TEST(PlannerPropertyTest, PlanIsDeterministicAndUnchunkedPassesThrough) {
  const ModelConfig config = TestModel();
  Rng rng(kSuiteSeed + 1);
  for (int i = 0; i < kCases; ++i) {
    PlannerCase c = RandomPlannerCase(rng);
    ASSERT_EQ(Plan(config, c), Plan(config, c)) << "case " << i;
    c.chunked = false;
    ASSERT_EQ(Plan(config, c), c.n) << "case " << i;
  }
}

// --- DecidePrune ----------------------------------------------------------

std::vector<float> RandomScores(Rng& rng, size_t m) {
  std::vector<float> scores(m);
  for (float& s : scores) {
    s = static_cast<float>(rng.NextGaussian());
  }
  // Duplicates exercise tie handling in clustering and ranking.
  if (m >= 2 && rng.NextDouble() < 0.3) {
    scores[rng.NextBelow(m)] = scores[rng.NextBelow(m)];
  }
  return scores;
}

TEST(PrunerPropertyTest, DecisionPartitionsActiveSet) {
  Rng rng(kSuiteSeed + 2);
  for (int i = 0; i < kCases; ++i) {
    const size_t m = 1 + rng.NextBelow(40);
    const std::vector<float> scores = RandomScores(rng, m);
    const size_t remaining_k = 1 + rng.NextBelow(m);
    PrunerOptions options;
    options.dispersion_threshold = static_cast<float>(rng.NextUniform(0.0, 1.2));
    options.prune_winners = rng.NextDouble() < 0.8;
    options.seed = MixSeed(kSuiteSeed, static_cast<uint64_t>(i));
    const PruneDecision decision = DecidePrune(scores, remaining_k, options);

    SCOPED_TRACE(::testing::Message() << "case " << i << ": m=" << m << " k=" << remaining_k
                                      << " threshold=" << options.dispersion_threshold
                                      << " prune_winners=" << options.prune_winners);
    // The three lists partition [0, m): the kept set (selected ∪ deferred)
    // plus dropped covers every candidate exactly once — nothing invented,
    // nothing lost.
    std::set<size_t> seen;
    for (const auto* list : {&decision.selected, &decision.dropped, &decision.deferred}) {
      for (size_t idx : *list) {
        ASSERT_LT(idx, m);
        ASSERT_TRUE(seen.insert(idx).second) << "index " << idx << " in two lists";
      }
    }
    ASSERT_EQ(seen.size(), m);
    ASSERT_LE(decision.selected.size(), remaining_k);
    // The remaining_k-th ranked candidate is never dropped when winners are
    // pruned (it defines the boundary cluster).
    if (options.prune_winners) {
      std::vector<size_t> order(m);
      for (size_t j = 0; j < m; ++j) {
        order[j] = j;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) { return scores[a] > scores[b]; });
      const size_t kth = order[remaining_k - 1];
      ASSERT_EQ(std::count(decision.dropped.begin(), decision.dropped.end(), kth), 0)
          << "k-th ranked candidate " << kth << " was dropped";
    }
    // Termination implies every remaining slot is accounted for.
    if (decision.terminate) {
      ASSERT_TRUE(decision.deferred.empty());
      ASSERT_LE(decision.selected.size(), remaining_k);
    }
  }
}

// --- Carousel plan adherence ----------------------------------------------

// Invariant: the carousel never forwards a request through a layer outside
// its plan. A request's plan is exactly the layer sequence 0..d-1 the serial
// engine runs for it (d = layers_until_done, cut short by pruning), and each
// layer contributes the active candidate count to candidate_layers. If the
// carousel ever stepped a request through an extra, missing, or out-of-order
// layer, at least one of {layers_until_done, candidate_layers, scores}
// would diverge from serial — and the depth-tag CHECK inside
// LayerLoop::ForwardGroup would abort the binary outright. Randomized request
// shapes, priorities, and carousel capacities; seeded for replay.
TEST(CarouselPropertyTest, NoRequestForwardedOutsideItsPlan) {
  constexpr int kRounds = 6;
  constexpr size_t kRequestsPerRound = 6;
  const ModelConfig config = TestModel();
  const std::string ckpt = TestCheckpoint(config);
  Rng rng(kSuiteSeed + 4);

  for (int round = 0; round < kRounds; ++round) {
    std::vector<RerankRequest> requests;
    requests.reserve(kRequestsPerRound);
    for (size_t i = 0; i < kRequestsPerRound; ++i) {
      const size_t n = 4 + rng.NextBelow(10);
      const size_t k = 1 + rng.NextBelow(n);
      requests.push_back(
          TestRequest(config, n, k, rng.NextBelow(16), i % 2 == 0 ? "wikipedia" : "lotte"));
      requests.back().priority = static_cast<int>(rng.NextBelow(3));
    }

    MemoryTracker serial_tracker;
    ServiceOptions serial_options;
    serial_options.engine.device = FastDevice();
    RerankService serial(config, ckpt, serial_options, &serial_tracker);
    std::vector<RerankResult> reference;
    reference.reserve(requests.size());
    for (const RerankRequest& request : requests) {
      reference.push_back(serial.Rerank(request));
    }

    MemoryTracker tracker;
    ServiceOptions options;
    options.engine.device = FastDevice();
    options.scheduler = SchedulerKind::kCarousel;
    options.max_inflight = 2 + static_cast<size_t>(round % 3);
    options.compute_threads = 2;
    RerankService service(config, ckpt, options, &tracker);
    std::vector<RerankResult> results(requests.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests.size(); ++i) {
      clients.emplace_back([&, i] { results[i] = service.Rerank(requests[i]); });
    }
    for (std::thread& t : clients) {
      t.join();
    }

    for (size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "round " << round << " request " << i << " n=" << requests[i].docs.size()
                   << " k=" << requests[i].k << " max_inflight=" << options.max_inflight);
      ASSERT_TRUE(results[i].status.ok());
      // Same layer plan, layer for layer…
      ASSERT_EQ(results[i].stats.layers_until_done, reference[i].stats.layers_until_done);
      ASSERT_LE(results[i].stats.layers_until_done, config.n_layers);
      ASSERT_EQ(results[i].stats.candidate_layers, reference[i].stats.candidate_layers);
      // …and bit-identical numerics on top.
      ASSERT_EQ(results[i].topk, reference[i].topk);
      ASSERT_EQ(results[i].scores, reference[i].scores);
    }
  }
}

// --- Precision tiers ------------------------------------------------------

std::vector<float> RandomMatrix(Rng& rng, size_t n, float scale = 0.1f) {
  std::vector<float> w(n);
  for (float& v : w) {
    v = static_cast<float>(rng.NextGaussian()) * scale;
  }
  return w;
}

// Random shape with cols a multiple of a random group size.
void RandomShape(Rng& rng, size_t* rows, size_t* cols, size_t* group) {
  *rows = 1 + rng.NextBelow(24);
  *group = size_t{8} << rng.NextBelow(3);  // 8, 16, 32.
  *cols = *group * (1 + rng.NextBelow(6));
}

TEST(PrecisionPropertyTest, Int8RoundtripBoundedByHalfScale) {
  Rng rng(kSuiteSeed + 5);
  for (int i = 0; i < kCases; ++i) {
    size_t rows = 0;
    size_t cols = 0;
    size_t group = 0;
    RandomShape(rng, &rows, &cols, &group);
    SCOPED_TRACE(::testing::Message() << "case " << i << ": " << rows << "x" << cols
                                      << " group " << group);
    const std::vector<float> w = RandomMatrix(rng, rows * cols);
    std::vector<uint8_t> encoded(MatrixSpanBytes(Precision::kInt8, rows, cols, group));
    std::vector<float> back(rows * cols);
    EncodeMatrix(Precision::kInt8, w.data(), rows, cols, group, encoded.data());
    DecodeMatrix(Precision::kInt8, encoded.data(), rows, cols, group, back.data());
    const float bound =
        MaxGroupScale(Precision::kInt8, encoded.data(), rows, cols, group) * 0.5f + 1e-7f;
    for (size_t j = 0; j < w.size(); ++j) {
      ASSERT_LE(std::fabs(w[j] - back[j]), bound) << "element " << j;
    }
  }
}

TEST(PrecisionPropertyTest, Fp16RoundtripBoundedByHalfUlp) {
  // For normal halves the relative error of round-to-nearest is <= 2^-11;
  // subnormals add an absolute floor of half the smallest subnormal step
  // (2^-25). Values are drawn across magnitudes via a random exponent.
  Rng rng(kSuiteSeed + 6);
  for (int i = 0; i < kCases; ++i) {
    const float mag = std::ldexp(1.0f, static_cast<int>(rng.NextBelow(30)) - 20);
    const float v = static_cast<float>(rng.NextGaussian()) * mag;
    const float back = Fp16ToFp32(Fp32ToFp16(v));
    const float bound = std::fabs(v) / 2048.0f + 6e-8f;
    ASSERT_LE(std::fabs(v - back), bound) << "case " << i << " v=" << v;
  }
}

TEST(PrecisionPropertyTest, EncodeIsDeterministic) {
  Rng rng(kSuiteSeed + 7);
  for (int i = 0; i < 40; ++i) {
    size_t rows = 0;
    size_t cols = 0;
    size_t group = 0;
    RandomShape(rng, &rows, &cols, &group);
    const std::vector<float> w = RandomMatrix(rng, rows * cols);
    for (const Precision precision : kAllPrecisions) {
      std::vector<uint8_t> once(MatrixSpanBytes(precision, rows, cols, group));
      std::vector<uint8_t> twice(once.size());
      EncodeMatrix(precision, w.data(), rows, cols, group, once.data());
      EncodeMatrix(precision, w.data(), rows, cols, group, twice.data());
      ASSERT_EQ(once, twice) << "case " << i << " precision " << PrecisionName(precision);
    }
  }
}

// The fused dequantising GEMM must equal decode-then-GEMM at every precision
// — the property that makes streaming reduced-precision blobs equivalent to
// materialising fp32 weights.
TEST(PrecisionPropertyTest, FusedMatMulEqualsDecodeThenGemm) {
  Rng rng(kSuiteSeed + 8);
  for (int i = 0; i < 60; ++i) {
    size_t rows = 0;
    size_t cols = 0;
    size_t group = 0;
    RandomShape(rng, &rows, &cols, &group);
    rows += 16 * static_cast<size_t>(i % 3);  // Up to four 16-row panels, mostly partial.
    const size_t m = 1 + rng.NextBelow(6);
    const std::vector<float> w = RandomMatrix(rng, rows * cols);
    const std::vector<float> a = RandomMatrix(rng, m * cols, 1.0f);
    for (const Precision precision : kAllPrecisions) {
      SCOPED_TRACE(::testing::Message() << "case " << i << ": " << rows << "x" << cols
                                        << " group " << group << " m " << m << " "
                                        << PrecisionName(precision));
      std::vector<uint8_t> encoded(MatrixSpanBytes(precision, rows, cols, group));
      EncodeMatrix(precision, w.data(), rows, cols, group, encoded.data());
      std::vector<float> decoded(rows * cols);
      DecodeMatrix(precision, encoded.data(), rows, cols, group, decoded.data());
      std::vector<float> expected(m * rows, 0.0f);
      for (size_t r = 0; r < m; ++r) {
        for (size_t j = 0; j < rows; ++j) {
          double acc = 0.0;
          for (size_t k = 0; k < cols; ++k) {
            acc += static_cast<double>(a[r * cols + k]) * decoded[j * cols + k];
          }
          expected[r * rows + j] = static_cast<float>(acc);
        }
      }
      std::vector<float> got(m * rows, 0.0f);
      const uint8_t* p = encoded.data();
      switch (precision) {
        case Precision::kFp32: {
          MatMulTransBRaw(a.data(), m, cols, reinterpret_cast<const float*>(p), rows,
                          got.data());
          break;
        }
        case Precision::kFp16: {
          Fp16MatrixView view{reinterpret_cast<const uint16_t*>(p), rows, cols};
          view.MatMulTransB(a.data(), m, got.data());
          break;
        }
        case Precision::kInt8: {
          Int8MatrixView view{reinterpret_cast<const int8_t*>(p),
                              reinterpret_cast<const float*>(p + rows * cols), rows, cols,
                              group};
          view.MatMulTransB(a.data(), m, got.data());
          break;
        }
        case Precision::kW4: {
          QuantMatrixView view{p, reinterpret_cast<const float*>(p + rows * cols / 2), rows,
                               cols, group};
          view.MatMulTransB(a.data(), m, got.data());
          break;
        }
      }
      for (size_t j = 0; j < got.size(); ++j) {
        ASSERT_NEAR(got[j], expected[j], 2e-3f) << "element " << j;
      }
      // And bit for bit: every tier runs the fp32 kernel on its decoded weights.
      std::vector<float> unfused(m * rows);
      MatMulTransBRaw(a.data(), m, cols, decoded.data(), rows, unfused.data());
      ASSERT_EQ(std::memcmp(got.data(), unfused.data(), got.size() * sizeof(float)), 0);
    }
  }
}

// Scores perturbed by a storage tier (encode→decode roundtrip) are still
// just scores: DecidePrune must keep every invariant, in particular that the
// remaining_k-th ranked candidate survives.
TEST(PrecisionPropertyTest, PruningUnderQuantizedScoresKeepsKth) {
  Rng rng(kSuiteSeed + 9);
  for (int i = 0; i < kCases; ++i) {
    const size_t m = 2 + rng.NextBelow(30);
    std::vector<float> scores = RandomScores(rng, m);
    for (float& s : scores) {
      s = 0.5f + 0.4f * std::tanh(s);  // Probability-like, as served.
    }
    // Perturb through a random tier's roundtrip. int8/w4 quantise the score
    // vector as one group-sized row (padding with zeros).
    const Precision precision = kAllPrecisions[1 + rng.NextBelow(3)];
    if (precision == Precision::kFp16) {
      for (float& s : scores) {
        s = Fp16ToFp32(Fp32ToFp16(s));
      }
    } else {
      const size_t group = 16;
      const size_t padded = (m + group - 1) / group * group;
      std::vector<float> row(padded, 0.0f);
      std::copy(scores.begin(), scores.end(), row.begin());
      std::vector<uint8_t> encoded(MatrixSpanBytes(precision, 1, padded, group));
      EncodeMatrix(precision, row.data(), 1, padded, group, encoded.data());
      DecodeMatrix(precision, encoded.data(), 1, padded, group, row.data());
      std::copy(row.begin(), row.begin() + static_cast<ptrdiff_t>(m), scores.begin());
    }

    const size_t remaining_k = 1 + rng.NextBelow(m);
    PrunerOptions options;
    options.dispersion_threshold = static_cast<float>(rng.NextUniform(0.0, 1.2));
    options.prune_winners = true;
    options.seed = MixSeed(kSuiteSeed, static_cast<uint64_t>(i));
    const PruneDecision decision = DecidePrune(scores, remaining_k, options);

    SCOPED_TRACE(::testing::Message() << "case " << i << ": m=" << m << " k=" << remaining_k
                                      << " precision=" << PrecisionName(precision));
    std::set<size_t> seen;
    for (const auto* list : {&decision.selected, &decision.dropped, &decision.deferred}) {
      for (size_t idx : *list) {
        ASSERT_LT(idx, m);
        ASSERT_TRUE(seen.insert(idx).second);
      }
    }
    ASSERT_EQ(seen.size(), m);
    std::vector<size_t> order(m);
    for (size_t j = 0; j < m; ++j) {
      order[j] = j;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return scores[a] > scores[b]; });
    const size_t kth = order[remaining_k - 1];
    ASSERT_EQ(std::count(decision.dropped.begin(), decision.dropped.end(), kth), 0)
        << "k-th ranked candidate " << kth << " dropped under "
        << PrecisionName(precision) << " scores";
  }
}

TEST(PrunerPropertyTest, DecisionIsDeterministicForFixedSeed) {
  Rng rng(kSuiteSeed + 3);
  for (int i = 0; i < kCases; ++i) {
    const size_t m = 2 + rng.NextBelow(30);
    const std::vector<float> scores = RandomScores(rng, m);
    const size_t remaining_k = 1 + rng.NextBelow(m);
    PrunerOptions options;
    options.dispersion_threshold = 0.1f;  // Trigger clustering often.
    options.seed = MixSeed(kSuiteSeed, static_cast<uint64_t>(i));
    const PruneDecision first = DecidePrune(scores, remaining_k, options);
    const PruneDecision second = DecidePrune(scores, remaining_k, options);
    ASSERT_EQ(first.triggered, second.triggered) << "case " << i;
    ASSERT_EQ(first.terminate, second.terminate) << "case " << i;
    ASSERT_EQ(first.selected, second.selected) << "case " << i;
    ASSERT_EQ(first.dropped, second.dropped) << "case " << i;
    ASSERT_EQ(first.deferred, second.deferred) << "case " << i;
  }
}

}  // namespace
}  // namespace prism
