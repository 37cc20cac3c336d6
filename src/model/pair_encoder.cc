#include "src/model/pair_encoder.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/model/layer.h"

namespace prism {

PairInput BuildPairInput(const ModelConfig& config, const std::vector<uint32_t>& query,
                         const std::vector<uint32_t>& doc, float relevance, size_t seq_len) {
  PRISM_CHECK_GE(seq_len, 8u);
  PRISM_CHECK_LE(seq_len, config.max_seq);
  PRISM_CHECK(!doc.empty());
  PairInput pair;
  pair.relevance = relevance;
  pair.tokens.reserve(seq_len);
  pair.tokens.push_back(kBosToken);
  const size_t q_budget = std::min(query.size(), seq_len / 3);
  for (size_t i = 0; i < q_budget; ++i) {
    pair.tokens.push_back(query[i]);
  }
  pair.tokens.push_back(kSepToken);
  // Fill with doc tokens, cycling if the document is shorter than the budget
  // (synthetic documents make padding semantics unnecessary — see header).
  while (pair.tokens.size() < seq_len - 1) {
    pair.tokens.push_back(doc[(pair.tokens.size() - q_budget - 2) % doc.size()]);
  }
  pair.tokens.push_back(kEosToken);
  PRISM_CHECK_EQ(pair.tokens.size(), seq_len);
  return pair;
}

Tensor MakePositionTable(const ModelConfig& config, MemoryTracker* tracker) {
  const size_t d = config.hidden;
  std::vector<double> freqs;  // One per sin/cos column pair.
  for (size_t i = 0; i < d; i += 2) {
    freqs.push_back(std::pow(10000.0, -static_cast<double>(i) / static_cast<double>(d)));
  }
  Tensor table(config.max_seq, d, MemCategory::kEmbedding, tracker);
  for (size_t t = 0; t < config.max_seq; ++t) {
    auto row = table.row(t);
    for (size_t i = 0; i < d; i += 2) {
      const double angle = static_cast<double>(t) * freqs[i / 2];
      row[i] = 0.05f * static_cast<float>(std::sin(angle));
      if (i + 1 < d) {
        row[i + 1] = 0.05f * static_cast<float>(std::cos(angle));
      }
    }
  }
  return table;
}

void EmbedPairInto(const ModelConfig& config, EmbeddingSource* source, const HeadWeights& head,
                   const Tensor& positions, const PairInput& pair, size_t candidate,
                   size_t seq_len, Tensor* hidden) {
  PRISM_CHECK_EQ(pair.tokens.size(), seq_len);
  const size_t d = config.hidden;
  const size_t base = candidate * seq_len;
  PRISM_CHECK_LE((candidate + 1) * seq_len, hidden->rows());
  PRISM_CHECK_EQ(hidden->cols(), d);
  PRISM_CHECK_LE(seq_len, positions.rows());
  PRISM_CHECK_EQ(positions.cols(), d);
  for (size_t t = 0; t < seq_len; ++t) {
    auto row = hidden->row(base + t);
    source->Lookup(pair.tokens[t], row);
    const auto position = positions.row(t);
    for (size_t i = 0; i < d; ++i) {
      row[i] += position[i];
    }
  }
  // Unit signal direction (head.w = kHeadScale · v).
  std::vector<float> v(head.w);
  {
    float norm = 0.0f;
    for (float x : v) {
      norm += x * x;
    }
    norm = std::sqrt(norm);
    PRISM_CHECK_GT(norm, 0.0f);
    for (float& x : v) {
      x /= norm;
    }
  }

  // Planted relevance on the document tokens: attention aggregates these
  // components into the pooled position layer by layer (see synthetic.cc).
  const float s = pair.relevance - 0.5f;
  size_t sep = 0;
  while (sep < seq_len && pair.tokens[sep] != kSepToken) {
    ++sep;
  }
  PRISM_CHECK_LT(sep, seq_len);
  const float doc_gain = s * kSignalGain;
  for (size_t t = sep + 1; t + 1 < seq_len; ++t) {
    auto row = hidden->row(base + t);
    for (size_t i = 0; i < d; ++i) {
      row[i] += doc_gain * v[i];
    }
  }
  // Weak direct seed at the pooled position so the first layers already carry
  // coarse information.
  auto pool_row = hidden->row(PoolRow(config, candidate, seq_len));
  const float seed_gain = s * kSignalGain * kPoolSeed;
  for (size_t i = 0; i < d; ++i) {
    pool_row[i] += seed_gain * v[i];
  }
}

size_t ChooseSeqLen(const ModelConfig& config, const std::vector<uint32_t>& query,
                    const std::vector<std::vector<uint32_t>>& docs) {
  size_t longest_doc = 1;
  for (const auto& doc : docs) {
    longest_doc = std::max(longest_doc, doc.size());
  }
  const size_t natural = 3 + std::min(query.size(), config.max_seq / 3) + longest_doc;
  return std::clamp<size_t>(natural, 8, config.max_seq);
}

}  // namespace prism
