#include "src/model/synthetic.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/model/weights.h"
#include "src/storage/blob_file.h"
#include "src/tensor/quant.h"

namespace prism {

namespace {

// Fills `n` floats with N(0, std²).
void FillGaussian(Rng& rng, float* dst, size_t n, float std) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<float>(rng.NextGaussian()) * std;
  }
}

std::span<const uint8_t> AsBytes(const std::vector<float>& v) {
  return {reinterpret_cast<const uint8_t*>(v.data()), v.size() * sizeof(float)};
}

// Builds one fp32 layer blob. Init scales follow the residual-perturbation
// calibration (docs/ARCHITECTURE.md, "Synthetic weights and planted
// relevance"): with RMSNorm'd inputs (per-component ≈ 1), a projection with
// entries N(0, s²) produces outputs with per-component RMS ≈ s·√D, so
// chaining two projections (attention value→output, FFN up→down) yields
// ≈ s²·D. Solving s²·D = kLayerNoise gives s = √(kLayerNoise / D).
//
// On top of the random base, Wv and Wo receive a rank-1 v·vᵀ component
// (`kAmplify`): the value of every token carries its hidden state's
// v-component, and the output projection writes it back along v. Attention
// therefore aggregates the doc-tokens' planted relevance into the pooled
// position a little more each layer — the mechanism behind the progressive
// score divergence of Fig 2(a).
std::vector<float> MakeLayerBlob(const ModelConfig& config, Rng& rng,
                                 const std::vector<float>& v) {
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  const float s_attn = std::sqrt(kLayerNoise / static_cast<float>(d));
  const float s_ffn = std::sqrt(kLayerNoise / std::sqrt(static_cast<float>(d * f)));
  std::vector<float> blob(LayerBlobBytes(config, Precision::kFp32) / sizeof(float));
  float* p = blob.data();
  FillGaussian(rng, p, d * d, s_attn);  // wq
  p += d * d;
  FillGaussian(rng, p, d * d, s_attn);  // wk
  p += d * d;
  FillGaussian(rng, p, d * d, s_attn);  // wv
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      p[i * d + j] += kAmplify * v[i] * v[j];
    }
  }
  p += d * d;
  FillGaussian(rng, p, d * d, s_attn);  // wo
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      p[i * d + j] += kAmplify * v[i] * v[j];
    }
  }
  p += d * d;
  if (config.arch == ModelArch::kDecoderOnly) {
    FillGaussian(rng, p, f * d, s_ffn);  // w_gate
    p += f * d;
  }
  FillGaussian(rng, p, f * d, s_ffn);  // w_up
  p += f * d;
  FillGaussian(rng, p, d * f, s_ffn);  // w_down
  p += d * f;
  // Norm gains near 1 with small jitter; biases near 0.
  for (size_t i = 0; i < d; ++i) {
    p[i] = 1.0f + 0.02f * static_cast<float>(rng.NextGaussian());
  }
  p += d;
  for (size_t i = 0; i < d; ++i) {
    p[i] = 0.01f * static_cast<float>(rng.NextGaussian());
  }
  p += d;
  for (size_t i = 0; i < d; ++i) {
    p[i] = 1.0f + 0.02f * static_cast<float>(rng.NextGaussian());
  }
  p += d;
  for (size_t i = 0; i < d; ++i) {
    p[i] = 0.01f * static_cast<float>(rng.NextGaussian());
  }
  return blob;
}

// Re-encodes the big matrices of an fp32 layer blob at a reduced precision;
// norms stay fp32.
std::vector<uint8_t> ConvertLayerBlob(const ModelConfig& config,
                                      const std::vector<float>& f32_blob, Precision precision) {
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  std::vector<std::pair<size_t, size_t>> dims = {{d, d}, {d, d}, {d, d}, {d, d}};
  if (config.arch == ModelArch::kDecoderOnly) {
    dims.push_back({f, d});
  }
  dims.push_back({f, d});
  dims.push_back({d, f});

  std::vector<uint8_t> out(LayerBlobBytes(config, precision));
  const float* src = f32_blob.data();
  uint8_t* dst = out.data();
  for (const auto& [rows, cols] : dims) {
    EncodeMatrix(precision, src, rows, cols, config.quant_group, dst);
    dst += MatrixSpanBytes(precision, rows, cols, config.quant_group);
    src += rows * cols;
  }
  // Copy the trailing norm floats verbatim.
  const size_t norm_bytes = 4 * d * sizeof(float);
  std::memcpy(dst, src, norm_bytes);
  return out;
}

// Checkpoint file suffix per precision ("f32", "f16", "i8", "q4" keep the
// historic spellings short enough for /tmp listings).
const char* PrecisionFileTag(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "f32";
    case Precision::kFp16:
      return "f16";
    case Precision::kInt8:
      return "i8";
    case Precision::kW4:
      return "q4";
  }
  return "f32";
}

}  // namespace

Status GenerateCheckpoint(const ModelConfig& config, uint64_t seed, const std::string& path,
                          Precision precision) {
  PRISM_CHECK_EQ(config.hidden % config.n_heads, 0u);
  PRISM_CHECK_EQ(config.hidden % config.quant_group, 0u);
  PRISM_CHECK_EQ(config.ffn % config.quant_group, 0u);

  BlobFileWriter writer(path);
  const bool grouped = precision == Precision::kInt8 || precision == Precision::kW4;
  const uint32_t layer_group = grouped ? static_cast<uint32_t>(config.quant_group) : 0;

  // Classifier / planted-signal direction v (unit norm), generated first so
  // the layer weights' rank-1 amplification components can reference it.
  const size_t d = config.hidden;
  std::vector<float> v(d);
  {
    Rng head_rng(MixSeed(seed, 0x3000));
    FillGaussian(head_rng, v.data(), d, 1.0f);
    float norm = 0.0f;
    for (size_t i = 0; i < d; ++i) {
      norm += v[i] * v[i];
    }
    norm = std::sqrt(norm);
    for (size_t i = 0; i < d; ++i) {
      v[i] /= norm;
    }
  }

  // Embedding table: unit-norm random rows. Rows are generated independently
  // per token id (seeded by MixSeed) so row content does not depend on vocab
  // iteration order.
  {
    std::vector<float> table(config.vocab_size * d);
    for (size_t tok = 0; tok < config.vocab_size; ++tok) {
      Rng row_rng(MixSeed(seed, 0x1000 + tok));
      float* row = table.data() + tok * d;
      FillGaussian(row_rng, row, d, 1.0f);
      float norm = 0.0f;
      for (size_t i = 0; i < d; ++i) {
        norm += row[i] * row[i];
      }
      norm = std::sqrt(norm);
      for (size_t i = 0; i < d; ++i) {
        row[i] /= norm;
      }
    }
    writer.AddBlob(AsBytes(table));  // Embedding stays fp32 at every tier.
  }

  // Transformer layers.
  for (size_t layer = 0; layer < config.n_layers; ++layer) {
    Rng layer_rng(MixSeed(seed, 0x2000 + layer));
    const std::vector<float> blob = MakeLayerBlob(config, layer_rng, v);
    // Float layers are stored exponent-coded; int8 / w4 codes carry no
    // exponent plane and stay raw.
    if (precision == Precision::kFp32) {
      writer.AddBlob(AsBytes(blob), Precision::kFp32, 0, BlobCodec::kExp32);
    } else {
      const std::vector<uint8_t> encoded = ConvertLayerBlob(config, blob, precision);
      writer.AddBlob(encoded, precision, layer_group,
                     precision == Precision::kFp16 ? BlobCodec::kExp16 : BlobCodec::kRaw);
    }
  }

  // Head: classifier weight = kHeadScale · v, zero bias.
  {
    std::vector<float> head(d + 1);
    for (size_t i = 0; i < d; ++i) {
      head[i] = kHeadScale * v[i];
    }
    head[d] = 0.0f;  // bias
    writer.AddBlob(AsBytes(head));
  }

  return writer.Finish();
}

std::string EnsureCheckpoint(const ModelConfig& config, uint64_t seed, Precision precision) {
  std::string name = config.name;
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  // The format version in the base name keeps these distinct from stale
  // checkpoints of older formats left in /tmp by older builds.
  const std::string base = "/tmp/prism_ckpt_v3_" + name + "_" + std::to_string(seed);
  const std::string path = base + "." + PrecisionFileTag(precision) + ".bin";
  struct stat st{};
  const bool have = ::stat(path.c_str(), &st) == 0 && st.st_size > 0;
  if (!have) {
    // Generate under a pid-unique name and publish with rename() so that
    // concurrent processes (e.g. `ctest -j` binaries sharing a model) never
    // observe a half-written checkpoint; rename() also makes the last
    // concurrent generator win wholesale instead of interleaving writes.
    const std::string tmp = path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const Status status = GenerateCheckpoint(config, seed, tmp, precision);
    PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
    PRISM_CHECK(::rename(tmp.c_str(), path.c_str()) == 0);
  }
  return path;
}

}  // namespace prism
