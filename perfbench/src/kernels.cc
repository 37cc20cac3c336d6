#include "perfbench/src/kernels.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/tensor/ops.h"
#include "src/tensor/quant.h"

namespace perfbench {

namespace {

using prism::Precision;

// One projection matrix [out, in] encoded at one precision.
struct Matrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<float> f32;
  std::vector<uint8_t> encoded;
};

std::vector<std::pair<size_t, size_t>> LayerShapes(const prism::ModelConfig& config) {
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  std::vector<std::pair<size_t, size_t>> shapes = {{d, d}, {d, d}, {d, d}, {d, d}};
  if (config.arch == prism::ModelArch::kDecoderOnly) {
    shapes.push_back({f, d});
  }
  shapes.push_back({f, d});
  shapes.push_back({d, f});
  return shapes;
}

void MatMul(Precision precision, const Matrix& w, size_t group, const float* a, size_t m,
            float* c) {
  const uint8_t* p = w.encoded.data();
  switch (precision) {
    case Precision::kFp32:
      prism::MatMulTransBRaw(a, m, w.cols, w.f32.data(), w.rows, c);
      return;
    case Precision::kFp16:
      prism::Fp16MatrixView{reinterpret_cast<const uint16_t*>(p), w.rows, w.cols}
          .MatMulTransB(a, m, c);
      return;
    case Precision::kInt8:
      prism::Int8MatrixView{reinterpret_cast<const int8_t*>(p),
                            reinterpret_cast<const float*>(p + w.rows * w.cols), w.rows, w.cols,
                            group}
          .MatMulTransB(a, m, c);
      return;
    case Precision::kW4:
      prism::QuantMatrixView{p, reinterpret_cast<const float*>(p + w.rows * w.cols / 2), w.rows,
                             w.cols, group}
          .MatMulTransB(a, m, c);
      return;
  }
}

double MeasureTier(const prism::ModelConfig& config, Precision precision, size_t rows,
                   double seconds) {
  prism::Rng rng(prism::MixSeed(0x6E44, static_cast<uint64_t>(precision)));
  std::vector<Matrix> matrices;
  size_t max_dim = 0;
  for (const auto& [out, in] : LayerShapes(config)) {
    Matrix w;
    w.rows = out;
    w.cols = in;
    w.f32.resize(out * in);
    for (float& x : w.f32) {
      x = static_cast<float>(rng.NextGaussian()) * 0.05f;
    }
    w.encoded.resize(prism::MatrixSpanBytes(precision, out, in, config.quant_group));
    prism::EncodeMatrix(precision, w.f32.data(), out, in, config.quant_group, w.encoded.data());
    max_dim = std::max({max_dim, out, in});
    matrices.push_back(std::move(w));
  }
  std::vector<float> a(rows * max_dim);
  for (float& x : a) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> c(rows * max_dim);
  double ops = 0.0;
  const prism::WallTimer timer;
  do {
    for (const Matrix& w : matrices) {
      MatMul(precision, w, config.quant_group, a.data(), rows, c.data());
      ops += 2.0 * static_cast<double>(rows * w.rows * w.cols);
    }
  } while (timer.ElapsedSeconds() < seconds);
  volatile float sink = c[0];
  (void)sink;
  return ops / timer.ElapsedSeconds() / 1e9;
}

}  // namespace

KernelRates MeasureKernels(const prism::ModelConfig& config, size_t rows,
                           double seconds_per_tier) {
  KernelRates rates;
  rates.fp32_gops = MeasureTier(config, Precision::kFp32, rows, seconds_per_tier);
  rates.fp16_gops = MeasureTier(config, Precision::kFp16, rows, seconds_per_tier);
  rates.int8_gops = MeasureTier(config, Precision::kInt8, rows, seconds_per_tier);
  rates.w4_gops = MeasureTier(config, Precision::kW4, rows, seconds_per_tier);
  return rates;
}

double LayerGemmOpsPerRow(const prism::ModelConfig& config) {
  double weights = 0.0;
  for (const auto& [out, in] : LayerShapes(config)) {
    weights += static_cast<double>(out * in);
  }
  return 2.0 * weights;
}

}  // namespace perfbench
