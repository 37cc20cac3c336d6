#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/gemm.h"
#include "src/tensor/vmath.h"

namespace prism {

void MatMul(const Tensor& a, const Tensor& b, Tensor* c) {
  PRISM_CHECK_EQ(a.cols(), b.rows());
  PRISM_CHECK_EQ(c->rows(), a.rows());
  PRISM_CHECK_EQ(c->cols(), b.cols());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c->data();
  std::fill(pc, pc + m * n, 0.0f);
  // i-k-j loop order keeps B rows streaming and C rows hot.
  for (size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) {
        continue;
      }
      const float* brow = pb + kk * n;
      for (size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void MatMulTransBRaw(const float* a, size_t m, size_t k, const float* b, size_t n, float* c) {
  MatMulTransBStrided(a, k, m, k, b, k, n, c, n);
}

void MatMulTransBStrided(const float* a, size_t lda, size_t m, size_t k, const float* b,
                         size_t ldb, size_t n, float* c, size_t ldc) {
  gemm::MatMulTransBStrided(a, lda, m, k, b, ldb, n, c, ldc, gemm::SelectedTile());
}

void MatMulSplitB(const float* a, size_t lda, size_t m, size_t k, const float* b_head,
                  size_t k_head, const float* b_tail, size_t ldb, size_t n, float* c,
                  size_t ldc) {
  PRISM_CHECK_LE(k_head, k);
  // B's rows already hold the panel's layout: lanes l of panel row kk are
  // B[kk][j0 + l], so decoding a strip is one copy per kk.
  gemm::MatMulTransBPanels(a, lda, m, k, n, c, ldc, gemm::SelectedTile(),
                           [&](size_t j0, size_t nr, float* panel) {
                             for (size_t kk = 0; kk < k; ++kk) {
                               const float* row = kk < k_head ? b_head + kk * ldb
                                                              : b_tail + (kk - k_head) * ldb;
                               std::copy_n(row + j0, nr, panel + kk * gemm::kNr);
                             }
                           });
}

void MatMulTransB(const Tensor& a, const Tensor& b, Tensor* c) {
  PRISM_CHECK_EQ(a.cols(), b.cols());
  PRISM_CHECK_EQ(c->rows(), a.rows());
  PRISM_CHECK_EQ(c->cols(), b.rows());
  MatMulTransBRaw(a.data(), a.rows(), a.cols(), b.data(), b.rows(), c->data());
}

void AddInPlace(Tensor* y, const Tensor& x) {
  PRISM_CHECK_EQ(y->size(), x.size());
  float* py = y->data();
  const float* px = x.data();
  for (size_t i = 0, e = y->size(); i < e; ++i) {
    py[i] += px[i];
  }
}

void AddBiasInPlace(Tensor* t, std::span<const float> bias) {
  PRISM_CHECK_EQ(t->cols(), bias.size());
  for (size_t r = 0; r < t->rows(); ++r) {
    auto row = t->row(r);
    for (size_t c = 0; c < row.size(); ++c) {
      row[c] += bias[c];
    }
  }
}

void RmsNormInPlace(float* x, size_t rows, std::span<const float> gain, float eps) {
  const size_t cols = gain.size();
  for (size_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    double sum_sq = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      sum_sq += static_cast<double>(row[c]) * row[c];
    }
    const float inv_rms =
        1.0f / std::sqrt(static_cast<float>(sum_sq / static_cast<double>(cols)) + eps);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = row[c] * inv_rms * gain[c];
    }
  }
}

void RmsNormInPlace(Tensor* t, size_t rows, std::span<const float> gain, float eps) {
  PRISM_CHECK_LE(rows, t->rows());
  PRISM_CHECK_EQ(t->cols(), gain.size());
  RmsNormInPlace(t->data(), rows, gain, eps);
}

void LayerNormInPlace(float* x, size_t rows, std::span<const float> gain,
                      std::span<const float> bias, float eps) {
  const size_t cols = gain.size();
  PRISM_CHECK_EQ(cols, bias.size());
  for (size_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    double mean = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      mean += row[c];
    }
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      const double d = row[c] - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = (row[c] - static_cast<float>(mean)) * inv_std * gain[c] + bias[c];
    }
  }
}

void LayerNormInPlace(Tensor* t, size_t rows, std::span<const float> gain,
                      std::span<const float> bias, float eps) {
  PRISM_CHECK_LE(rows, t->rows());
  PRISM_CHECK_EQ(t->cols(), gain.size());
  LayerNormInPlace(t->data(), rows, gain, bias, eps);
}

void SoftmaxRowInPlace(std::span<float> row, ptrdiff_t causal_limit, float scale) {
  vmath::Selected().softmax(row.data(), row.size(), causal_limit, scale);
}

void SwiGluInPlace(std::span<float> gate, std::span<const float> up) {
  PRISM_CHECK_EQ(gate.size(), up.size());
  vmath::Selected().swiglu(gate.data(), up.data(), gate.size());
}

void GeluInPlace(std::span<float> x) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  for (float& v : x) {
    v = 0.5f * v * (1.0f + std::tanh(kSqrt2OverPi * (v + 0.044715f * v * v * v)));
  }
}

float Dot(std::span<const float> a, std::span<const float> b) {
  PRISM_CHECK_EQ(a.size(), b.size());
  float acc = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

}  // namespace prism
