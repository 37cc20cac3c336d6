#include "src/tensor/gemm.h"

#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace prism::gemm {

namespace {

// Each tile is instantiated per row count so the accumulators stay in
// registers; the switch in the public entry point picks the instance.
template <size_t MR>
void PortableRows(const float* a, size_t lda, size_t k, const float* panel, float* c, size_t ldc,
                  size_t nr) {
  float acc[MR][kNr] = {};
  for (size_t kk = 0; kk < k; ++kk) {
    const float* p = panel + kk * kNr;
    for (size_t i = 0; i < MR; ++i) {
      const float av = a[i * lda + kk];
      for (size_t l = 0; l < kNr; ++l) {
        acc[i][l] += av * p[l];
      }
    }
  }
  for (size_t i = 0; i < MR; ++i) {
    std::copy_n(acc[i], nr, c + i * ldc);
  }
}

#if defined(__x86_64__) || defined(__i386__)
template <size_t MR>
__attribute__((target("avx2"))) void Avx2Rows(const float* a, size_t lda, size_t k,
                                              const float* panel, float* c, size_t ldc,
                                              size_t nr) {
  static_assert(kNr == 16, "two 8-lane registers per tile row");
  __m256 lo[MR];
  __m256 hi[MR];
  for (size_t i = 0; i < MR; ++i) {
    lo[i] = _mm256_setzero_ps();
    hi[i] = _mm256_setzero_ps();
  }
  for (size_t kk = 0; kk < k; ++kk) {
    const __m256 p_lo = _mm256_loadu_ps(panel + kk * kNr);
    const __m256 p_hi = _mm256_loadu_ps(panel + kk * kNr + 8);
    for (size_t i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a + i * lda + kk);
      lo[i] = _mm256_add_ps(lo[i], _mm256_mul_ps(av, p_lo));
      hi[i] = _mm256_add_ps(hi[i], _mm256_mul_ps(av, p_hi));
    }
  }
  for (size_t i = 0; i < MR; ++i) {
    float* crow = c + i * ldc;
    if (nr == kNr) {
      _mm256_storeu_ps(crow, lo[i]);
      _mm256_storeu_ps(crow + 8, hi[i]);
    } else {
      float out[kNr];
      _mm256_storeu_ps(out, lo[i]);
      _mm256_storeu_ps(out + 8, hi[i]);
      std::copy_n(out, nr, crow);
    }
  }
}

template <size_t MR>
__attribute__((target("avx512f"))) void Avx512Rows(const float* a, size_t lda, size_t k,
                                                   const float* panel, float* c, size_t ldc,
                                                   size_t nr) {
  static_assert(kNr == 16, "one 16-lane register per tile row");
  __m512 acc[MR];
  for (size_t i = 0; i < MR; ++i) {
    acc[i] = _mm512_setzero_ps();
  }
  for (size_t kk = 0; kk < k; ++kk) {
    const __m512 p = _mm512_loadu_ps(panel + kk * kNr);
    for (size_t i = 0; i < MR; ++i) {
      const __m512 av = _mm512_set1_ps(a[i * lda + kk]);
      acc[i] = _mm512_add_ps(acc[i], _mm512_mul_ps(av, p));
    }
  }
  const __mmask16 lanes = static_cast<__mmask16>((1u << nr) - 1u);
  for (size_t i = 0; i < MR; ++i) {
    _mm512_mask_storeu_ps(c + i * ldc, lanes, acc[i]);
  }
}
#endif

}  // namespace

void TilePortable(const float* a, size_t lda, size_t mr, size_t k, const float* panel, float* c,
                  size_t ldc, size_t nr) {
  static_assert(kMr == 4, "one instance per row count");
  switch (mr) {
    case 4:
      return PortableRows<4>(a, lda, k, panel, c, ldc, nr);
    case 3:
      return PortableRows<3>(a, lda, k, panel, c, ldc, nr);
    case 2:
      return PortableRows<2>(a, lda, k, panel, c, ldc, nr);
    default:
      return PortableRows<1>(a, lda, k, panel, c, ldc, nr);
  }
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void TileAvx2(const float* a, size_t lda, size_t mr, size_t k,
                                              const float* panel, float* c, size_t ldc,
                                              size_t nr) {
  switch (mr) {
    case 4:
      return Avx2Rows<4>(a, lda, k, panel, c, ldc, nr);
    case 3:
      return Avx2Rows<3>(a, lda, k, panel, c, ldc, nr);
    case 2:
      return Avx2Rows<2>(a, lda, k, panel, c, ldc, nr);
    default:
      return Avx2Rows<1>(a, lda, k, panel, c, ldc, nr);
  }
}

__attribute__((target("avx512f"))) void TileAvx512(const float* a, size_t lda, size_t mr,
                                                   size_t k, const float* panel, float* c,
                                                   size_t ldc, size_t nr) {
  switch (mr) {
    case 4:
      return Avx512Rows<4>(a, lda, k, panel, c, ldc, nr);
    case 3:
      return Avx512Rows<3>(a, lda, k, panel, c, ldc, nr);
    case 2:
      return Avx512Rows<2>(a, lda, k, panel, c, ldc, nr);
    default:
      return Avx512Rows<1>(a, lda, k, panel, c, ldc, nr);
  }
}
#endif

TileFn SelectedTile() {
#if defined(__x86_64__) || defined(__i386__)
  static const TileFn tile = __builtin_cpu_supports("avx512f") ? TileAvx512
                             : __builtin_cpu_supports("avx2")  ? TileAvx2
                                                               : TilePortable;
  return tile;
#else
  return TilePortable;
#endif
}

float* PanelScratch(size_t floats) {
  thread_local std::vector<float> panel;
  if (panel.size() < floats) {
    panel.resize(floats);
  }
  return panel.data();
}

void MatMulTransBStrided(const float* a, size_t lda, size_t m, size_t k, const float* b,
                         size_t ldb, size_t n, float* c, size_t ldc, TileFn tile) {
  MatMulTransBPanels(a, lda, m, k, n, c, ldc, tile, [&](size_t j0, size_t nr, float* panel) {
    for (size_t l = 0; l < nr; ++l) {
      const float* w = b + (j0 + l) * ldb;
      for (size_t kk = 0; kk < k; ++kk) {
        panel[kk * kNr + l] = w[kk];
      }
    }
  });
}

}  // namespace prism::gemm
