// The one GEMM microkernel behind every C = A · Wᵀ in PRISM: the fp32
// MatMulTransBRaw / MatMulTransBStrided, the fused fp16 / int8 / w4
// dequantising GEMMs of the *MatrixView types, and the attention scores.
// Internal to src/tensor; tests include it to run each path directly.
//
// Numerics contract (the fp32 golden fixtures depend on it): every output
// c[i][j] is one float accumulator that starts at +0 and adds
// a[i][kk] * w[j][kk] for kk = 0, 1, ..., k-1 in that order, the multiply and
// the add each rounded to float (no FMA; the build pins -ffp-contract=off).
// SIMD lanes run across output columns j, never across kk, so every path
// produces each output bit for bit like the plain scalar loop.
//
// Structure: for each strip of kNr weight rows a per-tier decoder writes a
// k × kNr transposed panel (panel[kk * kNr + l] = w[j0 + l][kk], exactly the
// float the scalar kernel multiplied by), then a kMr × kNr register tile
// walks k over up to kMr input rows at a time.
#ifndef PRISM_SRC_TENSOR_GEMM_H_
#define PRISM_SRC_TENSOR_GEMM_H_

#include <algorithm>
#include <cstddef>

namespace prism::gemm {

inline constexpr size_t kNr = 16;  // Weight rows per panel: the SIMD lanes.
inline constexpr size_t kMr = 4;   // Input rows per register tile.

// c[i * ldc + l] = Σ_{kk<k} a[i * lda + kk] * panel[kk * kNr + l] for i < mr
// and l < nr (mr ≤ kMr, nr ≤ kNr), accumulated as the contract above says.
// Panel lanes l ≥ nr are read but never stored, so they may hold anything.
using TileFn = void (*)(const float* a, size_t lda, size_t mr, size_t k, const float* panel,
                        float* c, size_t ldc, size_t nr);

// Plain C++; the compiler vectorizes the lane loop at the target baseline
// (SSE2 on x86-64, NEON on aarch64).
void TilePortable(const float* a, size_t lda, size_t mr, size_t k, const float* panel, float* c,
                  size_t ldc, size_t nr);

#if defined(__x86_64__) || defined(__i386__)
// AVX2 mul then add (deliberately not FMA). Call only when the CPU has AVX2.
void TileAvx2(const float* a, size_t lda, size_t mr, size_t k, const float* panel, float* c,
              size_t ldc, size_t nr);

// AVX-512F, one 16-lane register per tile row, mul then add (not FMA). Call
// only when the CPU has AVX-512F.
void TileAvx512(const float* a, size_t lda, size_t mr, size_t k, const float* panel, float* c,
                size_t ldc, size_t nr);
#endif

// The tile every GEMM runs: the widest the CPU supports (TileAvx512, then
// TileAvx2, else TilePortable). Chosen once per process.
TileFn SelectedTile();

// C = A · Bᵀ over row-major fp32 operands with explicit row strides, on `tile`.
void MatMulTransBStrided(const float* a, size_t lda, size_t m, size_t k, const float* b,
                         size_t ldb, size_t n, float* c, size_t ldc, TileFn tile);

// This thread's panel buffer, at least `floats` long: kNr × k floats, small,
// untracked, and never a transposed copy of all of W. It only grows, so the
// GEMMs of a layer (attention runs one per candidate and head) allocate
// nothing once the widest k has been seen. Valid until the thread's next call.
float* PanelScratch(size_t floats);

// Drives C[m, n] = A[m, k] · Wᵀ strip by strip. `decode_panel(j0, nr, panel)`
// writes panel[kk * kNr + l] = W[j0 + l][kk] for kk < k and l < nr.
template <typename DecodePanel>
void MatMulTransBPanels(const float* a, size_t lda, size_t m, size_t k, size_t n, float* c,
                        size_t ldc, TileFn tile, const DecodePanel& decode_panel) {
  float* panel = PanelScratch(k * kNr);
  for (size_t j0 = 0; j0 < n; j0 += kNr) {
    const size_t nr = std::min(kNr, n - j0);
    decode_panel(j0, nr, panel);
    for (size_t i0 = 0; i0 < m; i0 += kMr) {
      tile(a + i0 * lda, lda, std::min(kMr, m - i0), k, panel, c + i0 * ldc + j0, ldc, nr);
    }
  }
}

}  // namespace prism::gemm

#endif  // PRISM_SRC_TENSOR_GEMM_H_
