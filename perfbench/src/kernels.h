// GEMM kernel timing at the model's layer shapes, one figure per storage
// tier: fp32 MatMulTransBRaw and the fused dequantising MatMulTransB of
// Fp16MatrixView, Int8MatrixView and QuantMatrixView (w4).
#ifndef PERFBENCH_SRC_KERNELS_H_
#define PERFBENCH_SRC_KERNELS_H_

#include <cstddef>

#include "src/model/config.h"

namespace perfbench {

struct KernelRates {
  double fp32_gops = 0.0;
  double fp16_gops = 0.0;
  double int8_gops = 0.0;
  double w4_gops = 0.0;
};

// Times each tier's GEMM over the layer's seven projection shapes with `rows`
// activation rows, for about `seconds_per_tier` each. Operations count a
// multiply-add as two.
KernelRates MeasureKernels(const prism::ModelConfig& config, size_t rows,
                           double seconds_per_tier);

// GEMM operations one layer spends per activation row (2 · weight count of
// the projection matrices).
double LayerGemmOpsPerRow(const prism::ModelConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_KERNELS_H_
