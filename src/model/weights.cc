#include "src/model/weights.h"

#include <cstring>
#include <string>

#include "src/common/check.h"
#include "src/tensor/ops.h"

namespace prism {

namespace {

// Sizes of the big matrices of one layer, in order of appearance.
struct MatrixDims {
  size_t rows;
  size_t cols;
};

std::vector<MatrixDims> LayerMatrices(const ModelConfig& config) {
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  std::vector<MatrixDims> dims = {{d, d}, {d, d}, {d, d}, {d, d}};  // wq wk wv wo
  if (config.arch == ModelArch::kDecoderOnly) {
    dims.push_back({f, d});  // w_gate
  }
  dims.push_back({f, d});  // w_up
  dims.push_back({d, f});  // w_down
  return dims;
}

size_t NormBytes(const ModelConfig& config) { return 4 * config.hidden * sizeof(float); }

}  // namespace

size_t LayerBlobBytes(const ModelConfig& config, Precision precision) {
  size_t bytes = 0;
  for (const MatrixDims& m : LayerMatrices(config)) {
    bytes += MatrixSpanBytes(precision, m.rows, m.cols, config.quant_group);
  }
  return bytes + NormBytes(config);
}

void WeightView::MatMulTransB(const float* a, size_t m, float* c) const {
  switch (precision) {
    case Precision::kFp32:
      MatMulTransBRaw(a, m, cols, f32, rows, c);
      return;
    case Precision::kFp16:
      f16.MatMulTransB(a, m, c);
      return;
    case Precision::kInt8:
      i8.MatMulTransB(a, m, c);
      return;
    case Precision::kW4:
      q4.MatMulTransB(a, m, c);
      return;
  }
}

WeightView WeightView::RowSlice(size_t row0, size_t n) const {
  PRISM_CHECK_LE(row0 + n, rows);
  WeightView s = *this;
  s.rows = n;
  switch (precision) {
    case Precision::kFp32:
      s.f32 = f32 + row0 * cols;
      break;
    case Precision::kFp16:
      s.f16 = Fp16MatrixView{f16.data + row0 * cols, n, cols};
      break;
    case Precision::kInt8:
      s.i8 = Int8MatrixView{i8.values + row0 * cols,
                            i8.scales + row0 * (cols / i8.group_size), n, cols, i8.group_size};
      break;
    case Precision::kW4:
      // Two values per byte: the slice must start on a byte.
      PRISM_CHECK_EQ(row0 * cols % 2, 0u);
      s.q4 = QuantMatrixView{q4.packed + row0 * cols / 2,
                             q4.scales + row0 * (cols / q4.group_size), n, cols, q4.group_size};
      break;
  }
  return s;
}

AnyLayerView ParseAnyLayerBlob(const ModelConfig& config, std::span<const uint8_t> blob,
                               Precision precision) {
  PRISM_CHECK_EQ(blob.size(), LayerBlobBytes(config, precision));
  const uint8_t* p = blob.data();
  const size_t group = config.quant_group;
  auto take = [&](size_t rows, size_t cols) {
    WeightView view;
    view.precision = precision;
    view.rows = rows;
    view.cols = cols;
    switch (precision) {
      case Precision::kFp32:
        view.f32 = reinterpret_cast<const float*>(p);
        break;
      case Precision::kFp16:
        view.f16 = Fp16MatrixView{reinterpret_cast<const uint16_t*>(p), rows, cols};
        break;
      case Precision::kInt8:
        view.i8 = Int8MatrixView{reinterpret_cast<const int8_t*>(p),
                                 reinterpret_cast<const float*>(p + rows * cols), rows, cols,
                                 group};
        break;
      case Precision::kW4:
        view.q4 = QuantMatrixView{p, reinterpret_cast<const float*>(p + rows * cols / 2), rows,
                                  cols, group};
        break;
    }
    p += MatrixSpanBytes(precision, rows, cols, group);
    return view;
  };
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  AnyLayerView view;
  view.precision = precision;
  view.wq = take(d, d);
  view.wk = take(d, d);
  view.wv = take(d, d);
  view.wo = take(d, d);
  if (config.arch == ModelArch::kDecoderOnly) {
    view.w_gate = take(f, d);
  }
  view.w_up = take(f, d);
  view.w_down = take(d, f);
  const float* fp = reinterpret_cast<const float*>(p);
  view.norm1_gain = {fp, d};
  fp += d;
  view.norm1_bias = {fp, d};
  fp += d;
  view.norm2_gain = {fp, d};
  fp += d;
  view.norm2_bias = {fp, d};
  return view;
}

Status ValidateCheckpoint(const BlobFileReader& reader, const ModelConfig& config,
                          Precision precision) {
  const size_t expect_blobs = 2 + config.n_layers;
  if (reader.blob_count() != expect_blobs) {
    return Status::InvalidArgument("checkpoint has " + std::to_string(reader.blob_count()) +
                                   " blobs, model wants " + std::to_string(expect_blobs));
  }
  const int64_t layer_bytes = static_cast<int64_t>(LayerBlobBytes(config, precision));
  for (size_t layer = 0; layer < config.n_layers; ++layer) {
    const size_t index = LayerBlobIndex(layer);
    if (reader.BlobSize(index) != layer_bytes) {
      return Status::InvalidArgument(
          "layer " + std::to_string(layer) + " blob is " + std::to_string(reader.BlobSize(index)) +
          " bytes, expected " + std::to_string(layer_bytes) + " for precision " +
          PrecisionName(precision));
    }
    const Precision tag = reader.BlobPrecision(index);
    if (tag != precision) {
      return Status::InvalidArgument("layer " + std::to_string(layer) + " is tagged " +
                                     PrecisionName(tag) + ", engine configured for " +
                                     PrecisionName(precision));
    }
    if ((precision == Precision::kInt8 || precision == Precision::kW4) &&
        reader.BlobQuantGroup(index) != config.quant_group) {
      return Status::InvalidArgument("layer " + std::to_string(layer) + " quant group " +
                                     std::to_string(reader.BlobQuantGroup(index)) +
                                     " != config quant_group " +
                                     std::to_string(config.quant_group));
    }
  }
  return Status::Ok();
}

HeadWeights ParseHeadBlob(const ModelConfig& config, std::span<const uint8_t> blob) {
  PRISM_CHECK_EQ(blob.size(), config.HeadBlobBytes());
  HeadWeights head;
  head.w.resize(config.hidden);
  std::memcpy(head.w.data(), blob.data(), config.hidden * sizeof(float));
  std::memcpy(&head.bias, blob.data() + config.hidden * sizeof(float), sizeof(float));
  return head;
}

Checkpoint OpenCheckpoint(const ModelConfig& config, const std::string& path,
                          const SsdConfig& ssd, Precision precision) {
  auto reader = BlobFileReader::Open(path, ssd);
  PRISM_CHECK_MSG(reader.ok(), reader.status().ToString().c_str());
  Checkpoint checkpoint;
  checkpoint.reader = std::move(reader).value();
  const Status valid = ValidateCheckpoint(*checkpoint.reader, config, precision);
  PRISM_CHECK_MSG(valid.ok(), valid.ToString().c_str());
  std::vector<uint8_t> head_blob(
      static_cast<size_t>(checkpoint.reader->BlobSize(HeadBlobIndex(config))));
  const Status status = checkpoint.reader->ReadBlob(HeadBlobIndex(config), head_blob);
  PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  checkpoint.head = ParseHeadBlob(config, head_blob);
  return checkpoint;
}

ResidentLayers ReadResidentLayers(BlobFileReader& reader, const ModelConfig& config,
                                  MemoryTracker* tracker) {
  ResidentLayers layers;
  int64_t total = 0;
  for (size_t layer = 0; layer < config.n_layers; ++layer) {
    std::vector<uint8_t> blob(static_cast<size_t>(reader.BlobSize(LayerBlobIndex(layer))));
    const Status status = reader.ReadBlob(LayerBlobIndex(layer), blob);
    PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
    total += static_cast<int64_t>(blob.size());
    layers.blobs.push_back(std::move(blob));
  }
  layers.claim = MemClaim(tracker, MemCategory::kWeights, total);
  return layers;
}

}  // namespace prism
