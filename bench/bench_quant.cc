// Precision × model-size sweep for the storage tiers (w4 / int8 / fp16 vs
// fp32). For each model in the sweep and each precision the bench reports
//
//   - layer blob bytes and the compression ratio vs fp32 (static, from
//     LayerBlobBytes — what the streamer actually reads per layer),
//   - the encode→decode roundtrip max-abs error of the first layer's
//     attention matrix (the kernel-level fidelity of the tier),
//   - an engine pass over a fixed query set: bytes streamed per pass, mean
//     pass latency, max score drift vs the fp32 pass over scored candidates,
//     and top-k selection agreement.
//
// Every reduced tier must shrink the layer blob by its floor (fp16 1.9x,
// int8/w4 2x vs fp32). --deterministic omits the wall-clock latency column
// and disables pruning (early exit makes the prefetched-byte count race
// thread timing) so the output is a pure function of the checkpoint bytes,
// and additionally gates the engine's streamed bytes per pass on the same
// floors; the CI lane runs the bench twice and diffs the two outputs byte
// for byte. Exits nonzero when a floor is missed.
//
// Flags: --models=comma-list (default three zoo sizes)
//        --precisions=fp32,fp16,int8,w4 --queries=4 --candidates=12 --k=3
//        --deterministic=false
#include <cstdio>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace prism {
namespace {

// Max-abs encode→decode error of a synthetic [rows, cols] matrix drawn from
// the same distribution as the checkpoint weights.
double RoundtripError(Precision precision, size_t rows, size_t cols, size_t group_size) {
  std::mt19937_64 rng(kBenchSeed);
  std::normal_distribution<float> dist(0.0f, 0.05f);
  std::vector<float> w(rows * cols);
  for (float& v : w) {
    v = dist(rng);
  }
  std::vector<uint8_t> encoded(MatrixSpanBytes(precision, rows, cols, group_size));
  std::vector<float> decoded(w.size());
  EncodeMatrix(precision, w.data(), rows, cols, group_size, encoded.data());
  DecodeMatrix(precision, encoded.data(), rows, cols, group_size, decoded.data());
  double max_err = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::abs(w[i] - decoded[i])));
  }
  return max_err;
}

struct PassResult {
  double bytes_per_pass = 0.0;
  double pass_ms = 0.0;
  std::vector<std::vector<size_t>> topks;
  std::vector<float> scores;
};

PassResult RunPass(const ModelConfig& model, Precision precision,
                   const std::vector<BenchCase>& cases, bool deterministic) {
  PassResult result;
  PrismOptions options;
  options.device = NvidiaProfile();
  options.device.ssd.throttle = false;  // The sweep measures bytes + fidelity, not I/O waits.
  options.device.compute_slowdown = 1.0;
  options.dispersion_threshold = kThresholdHigh;
  options.precision = precision;
  // Deterministic mode must make streamed bytes a pure function of the
  // checkpoint, but with early exit the prefetcher races the truncation
  // point — whether layer i+1 was already in flight when the pass finished
  // at layer i is thread timing. Disabling pruning walks the full schedule,
  // so the byte column is exact and drift is pure quantisation error.
  options.pruning = !deterministic;
  auto engine = FreshRunner([&] { return MakePrismWith(model, options); });
  double bytes = 0.0;
  double ms = 0.0;
  for (const BenchCase& bench_case : cases) {
    const RerankResult r = engine->Rerank(bench_case.request);
    bytes += static_cast<double>(r.stats.bytes_streamed);
    ms += r.stats.latency_ms;
    result.topks.push_back(r.topk);
    result.scores.insert(result.scores.end(), r.scores.begin(), r.scores.end());
  }
  result.bytes_per_pass = bytes / static_cast<double>(cases.size());
  result.pass_ms = ms / static_cast<double>(cases.size());
  return result;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool deterministic = flags.GetBool("deterministic", false);
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 4));
  const size_t candidates = static_cast<size_t>(flags.GetInt("candidates", 12));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 3));

  std::vector<ModelConfig> models;
  for (const std::string& name : SplitCsv(flags.GetString(
           "models", "Qwen3-Reranker-0.6B,Bge-Reranker-v2-M3,Qwen3-Reranker-8B"))) {
    models.push_back(name == "test-decoder" ? TestModel() : ModelByName(name));
  }
  std::vector<Precision> precisions;
  for (const std::string& name : SplitCsv(flags.GetString("precisions", "fp32,fp16,int8,w4"))) {
    Precision p = Precision::kFp32;
    if (!PrecisionByName(name, &p)) {
      std::fprintf(stderr, "unknown precision: %s\n", name.c_str());
      return 1;
    }
    precisions.push_back(p);
  }

  PrintHeader("Precision x model-size sweep — " + std::to_string(queries) + " queries x " +
              std::to_string(candidates) + " candidates, k=" + std::to_string(k) +
              (deterministic ? ", deterministic columns only" : ""));
  if (deterministic) {
    std::printf("%-26s %-5s %10s %7s %10s %12s %10s %7s\n", "model", "prec", "layer KiB",
                "ratio", "rt err", "KiB/pass", "max drift", "agree");
  } else {
    std::printf("%-26s %-5s %10s %7s %10s %12s %9s %10s %7s\n", "model", "prec", "layer KiB",
                "ratio", "rt err", "KiB/pass", "pass ms", "max drift", "agree");
  }

  bool ok = true;
  for (const ModelConfig& model : models) {
    const std::vector<BenchCase> cases = MakeCases(model, "wikipedia", queries, candidates, k);
    const size_t fp32_layer_bytes = LayerBlobBytes(model, Precision::kFp32);
    const PassResult fp32 = RunPass(model, Precision::kFp32, cases, deterministic);
    for (const Precision precision : precisions) {
      const size_t layer_bytes = LayerBlobBytes(model, precision);
      const double ratio =
          static_cast<double>(fp32_layer_bytes) / static_cast<double>(layer_bytes);
      const double rt_err =
          RoundtripError(precision, model.hidden, model.hidden, model.quant_group);
      const PassResult pass =
          precision == Precision::kFp32 ? fp32 : RunPass(model, precision, cases, deterministic);
      // Drift over candidates neither run pruned (the fp32 top-k that also
      // survived at reduced precision); pruned candidates carry scores from
      // whatever layer dropped them. Survivors can still exit at different
      // depths, so this is the end-to-end score perturbation of the tier as
      // served — quantisation error plus its effect on exit depth.
      double drift = 0.0;
      double agreement = 0.0;
      size_t offset = 0;
      for (size_t q = 0; q < pass.topks.size(); ++q) {
        for (const size_t c : fp32.topks[q]) {
          const bool kept = std::find(pass.topks[q].begin(), pass.topks[q].end(), c) !=
                            pass.topks[q].end();
          if (kept) {
            drift = std::max(drift, static_cast<double>(std::abs(
                                        fp32.scores[offset + c] - pass.scores[offset + c])));
          }
        }
        agreement += TopKOverlap(fp32.topks[q], pass.topks[q], k);
        offset += cases[q].request.docs.size();
      }
      agreement /= static_cast<double>(pass.topks.size());
      // Reduced tiers must actually shrink the stream; fp16's matrix halving
      // nets just under 2x with the fp32 norm vectors included. Only
      // --deterministic streams exact bytes, so only it gates them too.
      const double floor = precision == Precision::kFp32  ? 1.0
                           : precision == Precision::kFp16 ? 1.9
                                                           : 2.0;
      ok = ok && ratio >= floor &&
           (!deterministic || fp32.bytes_per_pass >= floor * pass.bytes_per_pass);
      if (deterministic) {
        std::printf("%-26s %-5s %10.1f %6.2fx %10.2e %12.1f %10.4f %6.0f%%\n",
                    model.name.c_str(), PrecisionName(precision),
                    static_cast<double>(layer_bytes) / 1024.0, ratio, rt_err,
                    pass.bytes_per_pass / 1024.0, drift, 100.0 * agreement);
      } else {
        std::printf("%-26s %-5s %10.1f %6.2fx %10.2e %12.1f %9.2f %10.4f %6.0f%%\n",
                    model.name.c_str(), PrecisionName(precision),
                    static_cast<double>(layer_bytes) / 1024.0, ratio, rt_err,
                    pass.bytes_per_pass / 1024.0, pass.pass_ms, drift, 100.0 * agreement);
      }
    }
  }
  std::printf("\ncompression floors (fp16 1.9x, int8/w4 2x): %s\n", ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) { return prism::Main(argc, argv); }
