// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into each layer of the program (apps, result cache, service,
// engine stages, streamer). Each thread appends to its own buffer; nothing
// is written until the run ends. A span carries its parent (the innermost
// open span on the same thread) and the request id of the enclosing
// RequestScope, so a layer's self time is its duration minus its children's.
//
// Off by default: a disabled ScopedSpan costs one relaxed load.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span.
  uint64_t request = 0;  // RequestScope id; 0 outside any request.
  int64_t layer = -1;    // Layer index for per-layer spans, else -1.
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint32_t thread = 0;

  double ms() const { return static_cast<double>(end_us - start_us) / 1000.0; }
};

void EnableSpans(bool on);
bool SpansEnabled();

// All spans recorded so far, from every thread. Call only after the
// recording threads have been joined.
std::vector<Span> CollectSpans();

// Per-name totals over a span set: summed duration and summed self time
// (duration minus the part covered by direct children).
struct SpanTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

// Writes the spans as Chrome trace-event JSON (opens in Perfetto) plus an
// "otherData" object of extra per-layer arrays. Returns false on I/O error.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::string& other_data_json);

// Records one span from construction to destruction on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t layer = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  Span span_;
};

// Tags every span opened on this thread, while in scope, with `request`.
class RequestScope {
 public:
  explicit RequestScope(uint64_t request);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
