#include "perfbench/src/spans.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/common/timer.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_span{1};

// Per-thread span buffers. The registry owns them so spans survive the
// recording thread; each buffer is appended to by its owner thread only.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  uint32_t thread = 0;
  std::vector<uint64_t> open;  // Stack of open span ids.
  uint64_t request = 0;
};

ThreadState& Local() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    Registry& registry = GetRegistry();
    const std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(std::make_unique<std::vector<Span>>());
    state.buffer = registry.buffers.back().get();
    state.thread = static_cast<uint32_t>(registry.buffers.size());
  }
  return state;
}

}  // namespace

void EnableSpans(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> CollectSpans() {
  Registry& registry = GetRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_ms;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      child_ms[span.parent] += span.ms();
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    SpanTotals& t = totals[span.name];
    t.total_ms += span.ms();
    const auto it = child_ms.find(span.id);
    t.self_ms += span.ms() - (it == child_ms.end() ? 0.0 : it->second);
  }
  return totals;
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const std::string& other_data_json) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %lld, "
                 "\"dur\": %lld, \"args\": {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"layer\": %lld}}%s\n",
                 s.name, s.thread, static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us - s.start_us),
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), static_cast<long long>(s.layer),
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(out, "],\n\"otherData\": %s}\n",
               other_data_json.empty() ? "{}" : other_data_json.c_str());
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char* name, int64_t layer) : on_(SpansEnabled()) {
  if (!on_) {
    return;
  }
  ThreadState& state = Local();
  span_.name = name;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = state.open.empty() ? 0 : state.open.back();
  span_.request = state.request;
  span_.layer = layer;
  span_.thread = state.thread;
  state.open.push_back(span_.id);
  span_.start_us = prism::NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) {
    return;
  }
  span_.end_us = prism::NowMicros();
  ThreadState& state = Local();
  state.open.pop_back();
  state.buffer->push_back(span_);
}

RequestScope::RequestScope(uint64_t request) {
  ThreadState& state = Local();
  saved_ = state.request;
  state.request = request;
}

RequestScope::~RequestScope() { Local().request = saved_; }

}  // namespace perfbench
