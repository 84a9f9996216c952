#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace smpxbench::trace {
namespace {

// Spans stored per thread for the span file; self-time accounting covers
// every span regardless of this cap.
constexpr size_t kMaxStoredSpans = 1 << 18;

struct OpenSpan {
  const char* name;
  int64_t start_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t op;
  int64_t child_ns;  // time covered by closed child spans
};

struct StoredSpan {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t op;
};

struct PerName {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<OpenSpan> stack;
  std::vector<StoredSpan> spans;
  // Keyed by the literal's address; merged by string in Summarize.
  std::unordered_map<const char*, PerName> names;
  int64_t first_ns = -1;
  int64_t last_ns = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{0};
std::mutex g_mu;
// Guarded by g_mu; buffers live until exit so records outlive threads.
std::vector<std::unique_ptr<ThreadBuffer>>* g_buffers =
    new std::vector<std::unique_ptr<ThreadBuffer>>();

ThreadBuffer* Local() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers->push_back(std::make_unique<ThreadBuffer>());
    buf = g_buffers->back().get();
    buf->tid = static_cast<int>(g_buffers->size()) - 1;
  }
  return buf;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Layer(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) : active_(Enabled()) {
  if (!active_) return;
  ThreadBuffer* b = Local();
  const uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t parent = b->stack.empty() ? 0 : b->stack.back().id;
  const uint64_t op = b->stack.empty() ? id : b->stack.back().op;
  b->stack.push_back(OpenSpan{name, NowNs(), id, parent, op, 0});
}

Span::~Span() {
  if (!active_) return;
  const int64_t end = NowNs();
  ThreadBuffer* b = Local();
  const OpenSpan o = b->stack.back();
  b->stack.pop_back();
  const int64_t dur = end - o.start_ns;
  if (!b->stack.empty()) b->stack.back().child_ns += dur;
  PerName& n = b->names[o.name];
  ++n.count;
  n.total_ns += dur;
  n.self_ns += dur - o.child_ns;
  if (b->first_ns < 0 || o.start_ns < b->first_ns) b->first_ns = o.start_ns;
  b->last_ns = std::max(b->last_ns, end);
  if (b->spans.size() < kMaxStoredSpans) {
    b->spans.push_back(
        StoredSpan{o.name, o.start_ns, end, o.id, o.parent, o.op});
  }
}

Summary Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  Summary s;
  for (const auto& b : *g_buffers) {
    for (const auto& [name, n] : b->names) {
      const double self_ms = static_cast<double>(n.self_ns) / 1e6;
      NameStats& ns = s.names[name];
      ns.count += n.count;
      ns.total_ms += static_cast<double>(n.total_ns) / 1e6;
      ns.self_ms += self_ms;
      s.layer_self_ms[Layer(name)] += self_ms;
      s.self_sum_ms += self_ms;
      s.spans += n.count;
    }
    if (b->first_ns >= 0) {
      s.thread_wall_ms += static_cast<double>(b->last_ns - b->first_ns) / 1e6;
    }
  }
  return s;
}

bool WriteFile(const std::string& path, const std::string& header_json) {
  const Summary sum = Summarize();
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = -1;
  for (const auto& b : *g_buffers) {
    if (b->first_ns >= 0 && (t0 < 0 || b->first_ns < t0)) t0 = b->first_ns;
  }
  std::fprintf(f, "{\"header\": %s,\n\"summary\": {", header_json.c_str());
  bool first = true;
  for (const auto& [name, n] : sum.names) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(n.count), n.total_ms,
                 n.self_ms);
    first = false;
  }
  std::fprintf(f, "},\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [");
  first = true;
  for (const auto& b : *g_buffers) {
    for (const StoredSpan& sp : b->spans) {
      std::fprintf(
          f,
          "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
          "\"args\": {\"id\": %llu, \"parent\": %llu, \"op\": %llu}}",
          first ? "" : ",", sp.name, Layer(sp.name).c_str(),
          static_cast<double>(sp.start_ns - t0) / 1e3,
          static_cast<double>(sp.end_ns - sp.start_ns) / 1e3, b->tid,
          static_cast<unsigned long long>(sp.id),
          static_cast<unsigned long long>(sp.parent),
          static_cast<unsigned long long>(sp.op));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace smpxbench::trace
