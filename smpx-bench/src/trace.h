// In-memory span recorder for the benchmark's traced run (--trace 1).
//
// A Span marks one call from the benchmark into a layer's public API. It
// is named "layer.op" (engine.run, parallel.sharded_run, index.open, ...)
// and records its steady-clock start and end, the enclosing span on the
// same thread as its parent, and the operation it belongs to: a span with
// no parent starts a new operation, nested spans share their root's id.
// Spans stay in per-thread buffers until the run ends and are then written
// once as a Chrome trace-event file (at most 2^18 spans per thread). Self
// time -- a span's duration minus the part its child spans cover -- is
// accumulated as spans close, so the per-layer self times count every
// span even when the file holds only the first ones.
//
// While tracing is disabled a Span costs one relaxed atomic load.

#ifndef SMPX_BENCH_TRACE_H_
#define SMPX_BENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

namespace smpxbench::trace {

void Enable(bool on);
bool Enabled();

class Span {
 public:
  /// `name` must be a string literal ("layer.op").
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct NameStats {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

struct Summary {
  std::map<std::string, NameStats> names;       ///< by span name
  std::map<std::string, double> layer_self_ms;  ///< by layer prefix
  double self_sum_ms = 0;     ///< self time of every span
  double thread_wall_ms = 0;  ///< per thread, first span start to last end
  uint64_t spans = 0;
};

/// Merges every thread's records. Call only while no traced thread runs.
Summary Summarize();

/// Writes the stored spans as {"header": ..., "summary": ...,
/// "traceEvents": [...]}; `header_json` is a JSON object. Returns false
/// when the file cannot be written.
bool WriteFile(const std::string& path, const std::string& header_json);

}  // namespace smpxbench::trace

#endif  // SMPX_BENCH_TRACE_H_
