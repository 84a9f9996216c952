// Shared pieces of the smpx_bench program: command-line arguments, the
// outcome record each workload fills, the reduction of raw samples to the
// benchmark's end-to-end metrics, the serial-engine correctness oracle, and
// seeded document generation.

#ifndef SMPX_BENCH_BENCH_H_
#define SMPX_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/io.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/prefilter.h"
#include "trace.h"

namespace smpxbench {

/// Bytes per MB in every MB and MB/s figure.
constexpr double kMB = 1 << 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< scratch files: served document, socket
  std::string trace_file;     ///< span file a traced run writes
  std::string sha = "unknown";
  std::string src_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< samples behind a statistic; 0 when not one
};

/// Sets `name` in `list`, replacing an earlier value of the same name.
void Put(std::vector<Metric>* list, const std::string& name, double value,
         const std::string& unit, uint64_t samples = 0);

/// Checked-operation counts; one per thread, summed at the end.
struct Counts {
  uint64_t attempted = 0;   ///< operations whose result was checked
  uint64_t failed = 0;      ///< errors, refusals and mismatches
  uint64_t mismatches = 0;  ///< outputs that differ from the oracle

  void Add(const Counts& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
  }
};

/// Counts one checked operation: failed when `status` is an error,
/// mismatched when it succeeded with output other than the oracle's.
void Tally(Counts* c, const smpx::Status& status, bool same_output,
           const char* what);

/// What one workload run produced.
struct Outcome {
  /// Run-header fields the workload adds (document sizes, threads).
  std::vector<std::pair<std::string, std::string>> header;
  std::vector<Metric> e2e;     ///< the BENCHMARK.json end-to-end metrics
  std::vector<Metric> detail;  ///< the workload's own named figures
  std::vector<Metric> layer;   ///< per-layer metrics (traced runs)
  Counts counts;
};

/// Raw samples of one measured phase.
struct Samples {
  std::vector<double> round_mbps;  ///< one per round of bulk work
  std::vector<double> op_us;       ///< one per unit operation
};

/// Reduces set-up repetitions and the untraced phase to setup_s, mbps and
/// p10_us, adds peak_rss_mb and ok_frac, and prints the median and p99
/// operation times as detail lines.
void FillEndToEnd(const std::vector<double>& setup_s, const Samples& s,
                  Outcome* out);

/// Per-layer trace bookkeeping every traced run reports: per-layer self
/// times, span count, self-time sum against thread wall time, and the
/// tracing overhead (median operation time traced vs untraced).
void FillTraceMetrics(const Samples& plain, const Samples& traced,
                      Outcome* out);

/// engine.* and strmatch.* layer metrics from the merged RunStats of one
/// round of work.
void FillEngineMetrics(const smpx::core::RunStats& round, Outcome* out);

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 1]; 0 for no samples.
double Percentile(std::vector<double> v, double p);
/// Process peak resident set (getrusage ru_maxrss) in MB.
double PeakRssMb();
/// Worker threads and connections: min(4, hardware threads).
int BenchThreads();

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Runs `body` until `seconds` passed and it ran at least `min_runs`
/// times.
template <typename F>
void RunFor(double seconds, int min_runs, F&& body) {
  Stopwatch w;
  for (int n = 0; n < min_runs || w.Seconds() < seconds; ++n) body();
}

/// Set-up repetitions: runs `setup` at least `min_reps` times and until
/// `min_s` seconds passed; returns each repetition's seconds.
template <typename F>
std::vector<double> RepeatSetup(int min_reps, double min_s, F&& setup) {
  std::vector<double> secs;
  double total = 0;
  while (static_cast<int>(secs.size()) < min_reps ||
         (total < min_s && secs.size() < 200)) {
    Stopwatch w;
    setup();
    secs.push_back(w.Seconds());
    total += secs.back();
  }
  return secs;
}

/// The measured phases of one run. An untraced run measures `seconds`
/// with tracing off. A traced run measures half the time untraced and
/// half traced: the traced half feeds the per-layer metrics, and the two
/// halves' difference is the tracing overhead. `round(Samples*)` performs
/// one round of the workload's work.
template <typename Round>
void MeasurePhases(const Args& args, int min_rounds, Round&& round,
                   Samples* plain, Samples* traced) {
  auto phase = [&](double secs, Samples* s) {
    RunFor(secs, min_rounds, [&] { round(s); });
  };
  trace::Enable(false);
  if (!args.trace) {
    phase(args.seconds, plain);
    return;
  }
  phase(args.seconds / 2, plain);
  trace::Enable(true);
  phase(args.seconds / 2, traced);
}

/// Deterministic generator (splitmix64) for seeded choices.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n must be positive.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// An independent seed for stream `stream` of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

std::string MakeXmark(uint64_t bytes, uint64_t seed);
std::string MakeMedline(uint64_t bytes, uint64_t seed);

/// Prints `what` to stderr and exits with status 2 (no result printed).
[[noreturn]] void Fatal(const std::string& what);
void MustOk(const smpx::Status& s, const std::string& what);
/// Parses `dtd_text` and `paths`, then compiles them: the set-up a user
/// of the library pays per query.
smpx::core::Prefilter MustCompile(const std::string& dtd_text,
                                  const std::string& paths);

/// Output sink that keeps only a Hash64 digest of what it receives, so
/// timed runs are checked against the oracle without holding output.
class HashSink : public smpx::OutputSink {
 public:
  smpx::Status Append(std::string_view data) override {
    hash_.Update(data);
    bytes_written_ += data.size();
    return smpx::Status::Ok();
  }
  uint64_t digest() const { return hash_.Digest(); }

 private:
  smpx::Hash64Stream hash_;
};

/// Oracle record of one projection.
struct Reference {
  uint64_t digest = 0;
  uint64_t bytes = 0;
};

inline bool Same(const HashSink& s, const Reference& r) {
  return s.bytes_written() == r.bytes && s.digest() == r.digest;
}

/// The serial engine over the whole document: one push-mode
/// PrefilterSession, a different entry into the engine than the pull-mode
/// RunEngine behind Prefilter::Run. Aborts the run if the engine fails.
void SerialRun(const smpx::core::RuntimeTables& tables, std::string_view doc,
               smpx::OutputSink* out);
Reference SerialReference(const smpx::core::RuntimeTables& tables,
                          std::string_view doc);

void RunOffline(const Args& args, Outcome* out);
void RunMulti(const Args& args, Outcome* out);
void RunSharded(const Args& args, Outcome* out);
void RunServe(const Args& args, Outcome* out);

}  // namespace smpxbench

#endif  // SMPX_BENCH_BENCH_H_
