// Parallel scaling benchmark: tags/sec and speedup versus one thread at
// 1/2/4/8 threads, for the two parallel execution modes.
//
//   batch    many documents prefiltered concurrently (one session per
//            document, shared tables) -- the multi-document server shape;
//            an XMark workload over a 16-document batch.
//   shard    one document split at element boundaries and run
//            speculatively shard-by-shard -- the huge-single-file shape;
//            a MEDLINE workload plus an XMark workload. Both split at
//            record-level split keywords (<MedlineCitation, <person,
//            <item, ...), whose entry class is known statically, so each
//            shard runs once. A third section copies MEDLINE's root
//            (/MedlineCitationSet#), which leaves the tables no split
//            keyword: ShardedRun then runs one serial session, and its
//            vs_serial column should read ~1x at every thread count.
//
// Every shard table reports speedup against its own one-thread row and
// vs_serial against the serial engine (Prefilter::Run) on the same
// document, timed the same way. Shard rows run ShardedRun's default split
// (several segments per worker on large documents, one serial session at
// one thread; see ShardOptions::max_shards); the shards column is the
// segment count it cut.
//
// Outputs are cross-checked against the serial engine before timing.
//
//   SMPX_SCALE_MB=64 ./bench_parallel_scaling
//   SMPX_THREADS="1 2 4 8 16"  thread counts to sweep
//   SMPX_REPS=5                best-of-N timing (default 3); every cell
//                              first runs one untimed warm-up pass, then
//                              keeps sampling past N until the timed reps
//                              accumulate SMPX_MIN_SECS of runtime, so a
//                              single descheduled rep cannot set the cell
//   SMPX_MIN_SECS=0.5          minimum accumulated timed seconds per cell
//   SMPX_MAX_BUFFER=1048576    output budget in bytes, per worker in shard
//                              rows and per document in batch rows
//                              (default 0 = unbounded in-memory segments)
//   SMPX_CSV=1 / SMPX_JSON=1   machine-readable output
//
// Both tables report peakMB, the process-wide getrusage high-water RSS
// after the row's runs. It is a lifetime maximum (monotone across rows),
// so the interesting signals are the first row's level and whether later
// rows move it; with a budget set, the budgeted pipeline should hold it
// flat where the unbudgeted one grows with the projected output.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "parallel/batch.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx::bench {
namespace {

constexpr int kBatchDocs = 16;

int Reps() {
  const char* env = std::getenv("SMPX_REPS");
  int reps = env != nullptr ? std::atoi(env) : 0;
  return reps > 0 ? reps : 3;
}

size_t MaxBufferBytes() {
  const char* env = std::getenv("SMPX_MAX_BUFFER");
  if (env == nullptr || env[0] == '\0') return 0;
  auto parsed = ParseByteSize(env);
  if (!parsed.ok()) {
    std::fprintf(stderr, "SMPX_MAX_BUFFER: %s\n",
                 parsed.status().ToString().c_str());
    std::abort();
  }
  return static_cast<size_t>(*parsed);
}

/// Process peak RSS in MiB (getrusage high-water mark; 0 if unavailable).
double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1 << 20);  // bytes
#else
    return static_cast<double>(ru.ru_maxrss) / (1 << 10);  // KiB
#endif
  }
#endif
  return 0.0;
}

std::vector<int> ThreadCounts() {
  std::vector<int> counts;
  if (const char* env = std::getenv("SMPX_THREADS")) {
    int v = 0;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        v = v * 10 + (*p - '0');
      } else {
        if (v > 0) counts.push_back(v);
        v = 0;
        if (*p == '\0') break;
      }
    }
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

std::string Rate(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fk", v / 1e3);
  }
  return buf;
}

std::string Fmt(const char* fmt, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

core::Prefilter MustCompile(dtd::Dtd dtd, const char* paths) {
  auto pf = core::Prefilter::Compile(std::move(dtd), MustPaths(paths));
  if (!pf.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 pf.status().ToString().c_str());
    std::abort();
  }
  return std::move(*pf);
}

struct Sample {
  double seconds = 0;
  uint64_t tags = 0;
  uint64_t bytes = 0;
};

double MinSecs() {
  const char* env = std::getenv("SMPX_MIN_SECS");
  double v = env != nullptr ? std::atof(env) : 0.0;
  return v > 0 ? v : 0.5;
}

/// One untimed warm-up, then `body` at least `reps` times -- continuing
/// until the timed samples accumulate MinSecs() of runtime -- keeping the
/// fastest sample. The warm-up faults the dataset in and spins up the
/// pool; the runtime floor keeps a cell from being decided by one or two
/// descheduled runs when the per-rep time is far below a scheduler slice.
template <typename Body>
Sample Best(int reps, Body body) {
  constexpr int kMaxReps = 256;  // floor guard for pathologically fast bodies
  (void)body();                  // warm-up, never timed
  const double min_secs = MinSecs();
  Sample best;
  double accumulated = 0;
  for (int r = 0; r < kMaxReps && (r < reps || accumulated < min_secs); ++r) {
    Sample s = body();
    accumulated += s.seconds;
    if (best.seconds == 0 || s.seconds < best.seconds) best = s;
  }
  return best;
}

int Run() {
  const uint64_t scale = ScaleBytes();
  const int reps = Reps();
  const std::vector<int> threads = ThreadCounts();

  // --- Batch: kBatchDocs logical documents over one generated buffer ----
  const std::string& xmark = Dataset("xmark", scale / 4);
  core::Prefilter xpf = MustCompile(
      xmlgen::XmarkDtd(),
      "/site/people/person@ /site/people/person/name# "
      "/site/open_auctions/open_auction/initial#");
  std::vector<std::string_view> batch(kBatchDocs, xmark);

  const size_t max_buffer = MaxBufferBytes();
  MemorySource xmark_src(xmark);
  std::vector<const InputSource*> batch_srcs(kBatchDocs, &xmark_src);
  parallel::StreamOptions batch_opts;
  batch_opts.max_buffer_bytes = max_buffer;

  // Cross-check: streaming merged batch output must equal per-document
  // serial runs (also with a tiny budget, so the spill path is covered).
  {
    auto serial = xpf.RunOnBuffer(xmark);
    if (!serial.ok()) {
      std::fprintf(stderr, "serial run failed: %s\n",
                   serial.status().ToString().c_str());
      return 1;
    }
    std::string expected;
    for (int i = 0; i < kBatchDocs; ++i) expected += *serial;
    parallel::ThreadPool pool(2);
    for (size_t budget : {size_t{0}, size_t{1} << 16}) {
      parallel::StreamOptions sopts;
      sopts.max_buffer_bytes = budget;
      StringSink sink;
      Status s = parallel::BatchRunStreamingMerged(
          xpf.tables(), batch_srcs, &sink, nullptr, &pool, sopts);
      if (!s.ok() || sink.str() != expected) {
        std::fprintf(stderr, "batch output diverges from serial!\n");
        return 1;
      }
    }
  }

  std::printf(
      "== Parallel scaling (XMark batch %dx%s, MEDLINE shard %s, "
      "best of %d; %u hardware threads) ==\n",
      kBatchDocs, Mb(static_cast<double>(xmark.size())).c_str(),
      Mb(static_cast<double>(scale)).c_str(), reps,
      std::thread::hardware_concurrency());

  TablePrinter batch_table(
      {"mode", "threads", "secs", "tags/s", "MB/s", "speedup", "peakMB"});
  double batch_base = 0;
  for (int t : threads) {
    parallel::ThreadPool pool(t);
    Sample s = Best(reps, [&] {
      CountingSink sink;
      core::RunStats stats;
      WallTimer timer;
      Status st = parallel::BatchRunStreamingMerged(
          xpf.tables(), batch_srcs, &sink, &stats, &pool, batch_opts);
      Sample out;
      out.seconds = timer.Seconds();
      if (!st.ok()) {
        std::fprintf(stderr, "batch run failed: %s\n",
                     st.ToString().c_str());
        std::abort();
      }
      out.tags = stats.matches;
      out.bytes = stats.input_bytes;
      return out;
    });
    if (batch_base == 0) batch_base = s.seconds;
    batch_table.AddRow(
        {"batch", std::to_string(t), Fmt("%.3f", s.seconds),
         Rate(static_cast<double>(s.tags) / s.seconds),
         Fmt("%.1f", static_cast<double>(s.bytes) / (1 << 20) / s.seconds),
         Fmt("%.2fx", batch_base / s.seconds), Fmt("%.1f", PeakRssMb())});
  }
  batch_table.Print("parallel_batch");

  // --- Shard: one huge document split across the pool -------------------
  // The correctness check below pins four shards on two workers; the timed
  // rows run the default split. serial% is the Amdahl bound of the run:
  // bytes prefiltered outside the parallel wave (speculation misses re-run
  // sequentially, and a run without split points is one serial session,
  // 100 serial%; a full hit rate shows 0.0 serial%). accept is speculative
  // shards verified / launched. classes is 1 when any segment speculated
  // from a split keyword's class, else 0; wavex is total prefiltered bytes
  // (wave attempts + serial reruns) over document bytes -- it should sit
  // near 1.0, and killed counts the losing attempts reclaimed
  // (timing-dependent, like the stolen-inline runs folded into wavex).
  auto shard_sweep = [&](const char* table_name, const core::Prefilter& pf,
                         const std::string& doc) -> int {
    {
      auto serial = pf.RunOnBuffer(doc);
      parallel::ThreadPool pool(2);
      for (size_t budget : {size_t{0}, size_t{1} << 16}) {
        StringSink sink;
        parallel::ShardOptions opts;
        opts.max_shards = 4;
        opts.max_buffer_bytes = budget;
        Status s = parallel::ShardedRun(pf.tables(), doc, &sink, nullptr,
                                        &pool, opts);
        if (!serial.ok() || !s.ok() || sink.str() != *serial) {
          std::fprintf(stderr, "%s: sharded output diverges from serial!\n",
                       table_name);
          return 1;
        }
      }
    }
    const Sample serial = Best(reps, [&] {
      MemoryInputStream in(doc);
      CountingSink sink;
      core::RunStats stats;
      WallTimer timer;
      Status st = pf.Run(&in, &sink, &stats);
      Sample out;
      out.seconds = timer.Seconds();
      if (!st.ok()) {
        std::fprintf(stderr, "serial run failed: %s\n",
                     st.ToString().c_str());
        std::abort();
      }
      return out;
    });
    TablePrinter shard_table({"mode", "threads", "shards", "secs", "tags/s",
                              "MB/s", "speedup", "vs_serial", "serial%",
                              "accept", "classes", "wavex", "killed",
                              "peakMB"});
    double shard_base = 0;
    for (int t : threads) {
      parallel::ThreadPool pool(t);
      parallel::ShardReport report;
      Sample s = Best(reps, [&] {
        CountingSink sink;
        core::RunStats stats;
        parallel::ShardOptions opts;  // the default split ShardedRun ships
        opts.max_buffer_bytes = max_buffer;
        WallTimer timer;
        Status st = parallel::ShardedRun(pf.tables(), doc, &sink, &stats,
                                         &pool, opts, &report);
        Sample out;
        out.seconds = timer.Seconds();
        if (!st.ok()) {
          std::fprintf(stderr, "sharded run failed: %s\n",
                       st.ToString().c_str());
          std::abort();
        }
        out.tags = stats.matches;
        out.bytes = stats.input_bytes;
        return out;
      });
      if (shard_base == 0) shard_base = s.seconds;
      shard_table.AddRow(
          {"shard", std::to_string(t), std::to_string(report.shards),
           Fmt("%.3f", s.seconds),
           Rate(static_cast<double>(s.tags) / s.seconds),
           Fmt("%.1f", static_cast<double>(s.bytes) / (1 << 20) / s.seconds),
           Fmt("%.2fx", shard_base / s.seconds),
           Fmt("%.2fx", serial.seconds / s.seconds),
           Fmt("%.1f", s.bytes == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(report.serial_bytes) /
                                 static_cast<double>(s.bytes)),
           std::to_string(report.accepted) + "/" +
               std::to_string(report.speculated),
           std::to_string(report.candidate_classes),
           Fmt("%.2f", s.bytes == 0
                           ? 0.0
                           : static_cast<double>(report.wave_bytes +
                                                 report.serial_bytes) /
                                 static_cast<double>(s.bytes)),
           std::to_string(report.killed), Fmt("%.1f", PeakRssMb())});
    }
    shard_table.Print(table_name);
    return 0;
  };

  const std::string& medline = Dataset("medline", scale);
  core::Prefilter mpf = MustCompile(
      xmlgen::MedlineDtd(),
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
      "/MedlineCitationSet/MedlineCitation/DateCompleted#");
  if (int rc = shard_sweep("parallel_shard", mpf, medline)) return rc;

  // XMark's sectioned root has six top-level children in three behavior
  // classes, so it shards well only at record-level split keywords.
  if (int rc = shard_sweep("parallel_shard_xmark", xpf, xmark)) return rc;

  // A root copy puts every element inside a copy region: no split keyword,
  // so every row is one serial session.
  core::Prefilter root_copy =
      MustCompile(xmlgen::MedlineDtd(), "/MedlineCitationSet#");
  if (int rc = shard_sweep("parallel_shard_keywordless", root_copy, medline)) {
    return rc;
  }

  std::printf(
      "note: speedups are bounded by the hardware thread count (%u here). "
      "Shards at split keywords speculate their entry class, so no shard "
      "serializes ahead of the wave (serial%% ~0 when speculation hits); a "
      "run without split points is serial (serial%% 100).\n",
      std::thread::hardware_concurrency());
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
