#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.h"
#include "dtd/dtd.h"
#include "paths/projection_path.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpxbench {

void Put(std::vector<Metric>* list, const std::string& name, double value,
         const std::string& unit, uint64_t samples) {
  for (Metric& m : *list) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  list->push_back(Metric{name, value, unit, samples});
}

void Tally(Counts* c, const smpx::Status& status, bool same_output,
           const char* what) {
  ++c->attempted;
  if (!status.ok()) {
    ++c->failed;
    if (c->failed <= 5) {
      std::fprintf(stderr, "smpx-bench: %s failed: %s\n", what,
                   status.ToString().c_str());
    }
  } else if (!same_output) {
    ++c->failed;
    ++c->mismatches;
    if (c->mismatches <= 5) {
      std::fprintf(stderr,
                   "smpx-bench: %s output differs from the serial engine\n",
                   what);
    }
  }
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) * 1024 / kMB;  // KiB on Linux
}

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

void FillEndToEnd(const std::vector<double>& setup_s, const Samples& s,
                  Outcome* out) {
  const Counts& c = out->counts;
  const double failed_frac =
      c.attempted == 0 ? 1.0
                       : static_cast<double>(c.failed) /
                             static_cast<double>(c.attempted);
  Put(&out->e2e, "setup_s", Median(setup_s), "s", setup_s.size());
  Put(&out->e2e, "peak_rss_mb", PeakRssMb(), "MB");
  Put(&out->e2e, "ok_frac", 1.0 - failed_frac, "frac", c.attempted);
  // Fast deciles: contention from other tenants only ever slows work
  // down, and on a shared VM it comes in stretches of seconds that moved
  // medians and tails by a quarter or more from run to run.
  Put(&out->e2e, "mbps", Percentile(s.round_mbps, 0.9), "MB/s",
      s.round_mbps.size());
  Put(&out->e2e, "p10_us", Percentile(s.op_us, 0.10), "us", s.op_us.size());
  Put(&out->detail, "op_p50_us", Percentile(s.op_us, 0.50), "us",
      s.op_us.size());
  Put(&out->detail, "op_p99_us", Percentile(s.op_us, 0.99), "us",
      s.op_us.size());
  Put(&out->detail, "failed_frac", failed_frac, "frac", c.attempted);
}

void FillTraceMetrics(const Samples& plain, const Samples& traced,
                      Outcome* out) {
  const trace::Summary sum = trace::Summarize();
  for (const char* layer :
       {"core", "query", "engine", "parallel", "index", "server"}) {
    auto it = sum.layer_self_ms.find(layer);
    Put(&out->layer, std::string("self.") + layer + "_ms",
        it == sum.layer_self_ms.end() ? 0 : it->second, "ms");
  }
  Put(&out->layer, "trace.spans", static_cast<double>(sum.spans), "count");
  Put(&out->layer, "trace.self_sum_ms", sum.self_sum_ms, "ms");
  Put(&out->layer, "trace.thread_wall_ms", sum.thread_wall_ms, "ms");
  const double base = Median(plain.op_us);
  Put(&out->layer, "trace.overhead_pct",
      base > 0 ? 100.0 * (Median(traced.op_us) / base - 1.0) : 0, "%",
      traced.op_us.size());
  if (sum.self_sum_ms > sum.thread_wall_ms * (1 + 1e-9)) {
    Fatal("trace: self times exceed the traced threads' wall time");
  }
}

void FillEngineMetrics(const smpx::core::RunStats& r, Outcome* out) {
  const double mb = static_cast<double>(r.input_bytes) / kMB;
  auto per_mb = [mb](uint64_t n) {
    return mb > 0 ? static_cast<double>(n) / mb : 0.0;
  };
  const uint64_t candidates = r.matches + r.false_matches;
  Put(&out->layer, "engine.char_comp_pct", r.CharCompPct(), "%");
  Put(&out->layer, "engine.avg_shift", r.AvgShift(), "chars");
  Put(&out->layer, "engine.initial_jump_pct", r.InitialJumpPct(), "%");
  Put(&out->layer, "engine.false_match_ratio",
      candidates == 0 ? 0
                      : static_cast<double>(r.false_matches) /
                            static_cast<double>(candidates),
      "ratio");
  Put(&out->layer, "engine.searches",
      static_cast<double>(r.bm_searches + r.cw_searches), "count");
  Put(&out->layer, "strmatch.comparisons_per_mb",
      per_mb(r.search.comparisons), "1/MB");
  Put(&out->layer, "strmatch.shift_chars_per_mb",
      per_mb(r.search.shift_chars), "1/MB");
  Put(&out->layer, "engine.window_peak_kb",
      static_cast<double>(r.window_peak) / 1024, "KB");
}

uint64_t Rng::Next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x100000001b3ull + stream).Next();
}

std::string MakeXmark(uint64_t bytes, uint64_t seed) {
  smpx::xmlgen::XmarkOptions opts;
  opts.target_bytes = bytes;
  opts.seed = seed;
  return smpx::xmlgen::GenerateXmark(opts);
}

std::string MakeMedline(uint64_t bytes, uint64_t seed) {
  smpx::xmlgen::MedlineOptions opts;
  opts.target_bytes = bytes;
  opts.seed = seed;
  return smpx::xmlgen::GenerateMedline(opts);
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "smpx-bench: %s\n", what.c_str());
  std::exit(2);
}

void MustOk(const smpx::Status& s, const std::string& what) {
  if (!s.ok()) Fatal(what + ": " + s.ToString());
}

smpx::core::Prefilter MustCompile(const std::string& dtd_text,
                                  const std::string& paths) {
  auto dtd = smpx::dtd::Dtd::Parse(dtd_text);
  if (!dtd.ok()) Fatal("DTD: " + dtd.status().ToString());
  auto list = smpx::paths::ProjectionPath::ParseList(paths);
  if (!list.ok()) Fatal("paths '" + paths + "': " + list.status().ToString());
  auto pf = smpx::core::Prefilter::Compile(std::move(*dtd), std::move(*list));
  if (!pf.ok()) Fatal("compile '" + paths + "': " + pf.status().ToString());
  return std::move(*pf);
}

void SerialRun(const smpx::core::RuntimeTables& tables, std::string_view doc,
               smpx::OutputSink* out) {
  smpx::core::PrefilterSession session(tables, out, nullptr);
  smpx::Status s = session.Resume(doc);
  if (s.ok() && !session.finished()) s = session.Finish();
  MustOk(s, "serial oracle run");
}

Reference SerialReference(const smpx::core::RuntimeTables& tables,
                          std::string_view doc) {
  HashSink sink;
  SerialRun(tables, doc, &sink);
  return Reference{sink.digest(), sink.bytes_written()};
}

}  // namespace smpxbench
