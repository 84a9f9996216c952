// smpx_bench: runs one workload of the repository benchmark, checks every
// output against the serial engine, and prints its metrics. The last line
// of stdout is the result record:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it are a "# header" JSON object (source
// digest, CPU count, SIMD tier, compiler, document sizes, seed) and every
// figure by name with its unit.
//
//   smpx_bench --workload offline|multi|sharded|serve --seed N
//              --seconds S --trace 0|1 [--workdir DIR] [--trace-file PATH]
//              [--sha SHA] [--src-digest HEX]
//
// Exit status: 0 after a correct run, 1 when any output differed from the
// serial engine, 2 on a usage or set-up error (no result printed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "simd/simd.h"

namespace smpxbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"ok_frac", "frac"},
    {"mbps", "MB/s"}, {"p10_us", "us"},
};

// Every traced run reports all of these; a layer that does no work on the
// workload reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"core.compile_ms", "ms"},
    {"core.dfa_states", "count"},
    {"query.mq_compile_ms", "ms"},
    {"query.product_states", "count"},
    {"query.unique_queries", "count"},
    {"engine.run_ms", "ms"},
    {"engine.char_comp_pct", "%"},
    {"engine.avg_shift", "chars"},
    {"engine.initial_jump_pct", "%"},
    {"engine.false_match_ratio", "ratio"},
    {"engine.searches", "count"},
    {"strmatch.comparisons_per_mb", "1/MB"},
    {"strmatch.shift_chars_per_mb", "1/MB"},
    {"engine.window_peak_kb", "KB"},
    {"query.mq_run_ms", "ms"},
    {"query.mq_output_mb", "MB"},
    {"query.fanout_ratio", "ratio"},
    {"parallel.boundary_scan_ms", "ms"},
    {"parallel.sharded_run_ms", "ms"},
    {"parallel.serial_run_ms", "ms"},
    {"parallel.speedup", "x"},
    {"parallel.boundary_scan_share", "ratio"},
    {"parallel.accept_ratio", "ratio"},
    {"parallel.wave_work_ratio", "ratio"},
    {"parallel.serial_bytes_frac", "ratio"},
    {"parallel.reruns", "count"},
    {"parallel.killed", "count"},
    {"parallel.stolen", "count"},
    {"parallel.classes", "count"},
    {"parallel.batch_run_ms", "ms"},
    {"parallel.medline.speedup", "x"},
    {"parallel.medline.boundary_scan_share", "ratio"},
    {"parallel.medline.wave_work_ratio", "ratio"},
    {"parallel.medline.accept_ratio", "ratio"},
    {"parallel.medline.classes", "count"},
    {"parallel.medline.phase_scan_ms", "ms"},
    {"parallel.medline.phase_launch_ms", "ms"},
    {"parallel.medline.phase_head_ms", "ms"},
    {"parallel.medline.phase_resolve_ms", "ms"},
    {"parallel.medline.phase_commit_ms", "ms"},
    {"parallel.xmark.speedup", "x"},
    {"parallel.xmark.boundary_scan_share", "ratio"},
    {"parallel.xmark.wave_work_ratio", "ratio"},
    {"parallel.xmark.accept_ratio", "ratio"},
    {"parallel.xmark.classes", "count"},
    {"parallel.xmark.phase_scan_ms", "ms"},
    {"parallel.xmark.phase_launch_ms", "ms"},
    {"parallel.xmark.phase_head_ms", "ms"},
    {"parallel.xmark.phase_resolve_ms", "ms"},
    {"parallel.xmark.phase_commit_ms", "ms"},
    {"index.build_ms", "ms"},
    {"index.build_mbps", "MB/s"},
    {"index.entries", "count"},
    {"index.open_us", "us"},
    {"index.restore_us", "us"},
    {"index.next1_us", "us"},
    {"index.token_bytes", "bytes"},
    {"server.cache_tables_us", "us"},
    {"server.cache_doc_us", "us"},
    {"server.cold_tables_ms", "ms"},
    {"server.cold_doc_ms", "ms"},
    {"server.start_ms", "ms"},
    {"server.cold_request_ms", "ms"},
    {"server.request_codec_us", "us"},
    {"server.rtt_overhead_us", "us"},
    {"server.rejected", "count"},
    {"self.core_ms", "ms"},
    {"self.query_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.parallel_ms", "ms"},
    {"self.index_ms", "ms"},
    {"self.server_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.self_sum_ms", "ms"},
    {"trace.thread_wall_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "smpx_bench: %s\nusage: smpx_bench --workload "
               "offline|multi|sharded|serve --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] [--trace-file PATH] [--sha SHA] "
               "[--src-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') Usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0)) {
        Usage("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else if (flag == "--sha") {
      a.sha = v;
    } else if (flag == "--src-digest") {
      a.src_digest = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HeaderJson(const Args& a, const Outcome& o) {
  std::vector<std::pair<std::string, std::string>> fields = {
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"seconds", JsonNumber(a.seconds)},
      {"trace", a.trace ? "1" : "0"},
      {"git_sha", a.sha},
      {"src_digest", a.src_digest},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"isa", smpx::simd::IsaName(smpx::simd::ActiveIsa())},
      {"compiler", __VERSION__},
  };
  fields.insert(fields.end(), o.header.begin(), o.header.end());
  std::string json = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(fields[i].first) + ": " +
            JsonString(fields[i].second);
  }
  return json + "}";
}

void PrintMetrics(const char* section, const std::vector<Metric>& list) {
  for (const Metric& m : list) {
    if (m.samples > 0) {
      std::printf("%-8s %-38s %14.6g %-6s (n=%llu)\n", section,
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("%-8s %-38s %14.6g %s\n", section, m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
}

const Metric* Find(const std::vector<Metric>& list, const char* name) {
  for (const Metric& m : list) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  void (*run)(const Args&, Outcome*) = nullptr;
  if (args.workload == "offline") run = RunOffline;
  if (args.workload == "multi") run = RunMulti;
  if (args.workload == "sharded") run = RunSharded;
  if (args.workload == "serve") run = RunServe;
  if (run == nullptr) Usage("unknown workload " + args.workload);

  Outcome o;
  trace::Enable(args.trace);
  run(args, &o);
  trace::Enable(false);

  const std::string header = HeaderJson(args, o);
  std::printf("# header %s\n", header.c_str());
  PrintMetrics("detail", o.detail);
  PrintMetrics("e2e", o.e2e);
  PrintMetrics("layer", o.layer);
  if (args.trace && !args.trace_file.empty() &&
      !trace::WriteFile(args.trace_file, header)) {
    Fatal("cannot write span file " + args.trace_file);
  }

  std::string metrics;
  auto emit = [&](const char* name, const char* unit, double value) {
    metrics += (metrics.empty() ? "" : ", ") + JsonString(name) +
               ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(unit) + "}";
  };
  if (!args.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = Find(o.e2e, spec.name);
      if (m == nullptr || m->unit != spec.unit) {
        Fatal(std::string("workload did not report ") + spec.name);
      }
      emit(spec.name, spec.unit, m->value);
    }
  } else {
    for (const Metric& m : o.layer) {
      bool known = false;
      for (const MetricSpec& spec : kPerLayer) {
        known = known || (m.name == spec.name && m.unit == spec.unit);
      }
      if (!known) Fatal("unlisted per-layer metric " + m.name + " " + m.unit);
    }
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* m = Find(o.layer, spec.name);
      emit(spec.name, spec.unit, m == nullptr ? 0 : m->value);
    }
  }
  const Counts& c = o.counts;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              c.mismatches == 0 ? "true" : "false",
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed), metrics.c_str());
  std::fflush(stdout);
  return c.mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace smpxbench

int main(int argc, char** argv) { return smpxbench::Main(argc, argv); }
