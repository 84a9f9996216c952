// Scaling-regression gate for intra-document sharding: runs the real smpx
// CLI as subprocesses over one generated huge document -- serial, then
// sharded at SMPX_GATE_THREADS -- and fails (exit 1) if the sharded run is
// not at least SMPX_MIN_SPEEDUP times faster, or if its output is not
// byte-identical to the serial reference. This is the CI teeth for the
// early-kill speculation work: before it, the wave ran every behavior
// class of every segment to completion and a 4-thread run could come out
// SLOWER than serial; the gate pins the recovered scaling next to the RSS
// tripwire so it cannot quietly regress.
//
// The workload is the selective bulk-scaling projection (star-rooted
// MEDLINE, a few small fields per citation): boundary speculation hits on
// every segment and the output stays small, so wall-clock is dominated by
// the prefilter wave itself -- exactly the thing the gate guards.
//
// On hosts with fewer than SMPX_GATE_THREADS hardware threads the gate
// SKIPS (exit 0): a machine that cannot run the wave in parallel measures
// scheduler fairness, not scaling (single-CPU regressions are still
// caught, by the work-accounting assertions in parallel_test and the
// wavex column of bench_parallel_scaling).
//
// Knobs:
//   SMPX_CLI           path to the smpx binary (default "./smpx")
//   SMPX_DATASET       medline (default) or xmark
//   SMPX_SCALE_MB      document size (default 64; CI uses 256)
//   SMPX_GATE_THREADS  sharded thread count under test (default 4)
//   SMPX_MIN_SPEEDUP   required serial/sharded ratio (default 2.0)
//   SMPX_REPS          best-of-N child runs per mode (default 3), after
//                      one untimed warm-up that faults the document into
//                      the page cache
//   SMPX_CSV=1 / SMPX_JSON=1  machine-readable output (bench_util)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define SMPX_GATE_POSIX 1
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

#ifndef SMPX_GATE_POSIX

int main() {
  std::fprintf(stderr, "shard_speedup_gate needs POSIX fork/exec; skipping\n");
  return 0;
}

#else

namespace smpx::bench {
namespace {

std::string Fmt(const char* fmt, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<uint64_t>(parsed) : fallback;
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  double parsed = std::atof(v);
  return parsed > 0 ? parsed : fallback;
}

/// Runs the CLI with `args` (argv[0] excluded) and waits. Returns false on
/// spawn failure or nonzero exit.
bool RunChild(const std::string& cli, const std::vector<std::string>& args) {
  std::vector<char*> argv;
  std::string cli_copy = cli;
  argv.push_back(cli_copy.data());
  std::vector<std::string> copies = args;
  for (std::string& a : copies) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::perror("execv");
    std::_Exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "child %s exited abnormally (status %d)\n",
                 cli.c_str(), status);
    return false;
  }
  return true;
}

/// Best-of-N wall-clock over child runs; 0.0 on any child failure.
double BestChildSeconds(int reps, const std::string& cli,
                        const std::vector<std::string>& args) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    if (!RunChild(cli, args)) return 0.0;
    double s = timer.Seconds();
    if (best == 0 || s < best) best = s;
  }
  return best;
}

int Run() {
  const int gate_threads =
      static_cast<int>(EnvU64("SMPX_GATE_THREADS", 4));
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < static_cast<unsigned>(gate_threads)) {
    std::printf(
        "shard_speedup_gate: SKIP -- %u hardware threads < %d required "
        "(scaling cannot be measured here)\n",
        hw, gate_threads);
    return 0;
  }

  const std::string cli = EnvOr("SMPX_CLI", "./smpx");
  if (::access(cli.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "smpx binary '%s' not found/executable; set SMPX_CLI\n",
                 cli.c_str());
    return 1;
  }
  const std::string dataset = EnvOr("SMPX_DATASET", "medline");
  const uint64_t scale = ScaleBytes();
  const double min_speedup = EnvDouble("SMPX_MIN_SPEEDUP", 2.0);
  const int reps = static_cast<int>(EnvU64("SMPX_REPS", 3));

  // The selective bulk-scaling projection: a few small fields per record,
  // so the run is prefilter-bound rather than output-bound.
  std::string dtd_text;
  std::string paths;
  if (dataset == "xmark") {
    dtd_text = xmlgen::XmarkDtdText();
    paths = "/site/people/person@ /site/people/person/name#";
  } else {
    dtd_text = xmlgen::MedlineDtdText();
    paths = "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
            "/MedlineCitationSet/MedlineCitation/DateCompleted#";
  }

  const std::string dtd_path = "speedup_gate." + dataset + ".dtd";
  const std::string doc_path = "speedup_gate." + dataset + ".xml";
  const std::string ref_path = "speedup_gate." + dataset + ".ref.xml";
  const std::string out_path = "speedup_gate." + dataset + ".out.xml";
  if (!WriteStringToFile(dtd_path, dtd_text).ok()) {
    std::fprintf(stderr, "cannot write %s\n", dtd_path.c_str());
    return 1;
  }
  {
    const std::string& doc = Dataset(dataset, scale);
    if (!WriteStringToFile(doc_path, doc).ok()) {
      std::fprintf(stderr, "cannot write %s\n", doc_path.c_str());
      return 1;
    }
  }

  std::printf(
      "== shard speedup gate (%s %s, %d threads, require >= %.2fx, "
      "best of %d) ==\n",
      dataset.c_str(), Mb(static_cast<double>(scale)).c_str(), gate_threads,
      min_speedup, reps);

  const std::vector<std::string> serial_args = {
      "--dtd", dtd_path, "--paths", paths, doc_path, ref_path};
  const std::vector<std::string> shard_args = {
      "--dtd",     dtd_path, "--paths", paths,
      "--threads", std::to_string(gate_threads),
      doc_path,    out_path};

  // Warm-up: fault the document into the page cache so the serial
  // reference is not charged the first-touch disk cost.
  if (!RunChild(cli, serial_args)) return 1;

  const double serial_s = BestChildSeconds(reps, cli, serial_args);
  const double shard_s = BestChildSeconds(reps, cli, shard_args);
  if (serial_s == 0 || shard_s == 0) return 1;
  const bool identical = FilesIdentical(ref_path, out_path);
  const double speedup = serial_s / shard_s;
  const bool ok = identical && speedup >= min_speedup;

  TablePrinter table({"threads", "serial_s", "shard_s", "speedup",
                      "required", "identical", "ok"});
  table.AddRow({std::to_string(gate_threads), Fmt("%.3f", serial_s),
                Fmt("%.3f", shard_s), Fmt("%.2fx", speedup),
                Fmt("%.2fx", min_speedup), identical ? "yes" : "NO",
                ok ? "yes" : "NO"});
  table.Print("shard_speedup_gate");

  std::remove(dtd_path.c_str());
  std::remove(doc_path.c_str());
  std::remove(ref_path.c_str());
  std::remove(out_path.c_str());
  if (!ok) {
    std::fprintf(stderr,
                 "speedup gate FAILED: %d-thread sharded run %s (need >= "
                 "%.2fx%s)\n",
                 gate_threads,
                 identical ? Fmt("achieved only %.2fx", speedup).c_str()
                           : "diverged from the serial output",
                 min_speedup, identical ? "" : ", byte-identical");
    return 1;
  }
  std::printf("speedup gate ok: %.2fx at %d threads (>= %.2fx required), "
              "outputs byte-identical\n",
              speedup, gate_threads, min_speedup);
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }

#endif  // SMPX_GATE_POSIX
