// Memory-regression tripwire for the bounded-memory output pipeline: runs
// the real smpx CLI as subprocesses over a generated single-document
// corpus with a small --max-buffer budget, sweeping --threads, and fails
// (exit 1) if any child's peak RSS exceeds
//
//     input_size + slack + multiple x threads x (budget + window)
//
// i.e. the mmap'ed input plus a fixed allowance plus the budgeted
// per-worker state. The projection is a near-full copy of the document,
// so an accidental return to whole-output buffering (the pre-budget
// StringSink-per-shard design) blows the bound by roughly the input size
// while the budgeted spill + document-order replay stays flat. Every
// sharded output is also compared byte-for-byte against the serial
// (--threads 1) reference, making this the end-to-end acceptance check
// for spill and replay on a document that does not fit the budget.
//
// "Near-full", not full: ShardedRun cuts a document only at split
// keywords, and a projection that copies everything collapses into a
// root copy, which has none -- --threads N would then run one serial
// session straight into the output file and exercise neither spill nor
// replay. Each projection leaves one small element type out
// (MEDLINE's GeneralNote, XMark's catgraph) so the record and section
// tags stay split keywords, and the tripwire exits 1 if its projection
// compiles without any.
//
// One more child indexes the same document at granularity 1
// (--index-build --index-granularity 1, an entry per record) and is held
// to input_size + slack: beyond the mapped input, the index build keeps
// only its entries. Its peak RSS and MB/s (document bytes over the child's
// wall time) are reported next to the shard rows.
//
// Knobs:
//   SMPX_CLI           path to the smpx binary (default "./smpx")
//   SMPX_DATASET       medline (default) or xmark
//   SMPX_SCALE_MB      document size (default 64; CI uses 256)
//   SMPX_MAX_BUFFER    --max-buffer in bytes (default 1 MiB)
//   SMPX_THREADS       sweep (default "1 2 4")
//   SMPX_RSS_SLACK_MB  fixed allowance (default 48)
//   SMPX_RSS_MULTIPLE  per-worker multiple (default 8)
//   SMPX_CSV=1 / SMPX_JSON=1  machine-readable output (bench_util)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define SMPX_TRIPWIRE_POSIX 1
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

#ifndef SMPX_TRIPWIRE_POSIX

int main() {
  std::fprintf(stderr,
               "shard_rss_tripwire needs POSIX fork/wait4; skipping\n");
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

/// Runs the CLI with `args` (argv[0] excluded), waits, and reports the
/// child's own peak RSS in bytes via wait4. Returns false on spawn
/// failure or nonzero exit.
bool RunChild(const std::string& cli, const std::vector<std::string>& args,
              uint64_t* peak_rss_bytes) {
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
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (::wait4(pid, &status, 0, &ru) < 0) {
    std::perror("wait4");
    return false;
  }
#if defined(__APPLE__)
  *peak_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss);
#else
  *peak_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss) << 10;  // KiB
#endif
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "child %s exited abnormally (status %d)\n",
                 cli.c_str(), status);
    return false;
  }
  return true;
}

/// Chunked byte comparison so a multi-hundred-MB reference never lives in
/// memory here either.
bool FilesIdentical(const std::string& a, const std::string& b) {
  auto fa = FileInputStream::Open(a);
  auto fb = FileInputStream::Open(b);
  if (!fa.ok() || !fb.ok()) return false;
  std::vector<char> ba(1 << 20), bb(1 << 20);
  for (;;) {
    auto na = (*fa)->Read(ba.data(), ba.size());
    auto nb = (*fb)->Read(bb.data(), bb.size());
    if (!na.ok() || !nb.ok() || *na != *nb) return false;
    if (*na == 0) return true;
    if (std::memcmp(ba.data(), bb.data(), *na) != 0) return false;
  }
}

int Run() {
  const std::string cli = EnvOr("SMPX_CLI", "./smpx");
  if (::access(cli.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "smpx binary '%s' not found/executable; set SMPX_CLI\n",
                 cli.c_str());
    return 1;
  }
  const std::string dataset = EnvOr("SMPX_DATASET", "medline");
  const uint64_t scale = ScaleBytes();
  const uint64_t budget = EnvU64("SMPX_MAX_BUFFER", 1 << 20);
  const uint64_t slack = EnvU64("SMPX_RSS_SLACK_MB", 48) << 20;
  const uint64_t multiple = EnvU64("SMPX_RSS_MULTIPLE", 8);
  const uint64_t window = SlidingWindow::kDefaultCapacity;

  // A near-full-copy projection: the regression this wire trips on is
  // whole-OUTPUT buffering, so the output must dwarf the slack (it is
  // ~98% of the MEDLINE and ~99.9% of the XMark document).
  std::string dtd_text;
  std::string paths;
  if (dataset == "xmark") {
    dtd_text = xmlgen::XmarkDtdText();
    paths = "/site/regions# /site/categories# /site/people# "
            "/site/open_auctions# /site/closed_auctions#";
  } else {
    dtd_text = xmlgen::MedlineDtdText();
    paths = "/MedlineCitationSet/MedlineCitation/PMID# "
            "/MedlineCitationSet/MedlineCitation/DateCreated# "
            "/MedlineCitationSet/MedlineCitation/DateCompleted# "
            "/MedlineCitationSet/MedlineCitation/Article# "
            "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
            "/MedlineCitationSet/MedlineCitation/CitationSubset# "
            "/MedlineCitationSet/MedlineCitation/PersonalNameSubjectList#";
  }
  auto pf = core::Prefilter::Compile(
      dataset == "xmark" ? xmlgen::XmarkDtd() : xmlgen::MedlineDtd(),
      MustPaths(paths.c_str()));
  if (!pf.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 pf.status().ToString().c_str());
    return 1;
  }
  const size_t split_keywords = pf->tables().split_keywords.size();
  if (split_keywords == 0) {
    std::fprintf(stderr,
                 "projection '%s' has no split keyword: --threads would "
                 "run one serial session and the sweep would check "
                 "neither spill nor segment replay\n",
                 paths.c_str());
    return 1;
  }

  const std::string dtd_path = "tripwire." + dataset + ".dtd";
  const std::string doc_path = "tripwire." + dataset + ".xml";
  const std::string ref_path = "tripwire." + dataset + ".ref.xml";
  const std::string out_path = "tripwire." + dataset + ".out.xml";
  const std::string idx_path = "tripwire." + dataset + ".idx";
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
      "== shard RSS tripwire (%s %s, budget %s, window %s, %zu split "
      "keywords) ==\n",
      dataset.c_str(), Mb(static_cast<double>(scale)).c_str(),
      Mb(static_cast<double>(budget)).c_str(),
      Mb(static_cast<double>(window)).c_str(), split_keywords);

  // Serial reference (streams through the same CLI pipeline).
  uint64_t serial_rss = 0;
  if (!RunChild(cli,
                {"--dtd", dtd_path, "--paths", paths, "--max-buffer",
                 std::to_string(budget), doc_path, ref_path},
                &serial_rss)) {
    return 1;
  }

  const std::string threads_env = EnvOr("SMPX_THREADS", "1 2 4");
  std::vector<int> threads;
  int v = 0;
  for (const char* p = threads_env.c_str();; ++p) {
    if (*p >= '0' && *p <= '9') {
      v = v * 10 + (*p - '0');
    } else {
      if (v > 0) threads.push_back(v);
      v = 0;
      if (*p == '\0') break;
    }
  }

  TablePrinter table({"run", "threads", "peakMB", "limitMB", "MBps",
                      "identical", "ok"});
  bool all_ok = true;
  auto add_row = [&](const char* run, int t, uint64_t rss, uint64_t limit,
                     double secs, const char* identical, bool ok) {
    all_ok = all_ok && ok;
    table.AddRow({run, std::to_string(t),
                  Fmt("%.1f", static_cast<double>(rss) / (1 << 20)),
                  Fmt("%.1f", static_cast<double>(limit) / (1 << 20)),
                  Fmt("%.1f", static_cast<double>(scale) / (1 << 20) / secs),
                  identical, ok ? "yes" : "NO"});
  };
  for (int t : threads) {
    uint64_t rss = 0;
    WallTimer w;
    bool ran = RunChild(
        cli,
        {"--dtd", dtd_path, "--paths", paths, "--threads",
         std::to_string(t), "--max-buffer", std::to_string(budget),
         doc_path, out_path},
        &rss);
    const double secs = w.Seconds();
    bool identical = ran && FilesIdentical(ref_path, out_path);
    const uint64_t limit =
        scale + slack +
        multiple * static_cast<uint64_t>(t) * (budget + window);
    add_row("shard", t, rss, limit, secs, identical ? "yes" : "NO",
            ran && identical && rss <= limit);
  }
  {
    uint64_t rss = 0;
    WallTimer w;
    bool ran = RunChild(cli,
                        {"--dtd", dtd_path, "--paths", paths, "--index-build",
                         idx_path, "--index-granularity", "1", doc_path},
                        &rss);
    const double secs = w.Seconds();
    const uint64_t limit = scale + slack;
    add_row("index-build", 1, rss, limit, secs, "-", ran && rss <= limit);
  }
  table.Print("shard_rss_tripwire");

  std::remove(dtd_path.c_str());
  std::remove(doc_path.c_str());
  std::remove(ref_path.c_str());
  std::remove(out_path.c_str());
  std::remove(idx_path.c_str());
  if (!all_ok) {
    std::fprintf(stderr,
                 "RSS tripwire FAILED: a sharded run exceeded the memory "
                 "bound or diverged from the serial output, or the index "
                 "build exceeded input + slack\n");
    return 1;
  }
  std::printf("tripwire ok: sharded peak RSS within input + slack + "
              "%llu x threads x (budget + window), outputs byte-identical; "
              "index build within input + slack\n",
              static_cast<unsigned long long>(multiple));
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }

#endif  // SMPX_TRIPWIRE_POSIX
