// Boundary skip-index benchmark: what random access into a huge indexed
// document costs, versus the streaming alternative of prefiltering the
// whole prefix.
//
//   build    index-build throughput (MB/s of document indexed, one serial
//            streaming pass over the in-memory document) and index size
//            per granularity -- the one-time cost per corpus file.
//   seek     latency of Cursor::OpenAt + Next(1) (serve one record) at
//            evenly spread byte targets, per granularity, with the
//            content-digest verification hashed once up front the way a
//            server would (verify_document=false per seek; the hash cost
//            is its own row). The "scan-to" row is the baseline: a serial
//            prefilter run over the prefix up to the same average target,
//            which is what serving the seek would cost WITHOUT the index.
//
//   SMPX_SCALE_MB=64 ./bench_index_seek
//   SMPX_REPS=5                best-of-N timing (default 3)
//   SMPX_CSV=1 / SMPX_JSON=1   machine-readable output
//
// Workload: MEDLINE (star root, many uniform records -- the indexed-corpus
// serving shape) with the M-style journal-info projection.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "xmlgen/medline.h"

namespace smpx::bench {
namespace {

constexpr int kSeeksPerRow = 32;

int Reps() {
  const char* env = std::getenv("SMPX_REPS");
  int reps = env != nullptr ? std::atoi(env) : 0;
  return reps > 0 ? reps : 3;
}

int Run() {
  const uint64_t bytes = ScaleBytes();
  const std::string& doc = Dataset("medline", bytes);
  auto paths = MustPaths(
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
      "/MedlineCitationSet/MedlineCitation/DateCompleted#");
  auto pf = core::Prefilter::Compile(xmlgen::MedlineDtd(), std::move(paths));
  if (!pf.ok()) {
    std::fprintf(stderr, "compile: %s\n", pf.status().ToString().c_str());
    return 1;
  }
  const int reps = Reps();

  std::printf("== boundary skip-index: build + seek (MEDLINE, %s) ==\n",
              Mb(static_cast<double>(doc.size())).c_str());
  TablePrinter table({"granularity", "entries", "indexMB", "buildMBs",
                      "seek_us", "serve1_us", "scanto_ms", "speedup"});

  // Baseline: serial prefilter of the prefix up to the average seek
  // target (half the document) -- the no-index cost of the same entry.
  double scan_to_ms = 0;
  {
    StringSink sink;
    core::PrefilterSession session(pf->tables(), &sink, nullptr, {});
    WallTimer t;
    Status s = session.Resume(
        std::string_view(doc).substr(0, doc.size() / 2));
    if (!s.ok()) {
      std::fprintf(stderr, "baseline: %s\n", s.ToString().c_str());
      return 1;
    }
    scan_to_ms = t.Seconds() * 1e3;
  }

  for (uint64_t gran : {uint64_t{4} << 20, uint64_t{1} << 20,
                        uint64_t{64} << 10}) {
    index::BoundaryIndexOptions iopts;
    iopts.granularity_bytes = gran;
    double build_secs = 1e30;
    Result<index::BoundaryIndex> idx = Status::Internal("unset");
    for (int r = 0; r < reps; ++r) {
      WallTimer t;
      idx = index::BoundaryIndex::Build(pf->tables(), MemorySource(doc),
                                        iopts);
      build_secs = std::min(build_secs, t.Seconds());
      if (!idx.ok()) {
        std::fprintf(stderr, "build: %s\n", idx.status().ToString().c_str());
        return 1;
      }
    }
    const std::string serialized = idx->Serialize();

    // A server verifies the digest once when it maps the corpus file,
    // then serves every seek against the validated pair.
    if (!idx->Matches(doc, pf->tables()).ok()) {
      std::fprintf(stderr, "index does not match its own document\n");
      return 1;
    }
    index::CursorOptions copts;
    copts.verify_document = false;

    double open_secs = 0, serve_secs = 0;
    for (int i = 0; i < kSeeksPerRow; ++i) {
      uint64_t target = doc.size() * static_cast<uint64_t>(i + 1) /
                        (kSeeksPerRow + 1);
      double best_open = 1e30, best_serve = 1e30;
      for (int r = 0; r < reps; ++r) {
        WallTimer t_open;
        auto cur =
            index::Cursor::OpenAt(*idx, pf->tables(), doc, target, copts);
        best_open = std::min(best_open, t_open.Seconds());
        if (!cur.ok()) {
          std::fprintf(stderr, "seek: %s\n",
                       cur.status().ToString().c_str());
          return 1;
        }
        CountingSink sink;
        WallTimer t_serve;
        auto n = cur->Next(1, &sink);
        best_serve = std::min(best_serve, t_serve.Seconds());
        if (!n.ok()) {
          std::fprintf(stderr, "serve: %s\n",
                       n.status().ToString().c_str());
          return 1;
        }
      }
      open_secs += best_open;
      serve_secs += best_serve;
    }
    const double seek_us = open_secs / kSeeksPerRow * 1e6;
    const double serve_us = (open_secs + serve_secs) / kSeeksPerRow * 1e6;
    auto fixed = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", v);
      return std::string(buf);
    };
    table.AddRow(
        {Mb(static_cast<double>(gran)),
         std::to_string(idx->entries().size()),
         Mb(static_cast<double>(serialized.size())),
         Mb(static_cast<double>(doc.size()) / build_secs),
         fixed(seek_us), fixed(serve_us), fixed(scan_to_ms),
         std::to_string(
             static_cast<long long>(scan_to_ms * 1e3 / serve_us)) +
             "x"});
  }
  table.Print("index_seek");
  std::printf(
      "(seek_us = OpenAt only; serve1_us = OpenAt + one record; scanto = "
      "serial prefilter of the half-document prefix, the no-index cost of "
      "the same entry point)\n");
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
