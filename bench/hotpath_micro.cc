// Hot-path micro-benchmark: the reworked per-tag pipeline versus the seed
// baseline, layer by layer, on XMark generator output.
//
//   legacy    std::map tag dispatch + per-byte tag scanning + classical
//             BM/CW scan loops (TableOptions::use_map_dispatch +
//             disable_matcher_skip_loops) -- the seed hot path (prolog
//             skipping, a once-per-document cost, is shared).
//   interned  interned tag dispatch + bulk span scanning, matchers still
//             classical (isolates the dispatch/scan layers).
//   scalar/swar/simd
//             the full default pipeline (interned dispatch + span scanning
//             + matcher skip loops), measured under a forced structural-
//             classification tier (simd::SetIsa): per-byte scalar kernels,
//             8-byte SWAR word kernels, and the best vector tier the host
//             offers (the `isa` column names it). Same code path, same
//             output, same stats -- the columns isolate the kernel tier.
//
// Reports tags/sec and bytes/sec per workload plus speedups over legacy
// and the simd/swar tier ratio; the outputs of all paths (and all tiers)
// are cross-checked byte-for-byte before timing.
//
//   SMPX_SCALE_MB=64 ./bench_hotpath_micro
//   SMPX_REPS=5      best-of-N timing (default 3)
//   SMPX_CSV=1 / SMPX_JSON=1 for machine-readable output
//   SMPX_FORCE_ISA=  caps the tier the `simd` column selects

#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "simd/simd.h"
#include "xmlgen/xmark.h"

namespace smpx::bench {
namespace {

int Reps() {
  const char* env = std::getenv("SMPX_REPS");
  int reps = env != nullptr ? std::atoi(env) : 0;
  return reps > 0 ? reps : 3;
}

struct Measurement {
  double seconds = 0;
  uint64_t tags = 0;
  uint64_t bytes = 0;

  double TagsPerSec() const { return static_cast<double>(tags) / seconds; }
  double MbPerSec() const {
    return static_cast<double>(bytes) / (1 << 20) / seconds;
  }
};

Measurement Measure(const core::Prefilter& pf, const std::string& doc,
                    int reps) {
  Measurement best;
  for (int r = 0; r < reps; ++r) {
    MemorySource in(doc);
    CountingSink sink;
    core::RunStats stats;
    WallTimer timer;
    Status s = pf.Run(&in, &sink, &stats);
    double seconds = timer.Seconds();
    if (!s.ok()) {
      std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
      std::abort();
    }
    if (best.seconds == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.tags = stats.matches;
      best.bytes = stats.input_bytes;
    }
  }
  return best;
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

core::Prefilter MustCompile(const Workload& w,
                            const core::CompileOptions& opts) {
  auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(),
                                     MustPaths(w.projection_paths), opts);
  if (!pf.ok()) {
    std::fprintf(stderr, "%s: compile failed: %s\n", w.id,
                 pf.status().ToString().c_str());
    std::abort();
  }
  return std::move(*pf);
}

int Run() {
  const uint64_t bytes = ScaleBytes();
  const std::string& doc = Dataset("xmark", bytes);
  const int reps = Reps();
  const simd::Isa best = simd::ActiveIsa();
  const char* isa = simd::IsaName(best);
  std::printf(
      "== Hot path: legacy (seed) vs interned dispatch + span scan vs "
      "full pipeline under scalar/swar/%s kernels (XMark %s, best of %d) "
      "==\n",
      isa, Mb(static_cast<double>(doc.size())).c_str(), reps);

  TablePrinter table({"query", "tags/s(legacy)", "tags/s(interned)",
                      "tags/s(scalar)", "tags/s(swar)", "tags/s(simd)",
                      "full/legacy", "simd/swar", "MB/s(simd)", "isa",
                      "tags"});

  double worst_full = 0;
  double geomean_full = 1;
  double geomean_tier = 1;
  double worst_tier = 0;
  int rows = 0;
  for (const Workload& w : XmarkWorkloads()) {
    core::CompileOptions legacy_opts;
    legacy_opts.tables.use_map_dispatch = true;
    legacy_opts.tables.disable_matcher_skip_loops = true;
    core::CompileOptions interned_opts;
    interned_opts.tables.disable_matcher_skip_loops = true;
    core::CompileOptions full_opts;

    core::Prefilter legacy = MustCompile(w, legacy_opts);
    core::Prefilter interned = MustCompile(w, interned_opts);
    core::Prefilter full = MustCompile(w, full_opts);

    // Cross-check before timing: no path -- and no kernel tier -- may
    // change the output.
    auto out_legacy = legacy.RunOnBuffer(doc);
    auto out_interned = interned.RunOnBuffer(doc);
    auto out_full = full.RunOnBuffer(doc);
    simd::SetIsa(simd::Isa::kScalar);
    auto out_scalar = full.RunOnBuffer(doc);
    simd::SetIsa(simd::Isa::kSwar);
    auto out_swar = full.RunOnBuffer(doc);
    simd::SetIsa(best);
    if (!out_legacy.ok() || !out_interned.ok() || !out_full.ok() ||
        !out_scalar.ok() || !out_swar.ok() || *out_legacy != *out_interned ||
        *out_legacy != *out_full || *out_legacy != *out_scalar ||
        *out_legacy != *out_swar) {
      std::fprintf(stderr, "%s: hot-path variants disagree!\n", w.id);
      return 1;
    }

    Measurement m_legacy = Measure(legacy, doc, reps);
    Measurement m_interned = Measure(interned, doc, reps);
    simd::SetIsa(simd::Isa::kScalar);
    Measurement m_scalar = Measure(full, doc, reps);
    simd::SetIsa(simd::Isa::kSwar);
    Measurement m_swar = Measure(full, doc, reps);
    simd::SetIsa(best);
    Measurement m_simd = Measure(full, doc, reps);
    double speedup_full = m_legacy.seconds / m_simd.seconds;
    double speedup_tier = m_swar.seconds / m_simd.seconds;
    if (rows == 0 || speedup_full < worst_full) worst_full = speedup_full;
    if (rows == 0 || speedup_tier < worst_tier) worst_tier = speedup_tier;
    geomean_full *= speedup_full;
    geomean_tier *= speedup_tier;
    ++rows;

    table.AddRow({w.id, Rate(m_legacy.TagsPerSec()),
                  Rate(m_interned.TagsPerSec()), Rate(m_scalar.TagsPerSec()),
                  Rate(m_swar.TagsPerSec()), Rate(m_simd.TagsPerSec()),
                  Fmt("%.2fx", speedup_full), Fmt("%.2fx", speedup_tier),
                  Fmt("%.1f", m_simd.MbPerSec()), isa,
                  std::to_string(m_simd.tags)});
  }
  table.Print("hotpath_micro");
  std::printf(
      "full pipeline vs seed: worst %.2fx, geomean %.2fx; %s kernels vs "
      "swar kernels: worst %.2fx, geomean %.2fx\n",
      worst_full, rows > 0 ? std::pow(geomean_full, 1.0 / rows) : 0.0, isa,
      worst_tier, rows > 0 ? std::pow(geomean_tier, 1.0 / rows) : 0.0);
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
