// Reproduces Table III: "Projection of the XMark document" -- the
// tokenizing projector (stand-in for Type-Based Projection [6], which
// tokenizes its complete input) against SMP on queries XM3, XM6, XM7,
// XM19. The paper reports a ~90x Usr+Sys gap, of which it attributes a
// factor of 5-20 to OCaml-vs-C++; our baseline is C++ too, so the expected
// gap here is the *algorithmic* share (several-fold, driven by
// tokenize-everything vs skip-most).

#include <cstdio>

#include "baselines/sax_projector.h"
#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "xmlgen/xmark.h"

namespace smpx::bench {
namespace {

int Run() {
  const std::string& doc = Dataset("xmark", ScaleBytes());
  std::printf(
      "== Table III: tokenizing projection (TBP substitute) vs SMP "
      "(XMark, %s) ==\n",
      Mb(static_cast<double>(doc.size())).c_str());

  TablePrinter table({"query", "TBP-dfa", "TBP-nfa", "TBP:Proj",
                      "SMP:Usr+Sys", "SMP:Mem", "SMP:Proj", "vs-dfa",
                      "vs-nfa"});

  for (const Workload& w : XmarkWorkloads()) {
    std::string id(w.id);
    if (id != "XM3" && id != "XM6" && id != "XM7" && id != "XM19") continue;

    // Tokenizing projector, type-lookup style (memoized decisions, like
    // TBP) and XFilter style (path NFAs re-stepped per node).
    double sax_s[2] = {0, 0};
    baselines::SaxProjectStats sax_stats;
    for (int mode = 0; mode < 2; ++mode) {
      baselines::SaxProjector projector(
          MustPaths(w.projection_paths),
          mode == 0 ? baselines::SaxProjector::Mode::kMemoizedDfa
                    : baselines::SaxProjector::Mode::kNfaPerNode);
      CpuTimer sax_cpu;
      CountingSink sax_out;
      Status s = projector.Project(doc, &sax_out, &sax_stats);
      sax_s[mode] = sax_cpu.Seconds();
      if (!s.ok()) {
        std::fprintf(stderr, "%s TBP failed: %s\n", w.id,
                     s.ToString().c_str());
        return 1;
      }
    }

    // SMP.
    auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(),
                                       MustPaths(w.projection_paths));
    if (!pf.ok()) {
      std::fprintf(stderr, "%s SMP compile failed: %s\n", w.id,
                   pf.status().ToString().c_str());
      return 1;
    }
    core::RunStats smp_stats;
    CpuTimer smp_cpu;
    MemorySource in(doc);
    CountingSink smp_out;
    Status s = pf->Run(&in, &smp_out, &smp_stats);
    double smp_s = smp_cpu.Seconds();
    if (!s.ok()) {
      std::fprintf(stderr, "%s SMP failed: %s\n", w.id,
                   s.ToString().c_str());
      return 1;
    }

    char vs_dfa[32];
    std::snprintf(vs_dfa, sizeof(vs_dfa), "%.1fx",
                  smp_s > 0 ? sax_s[0] / smp_s : 0.0);
    char vs_nfa[32];
    std::snprintf(vs_nfa, sizeof(vs_nfa), "%.1fx",
                  smp_s > 0 ? sax_s[1] / smp_s : 0.0);
    table.AddRow({w.id, Secs(sax_s[0]), Secs(sax_s[1]),
                  Mb(static_cast<double>(sax_stats.output_bytes)),
                  Secs(smp_s), Mb(static_cast<double>(smp_stats.window_peak)),
                  Mb(static_cast<double>(smp_stats.output_bytes)), vs_dfa,
                  vs_nfa});
  }
  table.Print("table3");
  std::printf(
      "\nTBP-dfa: decisions memoized per context (type-lookup, as TBP); "
      "TBP-nfa: path NFAs\nre-stepped per node (XFilter-style). Paper "
      "context: TBP (OCaml) needed 757-1170s vs\nSMP 5.4-9.8s on 1 GB "
      "(factor ~90-150, including the OCaml-vs-C++ gap); projection\n"
      "outputs here are byte-identical across all three systems "
      "(asserted by tests).\n");
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
