// Reproduces Table II: "SMP on the MEDLINE document" -- queries M1-M5.
// Notable shapes to reproduce: M1 (a DTD-declared but absent element)
// projects to ~0 bytes with very large shifts; M1-M4 see (almost) no
// initial jumps because the MEDLINE DTD is optional-heavy; M5 gets
// noticeable jumps from the required DateCreated run.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "xmlgen/medline.h"

namespace smpx::bench {
namespace {

int Run() {
  const std::string& doc = Dataset("medline", ScaleBytes());
  std::printf("== Table II: SMP prefiltering, MEDLINE document (%s) ==\n",
              Mb(static_cast<double>(doc.size())).c_str());

  TablePrinter table({"query", "Proj.Size", "Mem", "Usr+Sys", "Thru",
                      "States(CW+BM)", "oShift", "Jumps", "CharComp",
                      "paper:CC", "paper:Shift", "paper:St"});

  for (const Workload& w : MedlineWorkloads()) {
    WallTimer compile_timer;
    auto pf = core::Prefilter::Compile(xmlgen::MedlineDtd(),
                                       MustPaths(w.projection_paths));
    if (!pf.ok()) {
      std::fprintf(stderr, "%s: compile failed: %s\n", w.id,
                   pf.status().ToString().c_str());
      return 1;
    }
    double compile_s = compile_timer.Seconds();

    core::RunStats stats;
    CpuTimer cpu;
    WallTimer wall;
    MemorySource in(doc);
    CountingSink out;
    Status s = pf->Run(&in, &out, &stats);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: run failed: %s\n", w.id,
                   s.ToString().c_str());
      return 1;
    }
    double cpu_s = cpu.Seconds();

    size_t cw = 0;
    size_t bm = 0;
    for (const auto& st : pf->tables().states) {
      if (st.keywords.size() > 1) {
        ++cw;
      } else if (st.keywords.size() == 1) {
        ++bm;
      }
    }
    char states[48];
    std::snprintf(states, sizeof(states), "%zu (%zu+%zu)",
                  pf->num_states(), cw, bm);
    char thru[32];
    std::snprintf(thru, sizeof(thru), "%.0fMB/s",
                  static_cast<double>(doc.size()) / wall.Seconds() /
                      (1 << 20));
    char shift[16];
    std::snprintf(shift, sizeof(shift), "%.2f", stats.AvgShift());
    char paper_shift[16];
    std::snprintf(paper_shift, sizeof(paper_shift), "%.2f",
                  w.paper_avg_shift);

    table.AddRow({w.id, Mb(static_cast<double>(stats.output_bytes)),
                  Mb(static_cast<double>(stats.window_peak)),
                  Secs(cpu_s + compile_s), thru, states, shift,
                  Pct(stats.InitialJumpPct()), Pct(stats.CharCompPct()),
                  Pct(w.paper_char_comp), paper_shift,
                  std::to_string(w.paper_states)});
  }
  table.Print("table2");
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
