// Reproduces Table I: "SMP on the XMark document" -- one row per XMark
// query (XM1-XM14, XM17-XM20) with Proj.Size, Mem, Usr+Sys, States
// (CW + BM), average shift size, initial-jump percentage and the
// percentage of characters inspected. Columns marked paper= carry the
// values the paper reports for its 5 GB input; the *shape* (who skips
// most, relative sizes) is the reproduction target, not absolute times.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "xmlgen/xmark.h"

namespace smpx::bench {
namespace {

int Run() {
  uint64_t bytes = ScaleBytes();
  const std::string& doc = Dataset("xmark", bytes);
  std::printf("== Table I: SMP prefiltering, XMark document (%s) ==\n",
              Mb(static_cast<double>(doc.size())).c_str());

  TablePrinter table({"query", "Proj.Size", "Mem", "Usr+Sys", "Thru",
                      "States(CW+BM)", "oShift", "Jumps", "CharComp",
                      "paper:CC", "paper:Shift", "paper:St"});

  for (const Workload& w : XmarkWorkloads()) {
    WallTimer compile_timer;
    auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(),
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
    double wall_s = wall.Seconds();
    double cpu_s = cpu.Seconds();
    if (!s.ok()) {
      std::fprintf(stderr, "%s: run failed: %s\n", w.id,
                   s.ToString().c_str());
      return 1;
    }

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
                  static_cast<double>(doc.size()) / wall_s / (1 << 20));
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
  table.Print("table1");
  std::printf(
      "\nNotes: Mem is the engine window high-water mark (the paper also "
      "reports ~1.6-2MB);\nstatic analysis time is included in Usr+Sys as "
      "in the paper.\n");
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
