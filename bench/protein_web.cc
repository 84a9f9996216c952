// Reproduces the Protein Sequence results the paper defers to its
// companion website [27] ("Due to space limitations, we refer to [27] for
// the Protein Sequence results"): SMP characteristics on the third dataset
// of Section V-A. Protein data is the opposite mix of XMark -- few long
// text runs (sequences) under shallow markup -- so shifts are large and
// the inspected fraction drops further.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "xmlgen/protein.h"

namespace smpx::bench {
namespace {

int Run() {
  const std::string& doc = Dataset("protein", ScaleBytes());
  std::printf(
      "== Website results [27]: SMP on the Protein Sequence dataset (%s) "
      "==\n",
      Mb(static_cast<double>(doc.size())).c_str());

  TablePrinter table({"query", "Proj.Size", "Usr+Sys", "Thru",
                      "States(CW+BM)", "oShift", "Jumps", "CharComp"});
  for (const Workload& w : ProteinWorkloads()) {
    auto pf = core::Prefilter::Compile(xmlgen::ProteinDtd(),
                                       MustPaths(w.projection_paths));
    if (!pf.ok()) {
      std::fprintf(stderr, "%s compile: %s\n", w.id,
                   pf.status().ToString().c_str());
      return 1;
    }
    core::RunStats stats;
    CpuTimer cpu;
    WallTimer wall;
    MemorySource in(doc);
    CountingSink out;
    Status s = pf->Run(&in, &out, &stats);
    if (!s.ok()) {
      std::fprintf(stderr, "%s run: %s\n", w.id, s.ToString().c_str());
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
                  static_cast<double>(doc.size()) / wall.Seconds() /
                      (1 << 20));
    char shift[16];
    std::snprintf(shift, sizeof(shift), "%.2f", stats.AvgShift());
    table.AddRow({w.id, Mb(static_cast<double>(stats.output_bytes)),
                  Secs(cpu.Seconds()), thru, states, shift,
                  Pct(stats.InitialJumpPct()), Pct(stats.CharCompPct())});
  }
  table.Print("protein");
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
