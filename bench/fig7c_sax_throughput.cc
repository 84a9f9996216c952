// Reproduces Fig. 7(c): throughput of bare SAX tokenization (Xerces
// substitute, SAX1 = tokenize only, SAX2 = tokenize + well-formedness)
// vs the *average* SMP prefiltering throughput over the full query set,
// for both XMark and MEDLINE. The paper's claim: SMP prefilters 3-9x
// faster than a SAX parser can even tokenize, so any tokenizing
// prefilterer is bounded away from SMP.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/sax_baseline.h"
#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx::bench {
namespace {

double SaxThroughput(const std::string& doc, bool well_formed) {
  WallTimer t;
  auto r = baselines::SaxParse(doc, well_formed);
  if (!r.ok()) {
    std::fprintf(stderr, "sax parse failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return static_cast<double>(doc.size()) / t.Seconds() / (1 << 20);
}

double AvgSmpThroughput(const dtd::Dtd& dtd,
                        const std::vector<Workload>& workloads,
                        const std::string& doc, double* min_thru,
                        double* max_thru) {
  double sum = 0;
  *min_thru = 1e18;
  *max_thru = 0;
  for (const Workload& w : workloads) {
    auto pf = core::Prefilter::Compile(dtd, MustPaths(w.projection_paths));
    if (!pf.ok()) {
      std::fprintf(stderr, "%s compile failed: %s\n", w.id,
                   pf.status().ToString().c_str());
      std::exit(1);
    }
    WallTimer t;
    MemorySource in(doc);
    CountingSink out;
    Status s = pf->Run(&in, &out, nullptr);
    if (!s.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n", w.id,
                   s.ToString().c_str());
      std::exit(1);
    }
    double thru = static_cast<double>(doc.size()) / t.Seconds() / (1 << 20);
    sum += thru;
    *min_thru = std::min(*min_thru, thru);
    *max_thru = std::max(*max_thru, thru);
  }
  return sum / static_cast<double>(workloads.size());
}

int Run() {
  std::printf("== Fig. 7(c): SAX tokenization vs average SMP prefiltering "
              "throughput ==\n");
  TablePrinter table({"dataset", "Xerces-SAX1", "Xerces-SAX2", "avg SMP",
                      "min SMP", "max SMP", "SMP/SAX2"});
  struct Case {
    const char* name;
    const char* dataset;
    const std::vector<Workload>* workloads;
    dtd::Dtd dtd;
  };
  std::vector<Case> cases;
  cases.push_back({"XMARK", "xmark", &XmarkWorkloads(), xmlgen::XmarkDtd()});
  cases.push_back(
      {"MEDLINE", "medline", &MedlineWorkloads(), xmlgen::MedlineDtd()});
  for (Case& c : cases) {
    const std::string& doc = Dataset(c.dataset, ScaleBytes());
    double sax1 = SaxThroughput(doc, false);
    double sax2 = SaxThroughput(doc, true);
    double lo = 0;
    double hi = 0;
    double avg = AvgSmpThroughput(c.dtd, *c.workloads, doc, &lo, &hi);
    auto f = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0fMB/s", v);
      return std::string(buf);
    };
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.1fx", avg / sax2);
    table.AddRow({c.name, f(sax1), f(sax2), f(avg), f(lo), f(hi), ratio});
  }
  table.Print("fig7c");
  std::printf("\nPaper shape: SMP 3-9x above Xerces on both datasets.\n");
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
