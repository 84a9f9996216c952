// offline: the paper's own experiment. Every catalog query is compiled
// once with Prefilter::Compile and then projects its seeded document --
// XMark queries the XMark document, MEDLINE queries the MEDLINE one --
// serially with Prefilter::Run on one thread. core/engine, strmatch and
// simd do almost all the work; parallel, index and server do none.
//
// One round, which is also the unit operation, runs every query once:
// the round's input MB over its summed Prefilter::Run wall time is the
// paper's scan speed. (Single calls would make percentiles jump between
// the 23 queries' very different run times.)

#include "bench.h"
#include "catalog.h"
#include "parallel/shard.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpxbench {
namespace {

constexpr uint64_t kDocBytes = 32ull << 20;

std::vector<smpx::core::Prefilter> CompileCatalog() {
  std::vector<smpx::core::Prefilter> out;
  for (const CatalogQuery& q : Catalog()) {
    trace::Span span("core.compile");
    out.push_back(MustCompile(q.medline ? smpx::xmlgen::MedlineDtdText()
                                        : smpx::xmlgen::XmarkDtdText(),
                              q.paths));
  }
  return out;
}

}  // namespace

void RunOffline(const Args& args, Outcome* out) {
  const std::string xmark = MakeXmark(kDocBytes, SubSeed(args.seed, 1));
  const std::string medline = MakeMedline(kDocBytes, SubSeed(args.seed, 2));
  out->header.push_back({"xmark_bytes", std::to_string(xmark.size())});
  out->header.push_back({"medline_bytes", std::to_string(medline.size())});
  out->header.push_back({"threads", "1"});
  const std::vector<CatalogQuery>& catalog = Catalog();

  std::vector<smpx::core::Prefilter> pfs;
  const std::vector<double> setup =
      RepeatSetup(5, 0.5, [&] { pfs = CompileCatalog(); });

  std::vector<const std::string*> docs;
  std::vector<Reference> refs;
  for (size_t i = 0; i < catalog.size(); ++i) {
    docs.push_back(catalog[i].medline ? &medline : &xmark);
    refs.push_back(SerialReference(pfs[i].tables(), *docs[i]));
  }

  smpx::core::RunStats round_stats;
  auto round = [&](Samples* s) {
    smpx::core::RunStats merged;
    double busy = 0;
    double mb = 0;
    for (size_t i = 0; i < catalog.size(); ++i) {
      smpx::MemoryInputStream in(*docs[i]);
      HashSink sink;
      smpx::core::RunStats stats;
      smpx::Status status;
      Stopwatch w;
      {
        trace::Span span("engine.run");
        status = pfs[i].Run(&in, &sink, &stats);
      }
      const double dt = w.Seconds();
      Tally(&out->counts, status, Same(sink, refs[i]), catalog[i].id);
      busy += dt;
      mb += static_cast<double>(docs[i]->size()) / kMB;
      smpx::parallel::MergeRunStats(&merged, stats);
    }
    s->op_us.push_back(busy * 1e6);
    s->round_mbps.push_back(mb / busy);
    round_stats = merged;
  };
  Samples plain, traced;
  MeasurePhases(args, 3, round, &plain, &traced);

  FillEndToEnd(setup, plain, out);
  Put(&out->detail, "scan_mbps", Median(plain.round_mbps), "MB/s",
      plain.round_mbps.size());
  if (!args.trace) return;

  double states = 0;
  for (const smpx::core::Prefilter& pf : pfs) {
    states += static_cast<double>(pf.num_states());
  }
  Put(&out->layer, "core.compile_ms", Median(setup) * 1e3, "ms",
      setup.size());
  Put(&out->layer, "core.dfa_states", states, "count");
  Put(&out->layer, "engine.run_ms", Median(traced.op_us) / 1e3, "ms",
      traced.op_us.size());
  FillEngineMetrics(round_stats, out);
  FillTraceMetrics(plain, traced, out);
}

}  // namespace smpxbench
