// multi: the 39-query multi-tenant selective mix compiled once with
// MultiQuery::Compile and projected in one MultiQuery::RunOnBuffer pass
// over the seeded XMark document, one thread. It drives core/engine
// through product states, per-query masks and N sinks, so an engine
// change tuned for single-query scans cannot hide a multi-query
// regression, and it is the only workload where query/multiquery carries
// the work.
//
// One round (and one operation) is one pass; every query's output is
// checked against its own single-query serial run.

#include <optional>

#include "bench.h"
#include "catalog.h"
#include "dtd/dtd.h"
#include "paths/projection_path.h"
#include "query/multiquery.h"
#include "xmlgen/xmark.h"

namespace smpxbench {
namespace {

constexpr uint64_t kDocBytes = 32ull << 20;

}  // namespace

void RunMulti(const Args& args, Outcome* out) {
  const std::string doc = MakeXmark(kDocBytes, SubSeed(args.seed, 1));
  out->header.push_back({"xmark_bytes", std::to_string(doc.size())});
  out->header.push_back({"threads", "1"});
  const std::vector<std::string> mix = MultiTenantMix();
  const std::string& dtd_text = smpx::xmlgen::XmarkDtdText();

  std::optional<smpx::query::MultiQuery> mq;
  const std::vector<double> setup = RepeatSetup(3, 0.5, [&] {
    trace::Span span("query.mq_compile");
    auto dtd = smpx::dtd::Dtd::Parse(dtd_text);
    if (!dtd.ok()) Fatal("DTD: " + dtd.status().ToString());
    std::vector<std::vector<smpx::paths::ProjectionPath>> queries;
    for (const std::string& q : mix) {
      auto paths = smpx::paths::ProjectionPath::ParseList(q);
      if (!paths.ok()) Fatal("paths '" + q + "': " + paths.status().ToString());
      queries.push_back(std::move(*paths));
    }
    auto compiled =
        smpx::query::MultiQuery::Compile(std::move(*dtd), std::move(queries));
    if (!compiled.ok()) Fatal("multi-query compile: " + compiled.status().ToString());
    mq.emplace(std::move(*compiled));
  });

  std::vector<Reference> refs;
  for (const std::string& q : mix) {
    refs.push_back(SerialReference(MustCompile(dtd_text, q).tables(), doc));
  }

  smpx::core::RunStats round_stats;
  double output_mb = 0;
  auto round = [&](Samples* s) {
    std::vector<HashSink> sinks(mix.size());
    std::vector<smpx::OutputSink*> ptrs;
    for (HashSink& sink : sinks) ptrs.push_back(&sink);
    smpx::core::RunStats stats;
    smpx::Status status;
    Stopwatch w;
    {
      trace::Span span("query.mq_run");
      status = mq->RunOnBuffer(doc, ptrs, nullptr, &stats);
    }
    const double dt = w.Seconds();
    uint64_t bytes = 0;
    for (size_t q = 0; q < mix.size(); ++q) {
      Tally(&out->counts, status, Same(sinks[q], refs[q]), mix[q].c_str());
      bytes += sinks[q].bytes_written();
    }
    s->op_us.push_back(dt * 1e6);
    s->round_mbps.push_back(static_cast<double>(doc.size()) / kMB / dt);
    round_stats = stats;
    output_mb = static_cast<double>(bytes) / kMB;
  };
  Samples plain, traced;
  MeasurePhases(args, 5, round, &plain, &traced);

  FillEndToEnd(setup, plain, out);
  Put(&out->detail, "multi_mbps", Median(plain.round_mbps), "MB/s",
      plain.round_mbps.size());
  if (!args.trace) return;

  Put(&out->layer, "query.mq_compile_ms", Median(setup) * 1e3, "ms",
      setup.size());
  Put(&out->layer, "query.product_states",
      static_cast<double>(mq->tables().states.size()), "count");
  Put(&out->layer, "query.unique_queries", mq->num_unique(), "count");
  Put(&out->layer, "query.mq_run_ms", Median(traced.op_us) / 1e3, "ms",
      traced.op_us.size());
  Put(&out->layer, "query.mq_output_mb", output_mb, "MB");
  Put(&out->layer, "query.fanout_ratio",
      static_cast<double>(mq->num_queries()) / mq->num_unique(), "ratio");
  FillEngineMetrics(round_stats, out);
  FillTraceMetrics(plain, traced, out);
}

}  // namespace smpxbench
