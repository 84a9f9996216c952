// sharded: ShardedRun over large MEDLINE documents (star-shaped root, one
// behavior class) and large XMark documents (sectioned root, three
// classes), then BatchRunStreamingMerged over a batch of 16 small XMark
// documents, all on a pool of min(4, nproc) threads. The only workload
// where parallel and the common/io sink pipeline (per-segment SpillSinks,
// OrderedCommitSink) do most of the work.
//
// Each kind has eight documents, each with its own seed: where shard
// boundaries fall, and so how well speculation and the wave balance, is a
// property of the individual document, and one document per kind made the
// run's throughput jump by a quarter from seed to seed.
//
// Segment budgets stay unbounded (max_buffer_bytes = 0): a bounded budget
// spills through std::tmpfile, which writes outside the benchmark's
// checkout. The in-memory SpillSink and OrderedCommitSink path still runs.
//
// One round, which is also the unit operation, is every sharded run plus
// the batch (the calls differ in length, so per-call percentiles would
// jump between them). mbps is the round's input MB over its wall time.
//
// The traced run adds, per document, a serial RunEngine baseline, a
// standalone boundary scan, and a phase probe that drives the public
// pieces ShardedRun is built from (boundary scan, SpeculativeResolver
// wave launch, per-segment resolve, ordered commit) to time each phase.

#include <algorithm>
#include <optional>

#include "bench.h"
#include "catalog.h"
#include "parallel/batch.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpxbench {
namespace {

constexpr int kDocsPerKind = 8;
constexpr uint64_t kShardDocBytes = 8ull << 20;
constexpr int kBatchDocs = 16;
constexpr uint64_t kBatchDocBytes = 2ull << 20;
constexpr int kProbeReps = 3;

// The documents of one kind (MEDLINE or XMark) and what the traced half
// observed on them.
struct Kind {
  const char* name;
  const smpx::core::Prefilter* pf;
  std::vector<std::string> docs;
  std::vector<Reference> refs;
  uint64_t bytes = 0;
  std::vector<double> sharded_s;         // per traced round, all documents
  smpx::parallel::ShardReport sum = {};  // summed over traced runs
  size_t rounds = 0;                     // traced rounds
};

struct Phases {
  double scan = 0, launch = 0, head = 0, resolve = 0, commit = 0;
};

// ShardedRun's pipeline, assembled from its public pieces with a timer
// around each phase; the output is checked like every other run.
Phases PhaseProbe(const smpx::core::RuntimeTables& tables,
                  std::string_view doc, const Reference& ref,
                  smpx::parallel::ThreadPool* pool, Counts* counts) {
  trace::Span root("parallel.phase_probe");
  Phases p;
  std::vector<uint64_t> bounds;
  {
    trace::Span span("parallel.phase_scan");
    Stopwatch w;
    if (pool->size() > 1) {
      bounds = smpx::parallel::FindTopLevelBoundariesParallel(
          doc, static_cast<size_t>(pool->size()) - 1, pool, nullptr,
          tables.use_bitmap_plane);
    }
    p.scan = w.Seconds();
  }
  smpx::parallel::SpeculativeResolver::Options ropts;
  ropts.max_candidate_states =
      smpx::parallel::ShardOptions{}.max_candidate_states;
  smpx::parallel::SpeculativeResolver resolver(tables, doc, bounds, ropts);
  {
    trace::Span span("parallel.phase_launch");
    Stopwatch w;
    resolver.LaunchWave(pool);
    p.launch = w.Seconds();
  }
  HashSink sink;
  const size_t n = resolver.segments();
  smpx::OrderedCommitSink commit(&sink, n);
  smpx::Status status;
  size_t produced = n;
  for (size_t k = 0; k < n && status.ok(); ++k) {
    if (k > 0) {
      const smpx::parallel::ShardResult& prev = resolver.result(k - 1);
      if (!prev.status.ok()) {
        status = prev.status;
        break;
      }
      if (prev.finished) {
        produced = k;
        break;
      }
    }
    Stopwatch w;
    smpx::parallel::ShardResult* r;
    {
      trace::Span span("parallel.phase_resolve");
      r = &resolver.Resolve(k);
    }
    (k == 0 ? p.head : p.resolve) += w.Seconds();
    Stopwatch c;
    trace::Span span("parallel.phase_commit");
    if (r->tail_end > r->tail_begin) {
      status = sink.Append(
          doc.substr(r->tail_begin, r->tail_end - r->tail_begin));
    }
    if (status.ok()) status = commit.Install(k, std::move(r->sink));
    p.commit += c.Seconds();
  }
  resolver.Abort();
  if (produced < n) commit.Truncate(produced);
  if (status.ok() && !resolver.result(produced - 1).status.ok()) {
    status = resolver.result(produced - 1).status;
  }
  Tally(counts, status, Same(sink, ref), "phase probe");
  return p;
}

}  // namespace

void RunSharded(const Args& args, Outcome* out) {
  const int threads = BenchThreads();
  std::optional<smpx::core::Prefilter> mpf, xpf;
  const std::vector<double> setup = RepeatSetup(5, 0.3, [&] {
    {
      trace::Span span("core.compile");
      mpf.emplace(MustCompile(smpx::xmlgen::MedlineDtdText(), kMedlinePaths));
    }
    trace::Span span("core.compile");
    xpf.emplace(MustCompile(smpx::xmlgen::XmarkDtdText(), kXmarkPaths));
  });

  std::vector<Kind> kinds(2);
  kinds[0].name = "medline";
  kinds[0].pf = &*mpf;
  kinds[1].name = "xmark";
  kinds[1].pf = &*xpf;
  for (int i = 0; i < kDocsPerKind; ++i) {
    kinds[0].docs.push_back(
        MakeMedline(kShardDocBytes, SubSeed(args.seed, 20 + i)));
    kinds[1].docs.push_back(
        MakeXmark(kShardDocBytes, SubSeed(args.seed, 30 + i)));
  }
  for (Kind& k : kinds) {
    for (const std::string& d : k.docs) {
      k.refs.push_back(SerialReference(k.pf->tables(), d));
      k.bytes += d.size();
    }
  }
  std::vector<std::string> batch;
  uint64_t batch_bytes = 0;
  for (int i = 0; i < kBatchDocs; ++i) {
    batch.push_back(MakeXmark(kBatchDocBytes, SubSeed(args.seed, 40 + i)));
    batch_bytes += batch.back().size();
  }
  std::vector<smpx::MemorySource> sources(batch.begin(), batch.end());
  std::vector<const smpx::InputSource*> batch_srcs;
  for (const smpx::MemorySource& s : sources) batch_srcs.push_back(&s);
  Reference batch_ref;
  {
    HashSink sink;
    for (const std::string& b : batch) SerialRun(xpf->tables(), b, &sink);
    batch_ref = Reference{sink.digest(), sink.bytes_written()};
  }
  out->header.push_back({"medline_bytes", std::to_string(kinds[0].bytes)});
  out->header.push_back({"xmark_bytes", std::to_string(kinds[1].bytes)});
  out->header.push_back({"docs_per_kind", std::to_string(kDocsPerKind)});
  out->header.push_back({"batch_docs", std::to_string(kBatchDocs)});
  out->header.push_back({"batch_bytes", std::to_string(batch_bytes)});
  out->header.push_back({"threads", std::to_string(threads)});

  smpx::parallel::ThreadPool pool(threads);
  const smpx::parallel::ShardOptions sopts;  // pool-size shards, in-memory
  const smpx::parallel::StreamOptions bopts;
  std::vector<double> sharded_mbps, batch_mbps, batch_s;
  auto round = [&](Samples* s) {
    double shard_busy = 0, shard_mb = 0;
    for (Kind& k : kinds) {
      double kind_s = 0;
      for (size_t i = 0; i < k.docs.size(); ++i) {
        HashSink sink;
        smpx::parallel::ShardReport report;
        smpx::Status status;
        Stopwatch w;
        {
          trace::Span span("parallel.sharded_run");
          status = smpx::parallel::ShardedRun(k.pf->tables(), k.docs[i],
                                              &sink, nullptr, &pool, sopts,
                                              &report);
        }
        kind_s += w.Seconds();
        Tally(&out->counts, status, Same(sink, k.refs[i]), k.name);
        if (!trace::Enabled()) continue;
        k.sum.speculated += report.speculated;
        k.sum.accepted += report.accepted;
        k.sum.reruns += report.reruns;
        k.sum.killed += report.killed;
        k.sum.stolen += report.stolen;
        k.sum.serial_bytes += report.serial_bytes;
        k.sum.wave_bytes += report.wave_bytes;
        k.sum.candidate_classes = report.candidate_classes;
      }
      shard_busy += kind_s;
      shard_mb += static_cast<double>(k.bytes) / kMB;
      if (trace::Enabled()) {
        k.sharded_s.push_back(kind_s);
        ++k.rounds;
      }
    }
    HashSink sink;
    smpx::Status status;
    Stopwatch w;
    {
      trace::Span span("parallel.batch_run");
      status = smpx::parallel::BatchRunStreamingMerged(
          xpf->tables(), batch_srcs, &sink, nullptr, &pool, bopts);
    }
    const double dt = w.Seconds();
    Tally(&out->counts, status, Same(sink, batch_ref), "batch");
    const double busy = shard_busy + dt;
    const double mb = shard_mb + static_cast<double>(batch_bytes) / kMB;
    s->op_us.push_back(busy * 1e6);
    s->round_mbps.push_back(mb / busy);
    if (trace::Enabled()) {
      batch_s.push_back(dt);
    } else {
      sharded_mbps.push_back(shard_mb / shard_busy);
      batch_mbps.push_back(static_cast<double>(batch_bytes) / kMB / dt);
    }
  };
  Samples plain, traced;
  MeasurePhases(args, 3, round, &plain, &traced);

  FillEndToEnd(setup, plain, out);
  Put(&out->detail, "sharded_mbps", Median(sharded_mbps), "MB/s",
      sharded_mbps.size());
  Put(&out->detail, "batch_mbps", Median(batch_mbps), "MB/s",
      batch_mbps.size());
  if (!args.trace) return;

  // Per kind: serial baseline, standalone boundary scan, and the phase
  // decomposition of the sharded pipeline, each summed over the kind's
  // documents (median over kProbeReps repetitions).
  double states = 0;
  double scan_total = 0, sharded_total = 0, serial_total = 0;
  double doc_bytes = 0, speculated = 0, accepted = 0, wave = 0, serial_b = 0;
  double reruns = 0, killed = 0, stolen = 0, classes = 0;
  smpx::core::RunStats serial_stats;
  for (Kind& k : kinds) {
    states += static_cast<double>(k.pf->num_states());
    std::vector<double> serial_s, scan_s;
    std::vector<Phases> phases;
    for (int r = 0; r < kProbeReps; ++r) {
      double serial = 0, scan = 0;
      Phases sum;
      for (size_t i = 0; i < k.docs.size(); ++i) {
        smpx::MemoryInputStream in(k.docs[i]);
        HashSink sink;
        smpx::core::RunStats stats;
        smpx::Status status;
        Stopwatch w;
        {
          trace::Span span("engine.run");
          status = smpx::core::RunEngine(k.pf->tables(), &in, &sink, &stats);
        }
        serial += w.Seconds();
        Tally(&out->counts, status, Same(sink, k.refs[i]), "serial baseline");
        if (r == 0) smpx::parallel::MergeRunStats(&serial_stats, stats);

        Stopwatch b;
        {
          trace::Span span("parallel.boundary_scan");
          smpx::parallel::FindTopLevelBoundariesParallel(
              k.docs[i], static_cast<size_t>(threads) - 1, &pool, nullptr,
              k.pf->tables().use_bitmap_plane);
        }
        scan += b.Seconds();
        const Phases p =
            PhaseProbe(k.pf->tables(), k.docs[i], k.refs[i], &pool,
                       &out->counts);
        sum.scan += p.scan;
        sum.launch += p.launch;
        sum.head += p.head;
        sum.resolve += p.resolve;
        sum.commit += p.commit;
      }
      serial_s.push_back(serial);
      scan_s.push_back(scan);
      phases.push_back(sum);
    }
    const double serial_ms = Median(serial_s) * 1e3;
    const double scan_ms = Median(scan_s) * 1e3;
    const double sharded_ms = Median(k.sharded_s) * 1e3;
    auto phase_ms = [&](double Phases::*field) {
      std::vector<double> v;
      for (const Phases& p : phases) v.push_back(p.*field * 1e3);
      return Median(v);
    };
    const std::string prefix = std::string("parallel.") + k.name + ".";
    const double calls = static_cast<double>(k.rounds * k.docs.size());
    const double size = static_cast<double>(k.bytes);
    Put(&out->layer, prefix + "speedup", serial_ms / sharded_ms, "x");
    Put(&out->layer, prefix + "boundary_scan_share", scan_ms / sharded_ms,
        "ratio");
    Put(&out->layer, prefix + "wave_work_ratio",
        static_cast<double>(k.sum.wave_bytes) / static_cast<double>(k.rounds) /
            size,
        "ratio");
    Put(&out->layer, prefix + "accept_ratio",
        k.sum.speculated == 0 ? 1.0
                              : static_cast<double>(k.sum.accepted) /
                                    static_cast<double>(k.sum.speculated),
        "ratio");
    Put(&out->layer, prefix + "classes",
        static_cast<double>(k.sum.candidate_classes), "count");
    Put(&out->layer, prefix + "phase_scan_ms", phase_ms(&Phases::scan), "ms");
    Put(&out->layer, prefix + "phase_launch_ms", phase_ms(&Phases::launch),
        "ms");
    Put(&out->layer, prefix + "phase_head_ms", phase_ms(&Phases::head), "ms");
    Put(&out->layer, prefix + "phase_resolve_ms", phase_ms(&Phases::resolve),
        "ms");
    Put(&out->layer, prefix + "phase_commit_ms", phase_ms(&Phases::commit),
        "ms");
    scan_total += scan_ms;
    sharded_total += sharded_ms;
    serial_total += serial_ms;
    doc_bytes += size;
    speculated += static_cast<double>(k.sum.speculated) / calls;
    accepted += static_cast<double>(k.sum.accepted) / calls;
    wave += static_cast<double>(k.sum.wave_bytes) / static_cast<double>(k.rounds);
    serial_b +=
        static_cast<double>(k.sum.serial_bytes) / static_cast<double>(k.rounds);
    reruns += static_cast<double>(k.sum.reruns) / calls;
    killed += static_cast<double>(k.sum.killed) / calls;
    stolen += static_cast<double>(k.sum.stolen) / calls;
    classes = std::max(classes, static_cast<double>(k.sum.candidate_classes));
  }
  Put(&out->layer, "core.compile_ms", Median(setup) * 1e3, "ms", setup.size());
  Put(&out->layer, "core.dfa_states", states, "count");
  Put(&out->layer, "engine.run_ms", serial_total, "ms");
  FillEngineMetrics(serial_stats, out);
  Put(&out->layer, "parallel.boundary_scan_ms", scan_total, "ms");
  Put(&out->layer, "parallel.sharded_run_ms", sharded_total, "ms");
  Put(&out->layer, "parallel.serial_run_ms", serial_total, "ms");
  Put(&out->layer, "parallel.speedup", serial_total / sharded_total, "x");
  Put(&out->layer, "parallel.boundary_scan_share", scan_total / sharded_total,
      "ratio");
  Put(&out->layer, "parallel.accept_ratio",
      speculated == 0 ? 1.0 : accepted / speculated, "ratio");
  Put(&out->layer, "parallel.wave_work_ratio", wave / doc_bytes, "ratio");
  Put(&out->layer, "parallel.serial_bytes_frac", serial_b / doc_bytes,
      "ratio");
  Put(&out->layer, "parallel.reruns", reruns, "count");
  Put(&out->layer, "parallel.killed", killed, "count");
  Put(&out->layer, "parallel.stolen", stolen, "count");
  Put(&out->layer, "parallel.classes", classes, "count");
  Put(&out->layer, "parallel.batch_run_ms", Median(batch_s) * 1e3, "ms",
      batch_s.size());
  FillTraceMetrics(plain, traced, out);
}

}  // namespace smpxbench
