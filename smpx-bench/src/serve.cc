// serve: an in-process smpxd (server::Server, the daemon's code path
// minus process start-up) on a unix socket serves the seeded MEDLINE
// document with a granularity-1 boundary index. Two connections run a
// closed loop, so client and server threads together fit in four cores:
// each repeats seek1 at a seeded random record, then three resume1
// requests chaining the returned token. A second phase sends
// whole-document project requests on the same two connections. server,
// index/cursor and short resumed engine sessions carry the latency.
//
// setup_s is one server start plus the cold first request (table compile,
// mmap and BoundaryIndex::Build), repeated on fresh servers. Operations
// are the seek1 and resume1 requests: p10_us is their latency.
// A project request is a round: its document MB over its latency, the
// rate one client's projection streams at. Every payload is checked
// against the serial projection: seek and resume payloads must equal the
// slice that ends at the trailer's out_position, project payloads the
// whole projection.

#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "catalog.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/thread_pool.h"
#include "server/cache.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "xmlgen/medline.h"

namespace smpxbench {
namespace {

using smpx::server::Op;
using smpx::server::Request;

// Smaller than the other workloads' documents: the cold request builds a
// granularity-1 index (one entry per record), whose build measured about
// 150 ns and 330 bytes of peak memory per document byte.
constexpr uint64_t kDocBytes = 8ull << 20;
constexpr int kSetupReps = 5;
constexpr int kResumesPerSeek = 3;
constexpr int kProbeReps = 400;
constexpr double kLoopShare = 0.7;  // rest of a phase goes to project

// True when `got` is the slice of the serial projection that ends at
// `end` (a trailer's out_position).
bool SliceMatches(const std::string& projection, uint64_t end,
                  const std::string& got) {
  return end >= got.size() && end <= projection.size() &&
         projection.compare(end - got.size(), got.size(), got) == 0;
}

struct ConnResult {
  std::vector<double> seek_us, resume_us, project_us;
  uint64_t projects = 0;
  uint64_t refused = 0;
  Counts counts;
};

struct Shared {
  std::string endpoint;
  Request base;
  const std::string* projection;
  Reference ref;
  uint64_t records = 0;  // highest record ordinal
};

// One connection's closed loop: seek1 + 3 x resume1, or project requests.
void ClientLoop(const Shared& sh, uint64_t seed, double seconds,
                bool project, ConnResult* r) {
  auto client = smpx::server::Client::Connect(sh.endpoint);
  if (!client.ok()) {
    Tally(&r->counts, client.status(), true, "connect");
    return;
  }
  // Sends one request; returns the continuation token ("" at the end or
  // after a failure).
  auto call = [&](const Request& req, const char* span_name,
                  std::vector<double>* lat) -> std::string {
    smpx::StringSink payload;
    HashSink whole;
    smpx::OutputSink* sink =
        req.op == Op::kProject ? static_cast<smpx::OutputSink*>(&whole)
                               : &payload;
    Stopwatch w;
    smpx::Result<smpx::server::Trailer> t = smpx::Status::Internal("unsent");
    {
      trace::Span span(span_name);
      t = client->Call(req, sink);
    }
    const double dt = w.Seconds();
    if (!t.ok()) {
      if (client->last_error_retryable()) {
        ++r->refused;
      } else {
        client = smpx::server::Client::Connect(sh.endpoint);
      }
      Tally(&r->counts, t.status(), true, span_name);
      return "";
    }
    bool same;
    if (req.op == Op::kProject) {
      same = Same(whole, sh.ref);
      ++r->projects;
    } else {
      same = t->emitted_bytes == payload.str().size() &&
             SliceMatches(*sh.projection, t->out_position, payload.str());
    }
    Tally(&r->counts, smpx::Status::Ok(), same, span_name);
    lat->push_back(dt * 1e6);
    return t->at_end ? "" : t->token;
  };
  Rng rng(seed);
  Stopwatch w;
  while (client.ok() && w.Seconds() < seconds) {
    if (project) {
      Request req = sh.base;
      req.op = Op::kProject;
      call(req, "server.project_call", &r->project_us);
      continue;
    }
    Request req = sh.base;
    req.op = Op::kSeek;
    req.by_record = true;
    req.target = rng.Below(sh.records + 1);
    req.count = 1;
    std::string token = call(req, "server.seek_call", &r->seek_us);
    for (int i = 0; i < kResumesPerSeek && !token.empty(); ++i) {
      Request next = sh.base;
      next.op = Op::kResume;
      next.token = token;
      next.count = 1;
      token = call(next, "server.resume_call", &r->resume_us);
    }
  }
}

// Runs `conns` clients for `seconds` and merges their results.
ConnResult RunClients(const Shared& sh, int conns, uint64_t seed,
                      double seconds, bool project, double* wall) {
  std::vector<ConnResult> results(static_cast<size_t>(conns));
  Stopwatch w;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back(ClientLoop, std::cref(sh), SubSeed(seed, c),
                           seconds, project, &results[static_cast<size_t>(c)]);
    }
    for (std::thread& t : threads) t.join();
  }
  *wall = w.Seconds();
  ConnResult all;
  for (ConnResult& r : results) {
    auto append = [](std::vector<double>* dst, const std::vector<double>& src) {
      dst->insert(dst->end(), src.begin(), src.end());
    };
    append(&all.seek_us, r.seek_us);
    append(&all.resume_us, r.resume_us);
    append(&all.project_us, r.project_us);
    all.projects += r.projects;
    all.refused += r.refused;
    all.counts.Add(r.counts);
  }
  return all;
}

template <typename F>
double MedianUs(int reps, F&& body) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    Stopwatch w;
    body(i);
    us.push_back(w.Seconds() * 1e6);
  }
  return Median(us);
}

// Removes the served document and socket however the run ends.
struct ScratchFiles {
  std::vector<std::string> paths;
  ~ScratchFiles() {
    for (const std::string& p : paths) ::unlink(p.c_str());
  }
};

}  // namespace

void RunServe(const Args& args, Outcome* out) {
  const int conns = std::min(2, BenchThreads());
  const std::string doc = MakeMedline(kDocBytes, SubSeed(args.seed, 2));
  out->header.push_back({"medline_bytes", std::to_string(doc.size())});
  out->header.push_back({"connections", std::to_string(conns)});
  out->header.push_back({"build_threads", std::to_string(BenchThreads())});

  ScratchFiles scratch;
  const std::string pid = std::to_string(::getpid());
  const std::string doc_path = args.workdir + "/serve-" + pid + ".xml";
  const std::string sock_path = args.workdir + "/s" + pid + ".sock";
  scratch.paths = {doc_path, sock_path};
  MustOk(smpx::WriteStringToFile(doc_path, doc), "write served document");

  const std::string& dtd_text = smpx::xmlgen::MedlineDtdText();
  const smpx::core::Prefilter pf = MustCompile(dtd_text, kMedlinePaths);
  std::string projection;
  {
    smpx::StringSink sink;
    SerialRun(pf.tables(), doc, &sink);
    projection = sink.TakeString();
  }

  Shared sh;
  sh.endpoint = "unix:" + sock_path;
  sh.base.dtd_text = dtd_text;
  sh.base.paths_text = kMedlinePaths;
  sh.base.doc_path = doc_path;
  sh.projection = &projection;
  sh.ref = Reference{smpx::Hash64(projection), projection.size()};

  smpx::server::ServerOptions sopts;
  sopts.unix_path = sock_path;
  sopts.cache.index_granularity = 1;
  sopts.cache.build_threads = BenchThreads();

  // Set-up: a fresh server (empty caches) plus its cold first request.
  std::unique_ptr<smpx::server::Server> srv;
  std::vector<double> setup, start_ms, cold_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (srv != nullptr) srv->Stop();
    srv.reset();
    trace::Span span("server.setup");
    Stopwatch w;
    {
      trace::Span start("server.start");
      srv = std::make_unique<smpx::server::Server>(sopts);
      MustOk(srv->Start(), "server start");
    }
    start_ms.push_back(w.Seconds() * 1e3);
    Stopwatch c;
    {
      trace::Span call("server.cold_call");
      auto client = smpx::server::Client::Connect(sh.endpoint);
      if (!client.ok()) Fatal("connect: " + client.status().ToString());
      Request req = sh.base;
      req.op = Op::kSeek;
      req.by_record = true;
      req.count = 1;
      smpx::StringSink payload;
      auto t = client->Call(req, &payload);
      if (!t.ok()) Fatal("cold request: " + t.status().ToString());
      Tally(&out->counts, smpx::Status::Ok(),
            SliceMatches(projection, t->out_position, payload.str()),
            "cold seek");
    }
    cold_ms.push_back(c.Seconds() * 1e3);
    setup.push_back(w.Seconds());
  }

  {
    auto client = smpx::server::Client::Connect(sh.endpoint);
    if (!client.ok()) Fatal("connect: " + client.status().ToString());
    Request probe = sh.base;
    probe.op = Op::kSeek;
    probe.target = doc.size();
    auto t = client->Call(probe, nullptr);
    if (!t.ok()) Fatal("record-count probe: " + t.status().ToString());
    sh.records = t->record_position;
  }
  out->header.push_back({"records", std::to_string(sh.records + 1)});

  // Measured phases: closed loop then project, untraced (and traced).
  struct Phase {
    ConnResult loop, project;
    double loop_wall = 0, project_wall = 0;
  };
  auto run_phase = [&](double seconds, uint64_t stream) {
    Phase p;
    p.loop = RunClients(sh, conns, SubSeed(args.seed, stream),
                        seconds * kLoopShare, false, &p.loop_wall);
    p.project = RunClients(sh, conns, SubSeed(args.seed, stream + 1),
                           seconds * (1 - kLoopShare), true, &p.project_wall);
    out->counts.Add(p.loop.counts);
    out->counts.Add(p.project.counts);
    return p;
  };
  auto samples = [&](const Phase& p) {
    Samples s;
    s.op_us = p.loop.seek_us;
    s.op_us.insert(s.op_us.end(), p.loop.resume_us.begin(),
                   p.loop.resume_us.end());
    for (double us : p.project.project_us) {
      s.round_mbps.push_back(static_cast<double>(doc.size()) / kMB / us * 1e6);
    }
    return s;
  };
  trace::Enable(false);
  const Phase plain = run_phase(args.trace ? args.seconds / 2 : args.seconds, 100);
  Phase traced;
  if (args.trace) {
    trace::Enable(true);
    traced = run_phase(args.seconds / 2, 200);
  }
  srv->Stop();
  trace::Enable(args.trace);

  const Samples plain_s = samples(plain);
  FillEndToEnd(setup, plain_s, out);
  auto timing = [&](const char* name, const std::vector<double>& us,
                    double p) {
    Put(&out->detail, name, Percentile(us, p), "us", us.size());
  };
  Put(&out->detail, "serve_qps",
      static_cast<double>(plain_s.op_us.size()) / plain.loop_wall, "1/s",
      plain_s.op_us.size());
  timing("seek_p50_us", plain.loop.seek_us, 0.50);
  timing("seek_p99_us", plain.loop.seek_us, 0.99);
  timing("resume_p50_us", plain.loop.resume_us, 0.50);
  timing("resume_p99_us", plain.loop.resume_us, 0.99);
  Put(&out->detail, "project_mbps",
      static_cast<double>(plain.project.projects) *
          static_cast<double>(doc.size()) / kMB / plain.project_wall,
      "MB/s", plain.project.projects);
  Put(&out->detail, "refused", static_cast<double>(plain.loop.refused +
                                                   plain.project.refused),
      "count");
  if (!args.trace) return;

  // Cold vs warm cache: a fresh server::Cache called directly.
  smpx::server::Cache cache(sopts.cache);
  std::shared_ptr<const smpx::core::Prefilter> cached_pf;
  const double cold_tables_us = MedianUs(1, [&](int) {
    trace::Span span("server.cache_tables_cold");
    auto r = cache.GetTables(dtd_text, kMedlinePaths);
    if (!r.ok()) Fatal("cold GetTables: " + r.status().ToString());
    cached_pf = *r;
  });
  const double cold_doc_us = MedianUs(1, [&](int) {
    trace::Span span("server.cache_doc_cold");
    auto r = cache.GetIndexedDoc(*cached_pf, doc_path);
    if (!r.ok()) Fatal("cold GetIndexedDoc: " + r.status().ToString());
  });
  const double warm_tables_us = MedianUs(kProbeReps, [&](int) {
    trace::Span span("server.cache_tables");
    auto r = cache.GetTables(dtd_text, kMedlinePaths);
    if (!r.ok()) Fatal("GetTables: " + r.status().ToString());
  });
  const double warm_doc_us = MedianUs(kProbeReps, [&](int) {
    trace::Span span("server.cache_doc");
    auto r = cache.GetIndexedDoc(*cached_pf, doc_path);
    if (!r.ok()) Fatal("GetIndexedDoc: " + r.status().ToString());
  });

  // Index build and cursor calls, as the server makes them per request.
  smpx::parallel::ThreadPool pool(BenchThreads());
  smpx::index::BoundaryIndexOptions bopts;
  bopts.granularity_bytes = 1;
  std::optional<smpx::index::BoundaryIndex> idx;
  std::vector<double> build_s;
  for (int r = 0; r < 3; ++r) {
    trace::Span span("index.build");
    Stopwatch w;
    auto built = smpx::index::BoundaryIndex::Build(pf.tables(), doc, &pool, bopts);
    if (!built.ok()) Fatal("index build: " + built.status().ToString());
    build_s.push_back(w.Seconds());
    idx.emplace(std::move(*built));
  }
  smpx::index::CursorOptions copts;
  copts.engine.window_capacity = static_cast<size_t>(sopts.default_window);
  copts.verify_document = false;
  Rng rng(SubSeed(args.seed, 300));
  std::vector<double> open_us, next_us, restore_us, token_bytes;
  for (int i = 0; i < kProbeReps; ++i) {
    const uint64_t record = rng.Below(sh.records + 1);
    Stopwatch w;
    smpx::Result<smpx::index::Cursor> cur = smpx::Status::Internal("unset");
    {
      trace::Span span("index.open");
      cur = smpx::index::Cursor::OpenAtRecord(*idx, pf.tables(), doc, record,
                                              copts);
    }
    open_us.push_back(w.Seconds() * 1e6);
    MustOk(cur.status(), "OpenAtRecord");
    smpx::StringSink payload;
    Stopwatch n;
    smpx::Result<size_t> spans = smpx::Status::Internal("unset");
    {
      trace::Span span("index.next");
      spans = cur->Next(1, &payload);
    }
    next_us.push_back(n.Seconds() * 1e6);
    Tally(&out->counts, spans.status(),
          SliceMatches(projection, cur->output_position(), payload.str()),
          "cursor next");
    if (cur->at_end()) continue;
    const std::string token = cur->SaveToken();
    token_bytes.push_back(static_cast<double>(token.size()));
    Stopwatch t;
    smpx::Result<smpx::index::Cursor> restored = smpx::Status::Internal("unset");
    {
      trace::Span span("index.restore");
      restored = smpx::index::Cursor::Restore(*idx, pf.tables(), doc, token,
                                              copts);
    }
    restore_us.push_back(t.Seconds() * 1e6);
    MustOk(restored.status(), "Cursor::Restore");
  }
  Request codec_req = sh.base;
  codec_req.op = Op::kResume;
  codec_req.count = 1;
  codec_req.token = std::string(
      static_cast<size_t>(token_bytes.empty() ? 0 : Median(token_bytes)), 'x');
  const double codec_us = MedianUs(kProbeReps, [&](int) {
    trace::Span span("server.codec");
    auto decoded = Request::Decode(codec_req.Encode());
    if (!decoded.ok()) Fatal("request codec: " + decoded.status().ToString());
  });

  const double build_ms = Median(build_s) * 1e3;
  const double open = Median(open_us);
  const double next1 = Median(next_us);
  Put(&out->layer, "core.compile_ms", cold_tables_us / 1e3, "ms");
  Put(&out->layer, "core.dfa_states", static_cast<double>(pf.num_states()),
      "count");
  Put(&out->layer, "index.build_ms", build_ms, "ms", build_s.size());
  Put(&out->layer, "index.build_mbps",
      static_cast<double>(doc.size()) / kMB / (build_ms / 1e3), "MB/s");
  Put(&out->layer, "index.entries",
      static_cast<double>(idx->entries().size()), "count");
  Put(&out->layer, "index.open_us", open, "us", open_us.size());
  Put(&out->layer, "index.restore_us", Median(restore_us), "us",
      restore_us.size());
  Put(&out->layer, "index.next1_us", next1, "us", next_us.size());
  Put(&out->layer, "index.token_bytes", Median(token_bytes), "bytes");
  Put(&out->layer, "server.cache_tables_us", warm_tables_us, "us", kProbeReps);
  Put(&out->layer, "server.cache_doc_us", warm_doc_us, "us", kProbeReps);
  Put(&out->layer, "server.cold_tables_ms", cold_tables_us / 1e3, "ms");
  Put(&out->layer, "server.cold_doc_ms", cold_doc_us / 1e3, "ms");
  Put(&out->layer, "server.start_ms", Median(start_ms), "ms", start_ms.size());
  Put(&out->layer, "server.cold_request_ms", Median(cold_ms), "ms",
      cold_ms.size());
  Put(&out->layer, "server.request_codec_us", codec_us, "us", kProbeReps);
  Put(&out->layer, "server.rtt_overhead_us",
      Percentile(traced.loop.seek_us, 0.5) - (open + next1), "us",
      traced.loop.seek_us.size());
  Put(&out->layer, "server.rejected",
      static_cast<double>(plain.loop.refused + plain.project.refused +
                          traced.loop.refused + traced.project.refused),
      "count");
  FillTraceMetrics(plain_s, samples(traced), out);
}

}  // namespace smpxbench
