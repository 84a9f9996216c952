// smpx: command-line XML prefilter -- the paper's SMP prototype as a tool.
//
//   smpx --dtd schema.dtd --paths "/site//item/name# /*" [in.xml [out.xml]]
//   smpx --dtd schema.dtd --query "for $i in /site//item return $i/name" ...
//   smpx --dtd schema.dtd --paths-file paths.txt --stats in.xml out.xml
//   smpx --dtd schema.dtd --paths ... --threads 8 big.xml out.xml
//   smpx --dtd schema.dtd --paths ... --batch a.xml b.xml    # a.proj.xml ...
//   smpx --dtd schema.dtd --paths ... --batch a.xml b.xml --out all.xml
//   smpx --dtd schema.dtd --paths ... --index-build big.idx big.xml
//   smpx --dtd schema.dtd --paths ... --index big.idx --seek 512M big.xml
//   smpx --dtd schema.dtd --query-file mix.txt in.xml out.xml  # out.q1.xml ...
//   smpx --dtd schema.dtd --query-file mix.txt --batch a.xml b.xml
//
// Reads stdin/writes stdout when files are omitted; all output goes
// through a write-coalescing BufferedFileSink. File inputs are mmap'ed
// (sequential madvise); --threads > 1 shards one document at split keywords
// across a thread pool speculatively (tables without split keywords run
// serially), each shard projecting into a SpillSink segment
// bounded by --max-buffer and committed to the output in document order as
// verification succeeds -- a multi-GB single document stays shardable at
// O(threads x (window + budget)) resident memory. --batch prefilters many
// documents concurrently, *streaming* each through its session in bounded
// chunks and writing per-input output files (in.xml -> in.proj.xml);
// --out FILE instead concatenates the outputs in argument order through
// the same budgeted ordered-commit pipeline; per-input output files are
// written through the ordered-commit machinery too, so at most one output
// file is open at a time regardless of batch size. --stats prints the
// paper's measurement columns to stderr (per document and as a total in
// batch mode). --tables dumps the compiled A/V/J/T tables and exits.
//
// Multi-query mode (--query-file, or --paths repeated) compiles N queries
// into one product automaton and writes one output per query (out.xml ->
// out.q1.xml, ...). It runs on the same drivers as a single query: one
// serial pass, --threads sharding, and --batch through the same
// one-file-at-a-time ordered-commit writer (in.xml -> in.proj.q1.xml, ...).
//
// Random access: --index-build FILE runs one serial indexing pass over
// one document -- mapped, or with --index-chunk streamed through rolling
// buffers -- and saves a boundary skip-index (--index-granularity sets the
// entry spacing); --index FILE --seek OFF [--count N] then resumes a
// cursor at the nearest indexed boundary at or before OFF -- without
// prefiltering the prefix -- and emits N indexed spans (one top-level
// record each at granularity 1; or everything to the end), byte-identical
// to the corresponding slice of a full serial run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/io.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "dtd/dtd.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/batch.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "paths/projection_path.h"
#include "paths/xquery_extract.h"
#include "query/multiquery.h"
#include "server/client.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dtd FILE (--paths LIST | --paths-file FILE | --query XQ\n"
      "          | --query-file FILE)\n"
      "          [--stats] [--tables] [--window SIZE] [--chunk SIZE]\n"
      "          [--max-buffer SIZE] [--threads N] [--batch] [--out FILE]\n"
      "          [--fused]\n"
      "          [--index-build FILE [--index-granularity SIZE]\n"
      "                             [--index-chunk SIZE]]\n"
      "          [--index FILE [--seek OFFSET|@recordN] [--count N]]\n"
      "          [in.xml ... [out.xml]]\n"
      "\n"
      "Prefilters XML documents valid w.r.t. the given nonrecursive DTD\n"
      "down to the nodes relevant for the projection paths (or for the\n"
      "XQuery expression, via path extraction). SIZE arguments accept\n"
      "K/M/G suffixes (binary units: 64K, 1M, 1MiB, ...).\n"
      "\n"
      "  --query-file F  MULTI-QUERY mode: one query (a projection-path\n"
      "                  list) per line; '#'-prefixed lines are comments.\n"
      "                  All N queries run in ONE pass over the input\n"
      "                  through a shared product automaton; equivalent\n"
      "                  queries are collapsed and each query's output is\n"
      "                  byte-identical to running it alone. Output file\n"
      "                  out.xml becomes out.q1.xml, out.q2.xml, ...\n"
      "                  (query order). Repeating --paths enters the same\n"
      "                  mode, one query per occurrence. Works with\n"
      "                  --threads (sharded one-pass) and --batch\n"
      "                  (in.xml -> in.proj.q1.xml, ...; like single-query\n"
      "                  --batch, one output file open at a time)\n"
      "  --fused         multi-query mode: emit ONE superset projection\n"
      "                  (union of all queries' paths, safe for each of\n"
      "                  them) instead of per-query outputs\n"
      "  --threads N     run on N threads: one document is sharded at\n"
      "                  split keywords (elements whose entry state the\n"
      "                  tables know) and run speculatively, or serially\n"
      "                  when the tables have none; with --batch, the\n"
      "                  documents are prefiltered concurrently\n"
      "  --batch         every positional argument is an input file; each\n"
      "                  is streamed through the prefilter in bounded\n"
      "                  chunks and written to its own output file\n"
      "                  (in.xml -> in.proj.xml). With --out FILE, outputs\n"
      "                  are instead concatenated into FILE in argument\n"
      "                  order through the ordered-commit pipeline\n"
      "  --chunk S       streaming read granularity in batch mode\n"
      "                  (default 1M): bytes fed to a session per resume\n"
      "  --max-buffer S  per-segment output buffering budget (default\n"
      "                  64M, 0 = unbounded): each shard / batch document\n"
      "                  buffers at most S projected bytes in memory and\n"
      "                  overflows to an unlinked temp file until its\n"
      "                  turn in the document-order commit. Peak resident\n"
      "                  memory is O(threads x (window + chunk +\n"
      "                  max-buffer)) regardless of input size; shrink\n"
      "                  --max-buffer (and --chunk) to shard multi-GB\n"
      "                  documents on small machines, grow them to avoid\n"
      "                  spill I/O when memory is plentiful\n"
      "  --index-build F index one document for random access in one\n"
      "                  serial pass: record the engine checkpoint at\n"
      "                  top-level element boundaries (one per\n"
      "                  --index-granularity bytes, default 1M) and save\n"
      "                  the skip-index to F (--threads does not apply)\n"
      "  --index-chunk S read the document through rolling buffers of S\n"
      "                  bytes instead of mapping it: resident memory\n"
      "                  stays O(S + window) however large the input, so\n"
      "                  documents beyond the address space (or any mmap\n"
      "                  window) stay indexable, at about twice the read\n"
      "                  I/O. Same entries as the mapped build. 0\n"
      "                  (default) maps the document\n"
      "  --index F       load the skip-index F for the input document and\n"
      "                  resume at the nearest indexed boundary at or\n"
      "                  before --seek OFFSET (default 0) -- or, as\n"
      "                  '--seek @recordN', at top-level record number N\n"
      "                  (0-based; exact for granularity-1 indexes) --\n"
      "                  emitting\n"
      "                  --count N indexed spans (default: to the end)\n"
      "                  exactly as a full serial run would have. A span\n"
      "                  is one top-level record when the index was built\n"
      "                  with --index-granularity 1, and about one\n"
      "                  granularity's worth of records otherwise\n",
      argv0);
  return 2;
}

/// Per-query output file name: inserts ".qN" (1-based, query order) before
/// the extension -- out.xml -> out.q3.xml; extensionless names get the
/// suffix appended.
std::string QueryOutputPath(const std::string& base, size_t q) {
  const size_t slash = base.find_last_of('/');
  const size_t dot = base.find_last_of('.');
  const std::string suffix = ".q" + std::to_string(q);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

/// --batch with per-input output files: every (document, unique query)
/// projection segment is written, when the document-order commit frontier
/// reaches it, to each of its files -- opened, written, flushed and closed
/// one at a time, so at most one output file is open at any moment however
/// large the batch. `files[i][u]` names document i's files for unique
/// query u (several when duplicate queries collapsed into one). File
/// errors are isolated per document: the returned per-document status is
/// the run's error, else that document's first file error.
std::vector<smpx::Status> RunBatchToFiles(
    const smpx::core::RuntimeTables& tables,
    const std::vector<const smpx::InputSource*>& srcs,
    const std::vector<std::vector<std::vector<std::string>>>& files,
    std::vector<std::vector<smpx::core::QueryRunStats>>* query_stats,
    std::vector<smpx::core::RunStats>* stats, int threads,
    const smpx::parallel::StreamOptions& sopts) {
  smpx::parallel::ThreadPool pool(threads);
  std::vector<smpx::Status> file_status(srcs.size());
  std::vector<smpx::Status> statuses = smpx::parallel::BatchRunStreaming(
      tables, srcs,
      [&](size_t doc, size_t query, smpx::SpillSink* segment) {
        for (const std::string& path : files[doc][query]) {
          auto file = smpx::BufferedFileSink::Open(path);
          smpx::Status s = file.status();
          if (s.ok() && segment != nullptr) s = segment->CopyTo(file->get());
          if (s.ok()) s = (*file)->Flush();
          if (file_status[doc].ok()) file_status[doc] = s;
        }
        // Recorded, not returned: one unwritable file must not stop the
        // frontier for the rest of the batch.
        return smpx::Status::Ok();
      },
      query_stats, stats, &pool, sopts);
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) statuses[i] = file_status[i];
  }
  return statuses;
}

/// Reads all of stdin.
std::string ReadStdin() {
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) out.append(buf, n);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dtd_file;
  std::string paths_text;
  std::string query;
  std::vector<std::string> query_texts;  // one entry per --paths occurrence
  std::string query_file;
  bool fused = false;
  std::vector<std::string> inputs;
  std::string out_file;
  bool stats_flag = false;
  bool tables_flag = false;
  bool batch_flag = false;
  int threads = 1;
  size_t window = smpx::SlidingWindow::kDefaultCapacity;
  size_t chunk = 1 << 20;
  size_t max_buffer = 64 << 20;
  std::string index_build_file;
  std::string index_file;
  size_t index_granularity = 1 << 20;
  size_t index_chunk = 0;  // 0 = map the document
  size_t seek_offset = 0;
  bool seek_by_record = false;
  bool seek_given = false;
  uint64_t seek_record = 0;
  long long count = -1;  // -1 = drain to the end
  std::string connect_endpoint;
  std::string resume_token_hex;

  bool bad_size = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Parses a size argument ("4096", "64K", "1MiB"); flags usage errors.
    auto next_size = [&](size_t* out) -> bool {
      const char* v = next();
      if (v == nullptr) return false;
      auto parsed = smpx::ParseByteSize(v);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     parsed.status().ToString().c_str());
        bad_size = true;
        return true;  // consumed; the error is reported above
      }
      *out = static_cast<size_t>(*parsed);
      return true;
    };
    if (arg == "--dtd") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      dtd_file = v;
    } else if (arg == "--paths") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      query_texts.push_back(v);
    } else if (arg == "--paths-file") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      auto content = smpx::ReadFileToString(v);
      if (!content.ok()) {
        std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
        return 1;
      }
      paths_text = *content;
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      query = v;
    } else if (arg == "--query-file") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      query_file = v;
    } else if (arg == "--fused") {
      fused = true;
    } else if (arg == "--stats") {
      stats_flag = true;
    } else if (arg == "--tables") {
      tables_flag = true;
    } else if (arg == "--batch") {
      batch_flag = true;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      threads = std::atoi(v);
      if (threads < 1) threads = 1;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      out_file = v;
    } else if (arg == "--window") {
      if (!next_size(&window)) return Usage(argv[0]);
    } else if (arg == "--chunk") {
      if (!next_size(&chunk)) return Usage(argv[0]);
      if (chunk == 0) chunk = 1;
    } else if (arg == "--max-buffer") {
      if (!next_size(&max_buffer)) return Usage(argv[0]);
    } else if (arg == "--index-build") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      index_build_file = v;
    } else if (arg == "--index") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      index_file = v;
    } else if (arg == "--index-granularity") {
      if (!next_size(&index_granularity)) return Usage(argv[0]);
      if (index_granularity == 0) index_granularity = 1;
    } else if (arg == "--index-chunk") {
      if (!next_size(&index_chunk)) return Usage(argv[0]);
    } else if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      connect_endpoint = v;
    } else if (arg == "--resume-token") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      resume_token_hex = v;
    } else if (arg == "--seek") {
      seek_given = true;
      // "@recordN" (or shorthand "@N") addresses the N-th top-level
      // record; anything else is a byte offset with size suffixes.
      const char* peek = i + 1 < argc ? argv[i + 1] : nullptr;
      if (peek != nullptr && peek[0] == '@') {
        ++i;
        const char* num = peek + 1;
        if (std::strncmp(num, "record", 6) == 0) num += 6;
        char* end = nullptr;
        unsigned long long v = std::strtoull(num, &end, 10);
        if (end == num || *end != '\0') {
          std::fprintf(stderr, "--seek: bad record address '%s'\n", peek);
          return 2;
        }
        seek_by_record = true;
        seek_record = v;
      } else if (!next_size(&seek_offset)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--count") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      count = std::atoll(v);
      if (count < 0) count = 0;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (bad_size) return 2;
  if (!query_file.empty()) {
    // One query (a projection-path list) per line; blank lines and
    // '#'-prefixed comment lines are skipped. '#' only ever SUFFIXES a
    // path ("/a/b#"), so a leading '#' is unambiguous.
    auto content = smpx::ReadFileToString(query_file);
    if (!content.ok()) {
      std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
      return 1;
    }
    size_t pos = 0;
    while (pos <= content->size()) {
      const size_t eol = content->find('\n', pos);
      std::string line = content->substr(
          pos, eol == std::string::npos ? std::string::npos : eol - pos);
      pos = eol == std::string::npos ? content->size() + 1 : eol + 1;
      const size_t b = line.find_first_not_of(" \t\r");
      if (b == std::string::npos || line[b] == '#') continue;
      const size_t e = line.find_last_not_of(" \t\r");
      query_texts.push_back(line.substr(b, e - b + 1));
    }
    if (query_texts.empty()) {
      std::fprintf(stderr, "%s: no queries\n", query_file.c_str());
      return 1;
    }
  }
  // Multi-query mode: a query file, or more than one --paths occurrence
  // (each occurrence is one query). A single --paths keeps the classic
  // single-query form.
  bool multi_mode = !query_file.empty() || query_texts.size() > 1;
  if (!multi_mode && query_texts.size() == 1) paths_text = query_texts[0];
  if (multi_mode && (!query.empty() || !paths_text.empty())) {
    std::fprintf(stderr,
                 "multi-query mode (--query-file / repeated --paths) cannot "
                 "be combined with --query or --paths-file\n");
    return 2;
  }
  if (fused && !multi_mode) return Usage(argv[0]);
  if (dtd_file.empty() ||
      (paths_text.empty() && query.empty() && !multi_mode)) {
    return Usage(argv[0]);
  }
  const bool index_mode = !index_build_file.empty() || !index_file.empty();
  // Client mode talks to a running smpxd; the daemon owns the documents
  // and indexes, so the offline index/batch/multi machinery is moot.
  if (!connect_endpoint.empty() &&
      (index_mode || batch_flag || multi_mode || tables_flag)) {
    return Usage(argv[0]);
  }
  if (!resume_token_hex.empty() && connect_endpoint.empty()) {
    std::fprintf(stderr, "--resume-token requires --connect\n");
    return 2;
  }
  if (index_mode &&
      (batch_flag || (!index_build_file.empty() && !index_file.empty()))) {
    return Usage(argv[0]);
  }
  // Per-query product tables have no --tables dump and no skip-index
  // support (index each query's single-query tables instead).
  if (multi_mode && !fused && (tables_flag || index_mode)) {
    return Usage(argv[0]);
  }
  if (!batch_flag) {
    // Classic positional form: [in.xml [out.xml]].
    if (inputs.size() > 2) return Usage(argv[0]);
    if (inputs.size() == 2) {
      if (!out_file.empty()) return Usage(argv[0]);
      out_file = inputs[1];
      inputs.pop_back();
    }
  } else if (inputs.empty()) {
    return Usage(argv[0]);
  }
  // --index-build writes the index file, never a projection; an output
  // file (flag or positional, resolved above) has nothing to receive.
  if (!index_build_file.empty() && !out_file.empty()) return Usage(argv[0]);

  auto dtd_text = smpx::ReadFileToString(dtd_file);
  if (!dtd_text.ok()) {
    std::fprintf(stderr, "%s\n", dtd_text.status().ToString().c_str());
    return 1;
  }
  if (!connect_endpoint.empty()) {
    // Client mode: ship the raw DTD and path texts to the daemon (it
    // compiles and caches them by content hash) and stream the response
    // to the usual output. The document is named by its server-side
    // path; resolve it to an absolute path so the daemon's cwd is moot.
    if (inputs.size() != 1) return Usage(argv[0]);
    std::string doc_path = inputs[0];
    if (char* abs = ::realpath(doc_path.c_str(), nullptr)) {
      doc_path = abs;
      std::free(abs);
    }
    smpx::server::Request req;
    if (!resume_token_hex.empty()) {
      req.op = smpx::server::Op::kResume;
      auto token = smpx::server::HexDecode(resume_token_hex);
      if (!token.ok()) {
        std::fprintf(stderr, "--resume-token: %s\n",
                     token.status().ToString().c_str());
        return 2;
      }
      req.token = std::move(*token);
    } else if (seek_given || count >= 0) {
      req.op = smpx::server::Op::kSeek;
      req.by_record = seek_by_record;
      req.target = seek_by_record ? seek_record : seek_offset;
    } else {
      req.op = smpx::server::Op::kProject;
    }
    req.dtd_text = *dtd_text;
    req.paths_text = paths_text;
    req.doc_path = doc_path;
    req.window = window;
    req.count = count >= 0 ? static_cast<uint64_t>(count) : 0;

    std::unique_ptr<smpx::BufferedFileSink> sink;
    if (out_file.empty()) {
      sink = smpx::BufferedFileSink::Wrap(stdout);
    } else {
      auto opened = smpx::BufferedFileSink::Open(out_file);
      if (!opened.ok()) {
        std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
        return 1;
      }
      sink = std::move(*opened);
    }

    smpx::WallTimer timer;
    auto client = smpx::server::Client::Connect(connect_endpoint);
    if (!client.ok()) {
      std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
      return 1;
    }
    smpx::Result<smpx::server::Trailer> resp = smpx::Status::Ok();
    for (int attempt = 0;; ++attempt) {
      resp = client->Call(req, sink.get());
      // The retryable contract: admission rejections mean "resend
      // verbatim after backing off", and the connection stays usable.
      if (resp.ok() || !client->last_error_retryable() || attempt >= 5) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20 << attempt));
    }
    if (!resp.ok()) {
      std::fprintf(stderr, "server: %s\n", resp.status().ToString().c_str());
      return 1;
    }
    smpx::Status fs = sink->Flush();
    if (!fs.ok()) {
      std::fprintf(stderr, "%s\n", fs.ToString().c_str());
      return 1;
    }
    if (stats_flag) {
      std::fprintf(
          stderr,
          "connect=%s op=%d emitted=%llu records=%llu position=%llu "
          "out_offset=%llu record=%llu at_end=%d token=%s time=%.3fs\n",
          connect_endpoint.c_str(), static_cast<int>(req.op),
          static_cast<unsigned long long>(resp->emitted_bytes),
          static_cast<unsigned long long>(resp->records),
          static_cast<unsigned long long>(resp->position),
          static_cast<unsigned long long>(resp->out_position),
          static_cast<unsigned long long>(resp->record_position),
          resp->at_end ? 1 : 0,
          resp->token.empty() ? "-"
                              : smpx::server::HexEncode(resp->token).c_str(),
          timer.Seconds());
    }
    return 0;
  }

  auto dtd = smpx::dtd::Dtd::Parse(*dtd_text);
  if (!dtd.ok()) {
    std::fprintf(stderr, "DTD: %s\n", dtd.status().ToString().c_str());
    return 1;
  }

  std::vector<std::vector<smpx::paths::ProjectionPath>> mq_queries;
  if (multi_mode) {
    for (const std::string& text : query_texts) {
      auto parsed = smpx::paths::ProjectionPath::ParseList(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "query %zu: %s\n", mq_queries.size() + 1,
                     parsed.status().ToString().c_str());
        return 1;
      }
      if (parsed->empty()) {
        std::fprintf(stderr, "query %zu: empty path list\n",
                     mq_queries.size() + 1);
        return 1;
      }
      mq_queries.push_back(std::move(*parsed));
    }
  }

  // --fused: one superset projection (MultiQuery::CompileFused) that is
  // projection-safe for each query individually, so the run falls through
  // to the ordinary single-query pipeline below with one output.
  if (fused) multi_mode = false;
  std::vector<smpx::paths::ProjectionPath> paths;
  if (!query.empty()) {
    auto extracted = smpx::paths::ExtractProjectionPaths(query);
    if (!extracted.ok()) {
      std::fprintf(stderr, "query: %s\n",
                   extracted.status().ToString().c_str());
      return 1;
    }
    paths = std::move(*extracted);
    std::fprintf(stderr, "extracted projection paths:");
    for (const auto& p : paths) {
      std::fprintf(stderr, " %s", p.ToString().c_str());
    }
    std::fprintf(stderr, "\n");
  }
  if (!paths_text.empty()) {
    auto parsed = smpx::paths::ProjectionPath::ParseList(paths_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "paths: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    paths.insert(paths.end(), parsed->begin(), parsed->end());
  }

  if (multi_mode) {
    // N queries, ONE pass: compile the mix into shared product tables
    // (equivalent queries collapse to one component; duplicates fan out
    // through FanoutSink) and run it under the requested driver. Every
    // query's output file is byte-identical to its own single-query run.
    smpx::WallTimer mq_compile_timer;
    auto mq = smpx::query::MultiQuery::Compile(std::move(*dtd),
                                               std::move(mq_queries));
    if (!mq.ok()) {
      std::fprintf(stderr, "multi-query compile: %s\n",
                   mq.status().ToString().c_str());
      return 1;
    }
    const int nq = mq->num_queries();
    std::string mq_stdin_buffer;
    std::vector<std::unique_ptr<smpx::MmapSource>> mq_sources;
    std::vector<std::string_view> mq_docs;
    if (inputs.empty()) {
      mq_stdin_buffer = ReadStdin();
      mq_docs.push_back(mq_stdin_buffer);
    } else {
      for (const std::string& path : inputs) {
        auto src = smpx::MmapSource::Open(path);
        if (!src.ok()) {
          std::fprintf(stderr, "%s\n", src.status().ToString().c_str());
          return 1;
        }
        mq_docs.push_back((*src)->Contiguous());
        mq_sources.push_back(std::move(*src));
      }
    }
    smpx::core::EngineOptions eopts;
    eopts.window_capacity = window;
    smpx::core::RunStats stats;
    std::vector<smpx::core::QueryRunStats> qstats;  // per ORIGINAL query
    smpx::WallTimer run_timer;
    smpx::CpuTimer cpu_timer;
    int failures = 0;

    if (batch_flag) {
      // Per-input per-query files: in.xml -> in.proj.q1.xml, ... A merged
      // --out has no meaning when each query owns its byte stream.
      if (!out_file.empty()) return Usage(argv[0]);
      smpx::parallel::StreamOptions sopts;
      sopts.engine = eopts;
      sopts.chunk_bytes = chunk;
      sopts.max_buffer_bytes = max_buffer;
      std::vector<const smpx::InputSource*> srcs;
      std::vector<std::vector<std::vector<std::string>>> files;
      std::vector<std::vector<std::string>> names(mq_sources.size());
      for (size_t i = 0; i < mq_sources.size(); ++i) {
        srcs.push_back(mq_sources[i].get());
        files.emplace_back(static_cast<size_t>(mq->num_unique()));
        for (int j = 0; j < nq; ++j) {
          names[i].push_back(QueryOutputPath(
              smpx::ProjectedOutputPath(inputs[i]), static_cast<size_t>(j) + 1));
          files[i][static_cast<size_t>(mq->unique_of(j))].push_back(
              names[i].back());
        }
      }
      std::vector<std::vector<smpx::core::QueryRunStats>> doc_qstats;
      std::vector<smpx::core::RunStats> doc_stats;
      std::vector<smpx::Status> statuses = RunBatchToFiles(
          mq->tables(), srcs, files, &doc_qstats, &doc_stats, threads, sopts);
      for (size_t i = 0; i < statuses.size(); ++i) {
        if (!statuses[i].ok()) {
          std::fprintf(stderr, "%s: %s\n", inputs[i].c_str(),
                       statuses[i].ToString().c_str());
          ++failures;
          continue;
        }
        smpx::parallel::MergeRunStats(&stats, doc_stats[i]);
        if (stats_flag) {
          std::vector<smpx::core::QueryRunStats> per_original;
          mq->ExpandStats(doc_qstats[i], &per_original);
          for (int j = 0; j < nq; ++j) {
            std::fprintf(stderr, "%s q%d -> %s: output=%llu matches=%llu\n",
                         inputs[i].c_str(), j + 1, names[i][j].c_str(),
                         static_cast<unsigned long long>(
                             per_original[j].output_bytes),
                         static_cast<unsigned long long>(
                             per_original[j].matches));
          }
        }
      }
    } else {
      // One document, N output files named off the single output name.
      if (out_file.empty()) {
        std::fprintf(stderr,
                     "multi-query mode writes one file per query; name the "
                     "output (--out FILE or a positional out.xml)\n");
        return 2;
      }
      std::vector<std::unique_ptr<smpx::BufferedFileSink>> files;
      std::vector<smpx::OutputSink*> originals;
      std::vector<std::string> names;
      for (int j = 0; j < nq; ++j) {
        names.push_back(QueryOutputPath(out_file, static_cast<size_t>(j) + 1));
        auto f = smpx::BufferedFileSink::Open(names.back());
        if (!f.ok()) {
          std::fprintf(stderr, "%s\n", f.status().ToString().c_str());
          return 1;
        }
        originals.push_back(f->get());
        files.push_back(std::move(*f));
      }
      smpx::Status s;
      if (threads > 1) {
        smpx::parallel::ThreadPool pool(threads);
        smpx::parallel::ShardOptions popts;
        popts.engine = eopts;
        popts.max_buffer_bytes = max_buffer;
        std::vector<std::unique_ptr<smpx::FanoutSink>> owned;
        std::vector<smpx::OutputSink*> unique_sinks;
        mq->RouteSinks(originals, &owned, &unique_sinks);
        std::vector<smpx::core::QueryRunStats> uq_stats;
        s = smpx::parallel::ShardedRun(mq->tables(), mq_docs[0], unique_sinks,
                                       &uq_stats, &stats, &pool, popts);
        if (s.ok()) mq->ExpandStats(uq_stats, &qstats);
      } else {
        s = mq->RunOnBuffer(mq_docs[0], originals, &qstats, &stats, eopts);
      }
      for (auto& f : files) {
        if (s.ok()) s = f->Flush();
      }
      if (!s.ok()) {
        std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
        return 1;
      }
      if (stats_flag) {
        for (int j = 0; j < nq; ++j) {
          std::fprintf(
              stderr, "q%d -> %s: output=%llu matches=%llu\n", j + 1,
              names[j].c_str(),
              static_cast<unsigned long long>(qstats[j].output_bytes),
              static_cast<unsigned long long>(qstats[j].matches));
        }
      }
    }
    if (stats_flag) {
      std::fprintf(
          stderr,
          "multi: queries=%d unique=%d states=%zu input=%llu output=%llu "
          "time=%.3fs usr+sys=%.3fs matches=%llu\n",
          nq, mq->num_unique(), mq->tables().states.size(),
          static_cast<unsigned long long>(stats.input_bytes),
          static_cast<unsigned long long>(stats.output_bytes),
          run_timer.Seconds() + mq_compile_timer.Seconds(),
          cpu_timer.Seconds(),
          static_cast<unsigned long long>(stats.matches));
    }
    return failures == 0 ? 0 : 1;
  }

  smpx::WallTimer compile_timer;
  auto pf = fused ? smpx::query::MultiQuery::CompileFused(std::move(*dtd),
                                                         mq_queries)
                  : smpx::core::Prefilter::Compile(std::move(*dtd),
                                                   std::move(paths));
  if (!pf.ok()) {
    std::fprintf(stderr, "compile: %s\n", pf.status().ToString().c_str());
    return 1;
  }
  if (tables_flag) {
    std::printf("%s", pf->tables().DebugString().c_str());
    return 0;
  }

  if (!index_build_file.empty()) {
    // One serial indexing pass, then the versioned skip-index file; the
    // projection itself is discarded. The file is mapped and scanned in
    // place, or with --index-chunk read through rolling buffers and never
    // mapped (inputs larger than the address space stay indexable).
    smpx::WallTimer build_timer;
    std::string stdin_buffer;
    std::unique_ptr<smpx::InputSource> src;
    if (inputs.empty()) {
      stdin_buffer = ReadStdin();
      src = std::make_unique<smpx::MemorySource>(stdin_buffer);
    } else if (index_chunk > 0) {
      auto f = smpx::FileSource::Open(inputs[0]);
      if (!f.ok()) {
        std::fprintf(stderr, "%s\n", f.status().ToString().c_str());
        return 1;
      }
      src = std::move(*f);
    } else {
      auto m = smpx::MmapSource::Open(inputs[0]);
      if (!m.ok()) {
        std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
        return 1;
      }
      src = std::move(*m);
    }
    smpx::index::BoundaryIndexOptions iopts;
    iopts.granularity_bytes = index_granularity;
    if (index_chunk > 0) iopts.chunk_bytes = index_chunk;
    iopts.engine.window_capacity = window;
    auto idx = smpx::index::BoundaryIndex::Build(pf->tables(), *src, iopts);
    if (!idx.ok()) {
      std::fprintf(stderr, "index build: %s\n",
                   idx.status().ToString().c_str());
      return 1;
    }
    std::string serialized = idx->Serialize();
    smpx::Status s = smpx::WriteStringToFile(index_build_file, serialized);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    if (stats_flag) {
      double secs = build_timer.Seconds();
      std::fprintf(
          stderr,
          "index: entries=%zu index_bytes=%zu doc_bytes=%llu chunked=%zu "
          "build=%.3fs (%.1f MB/s)\n",
          idx->entries().size(), serialized.size(),
          static_cast<unsigned long long>(src->size()), index_chunk, secs,
          secs > 0
              ? static_cast<double>(src->size()) / 1048576.0 / secs
              : 0.0);
    }
    return 0;
  }

  // Input plumbing: mmap file inputs (zero copy, sequential madvise);
  // stdin falls back to an in-memory buffer.
  std::string stdin_buffer;
  std::vector<std::unique_ptr<smpx::MmapSource>> sources;
  std::vector<std::string_view> docs;
  if (inputs.empty()) {
    stdin_buffer = ReadStdin();
    docs.push_back(stdin_buffer);
  } else {
    for (const std::string& path : inputs) {
      auto src = smpx::MmapSource::Open(path);
      if (!src.ok()) {
        std::fprintf(stderr, "%s\n", src.status().ToString().c_str());
        return 1;
      }
      docs.push_back((*src)->Contiguous());
      sources.push_back(std::move(*src));
    }
  }
  smpx::core::RunStats stats;
  smpx::core::EngineOptions eopts;
  eopts.window_capacity = window;
  smpx::WallTimer run_timer;
  smpx::CpuTimer cpu_timer;
  int failures = 0;

  if (!index_file.empty()) {
    auto idx = smpx::index::BoundaryIndex::LoadFromFile(index_file);
    if (!idx.ok()) {
      std::fprintf(stderr, "index: %s\n", idx.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<smpx::BufferedFileSink> sink;
    if (out_file.empty()) {
      sink = smpx::BufferedFileSink::Wrap(stdout);
    } else {
      auto file_sink = smpx::BufferedFileSink::Open(out_file);
      if (!file_sink.ok()) {
        std::fprintf(stderr, "%s\n", file_sink.status().ToString().c_str());
        return 1;
      }
      sink = std::move(*file_sink);
    }
    smpx::index::CursorOptions copts;
    copts.engine = eopts;
    auto cur = seek_by_record
                   ? smpx::index::Cursor::OpenAtRecord(
                         *idx, pf->tables(), docs[0], seek_record, copts)
                   : smpx::index::Cursor::OpenAt(*idx, pf->tables(), docs[0],
                                                 seek_offset, copts);
    if (!cur.ok()) {
      std::fprintf(stderr, "seek: %s\n", cur.status().ToString().c_str());
      return 1;
    }
    uint64_t opened_at = cur->position();
    uint64_t out_offset = cur->output_position();
    uint64_t opened_record = cur->record_position();
    smpx::index::StatsPrefix prefix = cur->stats_prefix();
    size_t records = 0;
    smpx::Status s;
    if (count >= 0) {
      auto n = cur->Next(static_cast<size_t>(count), sink.get());
      if (!n.ok()) {
        s = n.status();
      } else {
        records = *n;
      }
    } else {
      s = cur->Drain(sink.get());
    }
    if (s.ok()) s = sink->Flush();
    if (!s.ok()) {
      std::fprintf(stderr, "cursor: %s\n", s.ToString().c_str());
      return 1;
    }
    if (stats_flag) {
      // prefix_* are the indexing pass's cumulative counters for the
      // skipped document prefix: seek-point totals instead of zeros.
      std::fprintf(
          stderr,
          "seek=%s%llu opened_at=%llu record=%llu out_offset=%llu "
          "records=%zu emitted=%llu prefix_matches=%llu "
          "prefix_false_matches=%llu prefix_scan_chars=%llu time=%.3fs\n",
          seek_by_record ? "@" : "",
          static_cast<unsigned long long>(seek_by_record ? seek_record
                                                         : seek_offset),
          static_cast<unsigned long long>(opened_at),
          static_cast<unsigned long long>(opened_record),
          static_cast<unsigned long long>(out_offset), records,
          static_cast<unsigned long long>(cur->output_position() -
                                          out_offset),
          static_cast<unsigned long long>(prefix.matches),
          static_cast<unsigned long long>(prefix.false_matches),
          static_cast<unsigned long long>(prefix.scan_chars),
          run_timer.Seconds());
    }
    return 0;
  }

  if (batch_flag && out_file.empty()) {
    // Streaming batch with per-input output files: every document is
    // pulled through its own session in bounded chunks into a budgeted
    // segment, and segments are written to their in.proj.xml files in
    // document order through the ordered-commit machinery -- at most one
    // output file open at a time, so thousand-document batches do not
    // exhaust fd limits, and peak memory never depends on document size.
    // Errors are isolated per document; stats stay in argument order.
    smpx::parallel::StreamOptions sopts;
    sopts.engine = eopts;
    sopts.chunk_bytes = chunk;
    sopts.max_buffer_bytes = max_buffer;
    std::vector<const smpx::InputSource*> srcs;
    std::vector<std::string> out_paths;
    std::vector<std::vector<std::vector<std::string>>> files;
    for (size_t i = 0; i < sources.size(); ++i) {
      out_paths.push_back(smpx::ProjectedOutputPath(inputs[i]));
      // Repeated inputs would collapse two documents onto one output file.
      for (size_t j = 0; j < i; ++j) {
        if (out_paths[j] == out_paths.back()) {
          std::fprintf(stderr,
                       "duplicate batch output file %s (inputs %s, %s)\n",
                       out_paths.back().c_str(), inputs[j].c_str(),
                       inputs[i].c_str());
          return 1;
        }
      }
      srcs.push_back(sources[i].get());
      files.push_back({{out_paths.back()}});
    }
    std::vector<smpx::core::RunStats> doc_stats;
    std::vector<smpx::Status> statuses = RunBatchToFiles(
        pf->tables(), srcs, files, nullptr, &doc_stats, threads, sopts);
    for (size_t i = 0; i < statuses.size(); ++i) {
      if (!statuses[i].ok()) {
        std::fprintf(stderr, "%s: %s\n", inputs[i].c_str(),
                     statuses[i].ToString().c_str());
        ++failures;
        continue;
      }
      if (stats_flag) {
        std::fprintf(
            stderr, "%s -> %s: input=%llu output=%llu matches=%llu\n",
            inputs[i].c_str(), out_paths[i].c_str(),
            static_cast<unsigned long long>(doc_stats[i].input_bytes),
            static_cast<unsigned long long>(doc_stats[i].output_bytes),
            static_cast<unsigned long long>(doc_stats[i].matches));
      }
      smpx::parallel::MergeRunStats(&stats, doc_stats[i]);
    }
  } else {
    // Single merged output (file or stdout), always through the
    // write-coalescing sink -- nothing below buffers the whole projection.
    std::unique_ptr<smpx::BufferedFileSink> sink;
    if (out_file.empty()) {
      sink = smpx::BufferedFileSink::Wrap(stdout);
    } else {
      auto file_sink = smpx::BufferedFileSink::Open(out_file);
      if (!file_sink.ok()) {
        std::fprintf(stderr, "%s\n", file_sink.status().ToString().c_str());
        return 1;
      }
      sink = std::move(*file_sink);
    }
    smpx::Status s;
    if (batch_flag) {
      // --batch --out: concatenate in argument order through the
      // budgeted ordered-commit pipeline (documents stream, completed
      // ones park on disk until their turn).
      smpx::parallel::ThreadPool pool(threads);
      smpx::parallel::StreamOptions sopts;
      sopts.engine = eopts;
      sopts.chunk_bytes = chunk;
      sopts.max_buffer_bytes = max_buffer;
      std::vector<const smpx::InputSource*> srcs;
      for (const auto& src : sources) srcs.push_back(src.get());
      s = smpx::parallel::BatchRunStreamingMerged(pf->tables(), srcs,
                                                 sink.get(), &stats, &pool,
                                                 sopts);
    } else if (threads > 1) {
      smpx::parallel::ThreadPool pool(threads);
      smpx::parallel::ShardOptions popts;
      popts.engine = eopts;
      popts.max_buffer_bytes = max_buffer;
      s = smpx::parallel::ShardedRun(pf->tables(), docs[0], sink.get(),
                                     &stats, &pool, popts);
    } else {
      smpx::MemoryInputStream in(docs[0]);
      s = pf->Run(&in, sink.get(), &stats, eopts);
    }
    if (s.ok()) s = sink->Flush();
    if (!s.ok()) {
      std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (stats_flag) {
    std::fprintf(
        stderr,
        "states=%zu input=%llu output=%llu time=%.3fs usr+sys=%.3fs "
        "charcomp=%.2f%% avg_shift=%.2f initial_jumps=%.2f%% "
        "matches=%llu false_matches=%llu window_peak=%zu\n",
        pf->num_states(),
        static_cast<unsigned long long>(stats.input_bytes),
        static_cast<unsigned long long>(stats.output_bytes),
        run_timer.Seconds() + compile_timer.Seconds(), cpu_timer.Seconds(),
        stats.CharCompPct(), stats.AvgShift(), stats.InitialJumpPct(),
        static_cast<unsigned long long>(stats.matches),
        static_cast<unsigned long long>(stats.false_matches),
        stats.window_peak);
  }
  return failures == 0 ? 0 : 1;
}
