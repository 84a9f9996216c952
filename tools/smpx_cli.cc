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
// through a write-coalescing BufferedFileSink. Every input is resident:
// files are mmap'ed (sequential madvise) and stdin is read into memory
// (an unreadable stdin fails as a read error), and each run scans those
// bytes in place. An output file that is one of the inputs (the same
// device and inode, under any name) is refused before any output is
// opened.
//
// After compilation every run takes one pipeline for 1..N queries. It
// holds single-query tables (--paths, --paths-file, --query, --fused) or
// product tables (--query-file, or --paths repeated: N queries compiled
// into one product automaton), and a single query is the one-query case:
// one original query routed to one unique query. Product tables write one
// output per query, ".qN" inserted before the extension (out.xml ->
// out.q1.xml, ..., query order), each byte-identical to that query's own
// run. The run shapes:
//  - one document: sharded at split keywords across a --threads pool,
//    several segments per thread on large documents so uneven segments
//    balance (see ShardOptions::max_shards), and run speculatively, each
//    shard projecting into SpillSink segments that share their thread's
//    --max-buffer budget and are replayed into the outputs in document
//    order as verification succeeds -- a multi-GB single document stays
//    shardable at O(threads x (window + budget)) resident memory. One
//    thread, or tables without split keywords, run one serial session.
//  - --batch: the documents are prefiltered concurrently, each one
//    serial engine run over its mapped bytes (the window stays bounded as
//    in a single-document run), and every output file (in.xml ->
//    in.proj.xml, in.proj.q1.xml, ...) is written through the
//    ordered-commit machinery, so at most one is open at a time
//    regardless of batch size.
//  - --batch --out FILE (single query): the outputs are concatenated in
//    argument order through the same budgeted ordered-commit pipeline.
// --stats prints the paper's measurement columns to stderr: per-input
// --batch and multi-query runs print one "IN -> OUT: input= output=
// matches=" line per output file, then every run one summary line (time
// is compile plus run; product tables append "queries=N unique=U").
// --tables dumps the compiled A/V/J/T tables and exits.
//
// Random access: --index-build FILE runs one serial indexing pass over
// one document -- mapped, or with --index-chunk streamed through rolling
// buffers -- and saves a boundary skip-index (--index-granularity sets the
// entry spacing); --index FILE --seek OFF [--count N] then resumes a
// cursor at the nearest indexed boundary at or before OFF -- without
// prefiltering the prefix -- and emits N indexed spans (one top-level
// record each at granularity 1; or everything to the end), byte-identical
// to the corresponding slice of a full serial run.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>

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
      "          [--stats] [--tables] [--window SIZE]\n"
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
      "                  tables know), 2 to 4 segments per thread on\n"
      "                  documents of N x 1M or more, and run\n"
      "                  speculatively, or serially when N is 1 or the\n"
      "                  tables have none; with --batch, the documents\n"
      "                  are prefiltered concurrently\n"
      "  --batch         every positional argument is an input file; each\n"
      "                  is prefiltered by one serial run over its mapped\n"
      "                  bytes and written to its own output file\n"
      "                  (in.xml -> in.proj.xml). With --out FILE (one\n"
      "                  query only), outputs are instead concatenated\n"
      "                  into FILE in argument order through the\n"
      "                  ordered-commit pipeline\n"
      "  --stats         print the paper's measurement columns to stderr:\n"
      "                  per-input --batch and multi-query mode print one\n"
      "                  'IN -> OUT: input= output= matches=' line per\n"
      "                  output file; then one summary line (time is\n"
      "                  compile plus run; multi-query mode appends\n"
      "                  'queries=N unique=U')\n"
      "  --max-buffer S  output buffering budget (default 64M, 0 =\n"
      "                  unbounded): each thread's shards together, or\n"
      "                  each batch document, buffer at most S projected\n"
      "                  bytes in memory and overflow to an unlinked temp\n"
      "                  file until their turn in the document-order\n"
      "                  commit. Besides the mapped input pages, which\n"
      "                  the kernel can reclaim, peak resident memory is\n"
      "                  O(threads x (window + max-buffer)) regardless of\n"
      "                  input size; shrink --max-buffer to shard multi-GB\n"
      "                  documents on small machines, grow it to avoid\n"
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
    std::vector<smpx::core::RunStats>* stats,
    smpx::parallel::ThreadPool* pool,
    const smpx::parallel::StreamOptions& sopts) {
  std::vector<smpx::Status> file_status(srcs.size());
  std::vector<smpx::Status> statuses = smpx::parallel::BatchRunStreaming(
      tables, srcs,
      [&](size_t doc, size_t query, const smpx::Status&,
          smpx::SpillSink* segment) {
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
      query_stats, stats, pool, sopts);
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) statuses[i] = file_status[i];
  }
  return statuses;
}

/// Opens an input file: mapped (sequential madvise), or read through
/// rolling buffers when `stream` is set.
smpx::Result<std::unique_ptr<smpx::InputSource>> OpenInput(
    const std::string& path, bool stream) {
  if (stream) {
    SMPX_ASSIGN_OR_RETURN(std::unique_ptr<smpx::FileSource> file,
                          smpx::FileSource::Open(path));
    return std::unique_ptr<smpx::InputSource>(std::move(file));
  }
  SMPX_ASSIGN_OR_RETURN(std::unique_ptr<smpx::MmapSource> mapped,
                        smpx::MmapSource::Open(path));
  return std::unique_ptr<smpx::InputSource>(std::move(mapped));
}

/// True, with the clash printed, when an existing output file is one of the
/// files the run reads: opening it would truncate that input -- a mapped
/// document then faults the run (SIGBUS) and is lost. Files are compared
/// by device and inode, so another spelling of the path and a hard link
/// are caught too. Outputs that do not exist yet, and stdout (""), cannot
/// be inputs.
bool OutputIsAnInput(const std::vector<std::string>& inputs,
                     const std::vector<std::string>& outputs) {
  std::map<std::pair<dev_t, ino_t>, const std::string*> read;  // id -> name
  struct stat st;
  for (const std::string& path : inputs) {
    if (!path.empty() && ::stat(path.c_str(), &st) == 0) {
      read.emplace(std::make_pair(st.st_dev, st.st_ino), &path);
    }
  }
  for (const std::string& out : outputs) {
    if (out.empty() || ::stat(out.c_str(), &st) != 0) continue;
    const auto in = read.find({st.st_dev, st.st_ino});
    if (in != read.end()) {
      std::fprintf(stderr,
                   "output file %s is the input %s; refusing to overwrite "
                   "it\n",
                   out.c_str(), in->second->c_str());
      return true;
    }
  }
  return false;
}

/// The write-coalescing sink for output file `path`, or for stdout when
/// `path` is empty; null (the error printed) when the file cannot open.
std::unique_ptr<smpx::BufferedFileSink> OpenOutput(const std::string& path) {
  if (path.empty()) return smpx::BufferedFileSink::Wrap(stdout);
  auto opened = smpx::BufferedFileSink::Open(path);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*opened);
}

}  // namespace

int main(int argc, char** argv) {
  std::string dtd_file;
  std::string paths_text;
  std::string query;
  std::vector<std::string> query_texts;  // one entry per --paths occurrence
  std::vector<std::string> paths_files;  // every --paths-file read
  std::string query_file;
  bool fused = false;
  std::vector<std::string> inputs;
  std::string out_file;
  bool stats_flag = false;
  bool tables_flag = false;
  bool batch_flag = false;
  int threads = 1;
  size_t window = smpx::SlidingWindow::kDefaultCapacity;
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
      paths_files.push_back(v);
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
  const bool multi_mode = !query_file.empty() || query_texts.size() > 1;
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
  const bool product = multi_mode && !fused;
  if (product && (tables_flag || index_mode)) return Usage(argv[0]);
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
  // Product tables write one file per query, named after the output file
  // or, under --batch, after each input; a merged --batch --out has no
  // meaning when each query owns its byte stream.
  if (product && batch_flag && !out_file.empty()) return Usage(argv[0]);
  if (product && !batch_flag && out_file.empty()) {
    std::fprintf(stderr,
                 "multi-query mode writes one file per query; name the "
                 "output (--out FILE or a positional out.xml)\n");
    return 2;
  }

  // Outputs: names[i][j] is document i's file for original query j. Under
  // --batch without --out every input names its own (in.xml ->
  // in.proj.xml); otherwise one set, named after the output file ("" is
  // stdout), serves the document or the merged batch. Product tables put
  // ".qN" before the extension.
  const bool per_input = batch_flag && out_file.empty();
  const int nq = product ? static_cast<int>(query_texts.size()) : 1;
  std::vector<std::vector<std::string>> names;
  std::vector<std::string> outputs = {index_build_file};
  std::map<std::string, size_t> doc_of;  // output file -> its document
  for (size_t i = 0; i < (per_input ? inputs.size() : 1); ++i) {
    const std::string base =
        per_input ? smpx::ProjectedOutputPath(inputs[i]) : out_file;
    names.emplace_back();
    for (int j = 0; j < nq; ++j) {
      names[i].push_back(
          product ? QueryOutputPath(base, static_cast<size_t>(j) + 1) : base);
      outputs.push_back(names[i].back());
      // Repeated inputs would collapse two documents onto one output file.
      const auto [first, fresh] = doc_of.emplace(names[i].back(), i);
      if (!fresh) {
        std::fprintf(stderr,
                     "duplicate batch output file %s (inputs %s, %s)\n",
                     names[i].back().c_str(), inputs[first->second].c_str(),
                     inputs[i].c_str());
        return 1;
      }
    }
  }
  // Every output is opened (and truncated) after the inputs are read or
  // mapped, so no output may be one of them.
  std::vector<std::string> read_files = inputs;
  read_files.insert(read_files.end(), paths_files.begin(), paths_files.end());
  read_files.insert(read_files.end(), {dtd_file, query_file, index_file});
  if (OutputIsAnInput(read_files, outputs)) return 1;

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

    std::unique_ptr<smpx::BufferedFileSink> sink = OpenOutput(out_file);
    if (sink == nullptr) return 1;

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

  // N queries compile into shared product tables (equivalent queries
  // collapse to one component). Anything else -- --fused included, whose
  // superset projection is safe for each query of the mix -- compiles
  // single-query tables. Everything below runs either; a single query is
  // the one-query case.
  smpx::WallTimer compile_timer;
  std::optional<smpx::query::MultiQuery> mq;
  std::optional<smpx::core::Prefilter> pf;
  if (product) {
    auto compiled = smpx::query::MultiQuery::Compile(std::move(*dtd),
                                                     std::move(mq_queries));
    if (!compiled.ok()) {
      std::fprintf(stderr, "multi-query compile: %s\n",
                   compiled.status().ToString().c_str());
      return 1;
    }
    mq.emplace(std::move(*compiled));
  } else {
    auto compiled =
        fused ? smpx::query::MultiQuery::CompileFused(std::move(*dtd),
                                                      mq_queries)
              : smpx::core::Prefilter::Compile(std::move(*dtd),
                                               std::move(paths));
    if (!compiled.ok()) {
      std::fprintf(stderr, "compile: %s\n",
                   compiled.status().ToString().c_str());
      return 1;
    }
    pf.emplace(std::move(*compiled));
  }
  const double compile_seconds = compile_timer.Seconds();
  const smpx::core::RuntimeTables& tables = mq ? mq->tables() : pf->tables();
  if (tables_flag) {
    std::printf("%s", tables.DebugString().c_str());
    return 0;
  }

  // Inputs: stdin is buffered in memory; files are mapped (zero copy,
  // sequential madvise), or read through rolling buffers for a chunked
  // --index-build, which never maps the document (inputs larger than the
  // address space stay indexable).
  smpx::WallTimer build_timer;
  std::string stdin_buffer;
  std::vector<std::unique_ptr<smpx::InputSource>> sources;
  if (inputs.empty()) {
    auto read = smpx::ReadStdioToString(stdin);
    if (!read.ok()) {
      std::fprintf(stderr, "stdin: %s\n", read.status().ToString().c_str());
      return 1;
    }
    stdin_buffer = std::move(*read);
    sources.push_back(std::make_unique<smpx::MemorySource>(stdin_buffer));
  }
  for (const std::string& path : inputs) {
    auto src = OpenInput(path, !index_build_file.empty() && index_chunk > 0);
    if (!src.ok()) {
      std::fprintf(stderr, "%s\n", src.status().ToString().c_str());
      return 1;
    }
    sources.push_back(std::move(*src));
  }

  if (!index_build_file.empty()) {
    // One serial indexing pass, then the versioned skip-index file; the
    // projection itself is discarded.
    smpx::index::BoundaryIndexOptions iopts;
    iopts.granularity_bytes = index_granularity;
    if (index_chunk > 0) iopts.chunk_bytes = index_chunk;
    iopts.engine.window_capacity = window;
    auto idx = smpx::index::BoundaryIndex::Build(tables, *sources[0], iopts);
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
      const double secs = build_timer.Seconds();
      const uint64_t doc_bytes = sources[0]->size();
      std::fprintf(
          stderr,
          "index: entries=%zu index_bytes=%zu doc_bytes=%llu chunked=%zu "
          "build=%.3fs (%.1f MB/s)\n",
          idx->entries().size(), serialized.size(),
          static_cast<unsigned long long>(doc_bytes), index_chunk, secs,
          secs > 0 ? static_cast<double>(doc_bytes) / 1048576.0 / secs : 0.0);
    }
    return 0;
  }

  smpx::core::EngineOptions eopts;
  eopts.window_capacity = window;
  smpx::WallTimer run_timer;
  smpx::CpuTimer cpu_timer;

  if (!index_file.empty()) {
    auto idx = smpx::index::BoundaryIndex::LoadFromFile(index_file);
    if (!idx.ok()) {
      std::fprintf(stderr, "index: %s\n", idx.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<smpx::BufferedFileSink> sink = OpenOutput(out_file);
    if (sink == nullptr) return 1;
    smpx::index::CursorOptions copts;
    copts.engine = eopts;
    const std::string_view doc = sources[0]->Contiguous();
    auto cur = seek_by_record
                   ? smpx::index::Cursor::OpenAtRecord(*idx, tables, doc,
                                                       seek_record, copts)
                   : smpx::index::Cursor::OpenAt(*idx, tables, doc,
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

  // One stats line per output file of a document; product tables report
  // each query's own bytes and matches.
  auto print_files = [&](const std::string& input,
                         const std::vector<std::string>& outs,
                         const smpx::core::RunStats& run,
                         const std::vector<smpx::core::QueryRunStats>& unique) {
    std::vector<smpx::core::QueryRunStats> per_query{
        {run.matches, run.output_bytes}};
    if (mq) mq->ExpandStats(unique, &per_query);
    for (size_t j = 0; j < outs.size(); ++j) {
      std::fprintf(stderr, "%s -> %s: input=%llu output=%llu matches=%llu\n",
                   input.c_str(), outs[j].c_str(),
                   static_cast<unsigned long long>(run.input_bytes),
                   static_cast<unsigned long long>(per_query[j].output_bytes),
                   static_cast<unsigned long long>(per_query[j].matches));
    }
  };

  smpx::parallel::ThreadPool pool(threads);
  smpx::parallel::StreamOptions sopts;
  sopts.engine = eopts;
  sopts.max_buffer_bytes = max_buffer;
  std::vector<const smpx::InputSource*> srcs;
  for (const auto& src : sources) srcs.push_back(src.get());
  smpx::core::RunStats stats;
  int failures = 0;

  if (per_input) {
    // Batch with per-input output files: every document runs through its
    // own session into budgeted segments (one per unique query), and
    // segments are written to their files in document order through the
    // ordered-commit machinery -- at most one output file open at a time,
    // so thousand-document batches do not exhaust fd limits. Errors are
    // isolated per document; stats stay in argument order.
    std::vector<std::vector<std::vector<std::string>>> files;
    for (size_t i = 0; i < names.size(); ++i) {
      files.emplace_back(smpx::core::QueryCount(tables));
      for (int j = 0; j < nq; ++j) {
        files[i][mq ? static_cast<size_t>(mq->unique_of(j)) : 0].push_back(
            names[i][j]);
      }
    }
    std::vector<std::vector<smpx::core::QueryRunStats>> doc_qstats;
    std::vector<smpx::core::RunStats> doc_stats;
    std::vector<smpx::Status> statuses = RunBatchToFiles(
        tables, srcs, files, &doc_qstats, &doc_stats, &pool, sopts);
    for (size_t i = 0; i < statuses.size(); ++i) {
      if (!statuses[i].ok()) {
        std::fprintf(stderr, "%s: %s\n", inputs[i].c_str(),
                     statuses[i].ToString().c_str());
        ++failures;
        continue;
      }
      if (stats_flag) {
        print_files(inputs[i], names[i], doc_stats[i], doc_qstats[i]);
      }
      smpx::parallel::MergeRunStats(&stats, doc_stats[i]);
    }
  } else {
    // One output per original query (file or stdout), always through the
    // write-coalescing sink -- nothing below buffers the whole projection.
    std::vector<std::unique_ptr<smpx::BufferedFileSink>> outs;
    std::vector<smpx::OutputSink*> sinks;
    for (const std::string& name : names[0]) {
      outs.push_back(OpenOutput(name));
      if (outs.back() == nullptr) return 1;
      sinks.push_back(outs.back().get());
    }
    std::vector<smpx::core::QueryRunStats> unique_stats;
    smpx::Status s;
    if (batch_flag) {
      // --batch --out (single query): concatenate in argument order
      // through the budgeted ordered-commit pipeline (completed documents
      // park on disk until their turn).
      s = smpx::parallel::BatchRunStreamingMerged(tables, srcs, sinks[0],
                                                 &stats, &pool, sopts);
    } else {
      // One document: sharded at split keywords, or one serial session on
      // this thread (one thread, or tables without split keywords).
      smpx::parallel::ShardOptions popts;
      popts.engine = eopts;
      popts.max_buffer_bytes = max_buffer;
      std::vector<std::unique_ptr<smpx::FanoutSink>> fanouts;
      std::vector<smpx::OutputSink*> unique_sinks = sinks;
      if (mq) mq->RouteSinks(sinks, &fanouts, &unique_sinks);
      s = smpx::parallel::ShardedRun(tables, sources[0]->Contiguous(),
                                     unique_sinks, &unique_stats, &stats,
                                     &pool, popts);
    }
    for (auto& out : outs) {
      if (s.ok()) s = out->Flush();
    }
    if (!s.ok()) {
      std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
      return 1;
    }
    if (stats_flag && mq) {
      print_files(inputs.empty() ? "stdin" : inputs[0], names[0], stats,
                  unique_stats);
    }
  }
  if (stats_flag) {
    std::fprintf(
        stderr,
        "states=%zu input=%llu output=%llu time=%.3fs usr+sys=%.3fs "
        "charcomp=%.2f%% avg_shift=%.2f initial_jumps=%.2f%% "
        "matches=%llu false_matches=%llu window_peak=%zu",
        tables.states.size(),
        static_cast<unsigned long long>(stats.input_bytes),
        static_cast<unsigned long long>(stats.output_bytes),
        compile_seconds + run_timer.Seconds(), cpu_timer.Seconds(),
        stats.CharCompPct(), stats.AvgShift(), stats.InitialJumpPct(),
        static_cast<unsigned long long>(stats.matches),
        static_cast<unsigned long long>(stats.false_matches),
        stats.window_peak);
    if (mq) {
      std::fprintf(stderr, " queries=%d unique=%d", mq->num_queries(),
                   mq->num_unique());
    }
    std::fprintf(stderr, "\n");
  }
  return failures == 0 ? 0 : 1;
}
