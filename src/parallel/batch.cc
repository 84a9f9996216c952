#include "parallel/batch.h"

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "parallel/shard.h"

namespace smpx::parallel {

Status StreamRun(const core::RuntimeTables& tables, const InputSource& src,
                 const std::vector<OutputSink*>& sinks,
                 std::vector<core::QueryRunStats>* query_stats,
                 core::RunStats* stats, const StreamOptions& opts) {
  core::PrefilterSession session(tables, sinks, query_stats, stats,
                                 opts.engine);
  const size_t chunk = std::max<size_t>(1, opts.chunk_bytes);
  std::vector<char> scratch;  // stays empty over resident sources
  const uint64_t total = src.size();
  for (uint64_t offset = 0; offset < total && !session.finished();) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(chunk, total - offset));
    SMPX_ASSIGN_OR_RETURN(std::string_view piece,
                          ReadRange(src, offset, n, &scratch));
    offset += n;
    if (offset == total) return session.Finish(piece);
    SMPX_RETURN_IF_ERROR(session.Resume(piece));
  }
  // Trailing bytes past a final state are ignored, as in a serial run;
  // Finish() on a finished session only fills the summary stats. A wrong
  // sink count surfaces here too: the session is inert.
  return session.Finish();
}

std::vector<Status> BatchRunStreaming(
    const core::RuntimeTables& tables,
    const std::vector<const InputSource*>& docs,
    const BatchSegmentWriter& write,
    std::vector<std::vector<core::QueryRunStats>>* query_stats,
    std::vector<core::RunStats>* stats, ThreadPool* pool,
    const StreamOptions& opts) {
  const size_t m = core::QueryCount(tables);
  std::vector<Status> statuses(docs.size());
  if (query_stats != nullptr) query_stats->assign(docs.size(), {});
  if (stats != nullptr) stats->assign(docs.size(), core::RunStats{});
  const size_t budget = opts.max_buffer_bytes != 0
                            ? std::max<size_t>(opts.max_buffer_bytes / m, 1)
                            : SpillSink::kUnlimited;
  // One shared spill file for the whole batch: overflowing and parked
  // segments cost extents, not file descriptors, so a thousand-document
  // batch stays well under tight fd limits.
  SpillArena arena;
  // Segment k = doc * m + query: the frontier walks documents in order
  // and each document's queries in MultiQueryInfo order.
  OrderedCommitSink commit(
      [&write, m](size_t k, SpillSink* seg) {
        return write(k / m, k % m, seg);
      },
      docs.size() * m);
  pool->RunAndWait(docs.size(), [&](size_t i) {
    std::vector<std::unique_ptr<SpillSink>> segs;
    std::vector<OutputSink*> sinks;
    for (size_t u = 0; u < m; ++u) {
      segs.push_back(std::make_unique<SpillSink>(budget, &arena));
      sinks.push_back(segs.back().get());
    }
    statuses[i] = StreamRun(
        tables, *docs[i], sinks,
        query_stats != nullptr ? &(*query_stats)[i] : nullptr,
        stats != nullptr ? &(*stats)[i] : nullptr, opts);
    // Install even on failure: the writer receives the partial projection
    // produced before it.
    for (size_t u = 0; u < m; ++u) {
      commit.Install(i * m + u, std::move(segs[u]));
    }
  });
  // A sticky commit error (a writer failure, or a parked segment's spill
  // failing on a full disk) halts the frontier: documents at or past it
  // were never fully written -- report that instead of a silent all-OK.
  const Status commit_status = commit.status();
  const size_t frontier_doc = commit.frontier() / m;
  for (size_t i = frontier_doc; !commit_status.ok() && i < docs.size(); ++i) {
    if (statuses[i].ok()) statuses[i] = commit_status;
  }
  return statuses;
}

Status BatchRunStreamingMerged(const core::RuntimeTables& tables,
                               const std::vector<const InputSource*>& docs,
                               OutputSink* out, core::RunStats* stats,
                               ThreadPool* pool, const StreamOptions& opts) {
  const size_t budget = opts.max_buffer_bytes != 0 ? opts.max_buffer_bytes
                                                   : SpillSink::kUnlimited;
  SpillArena arena;  // one spill fd for every overflowing segment
  OrderedCommitSink commit(out, docs.size());
  std::vector<Status> statuses(docs.size());
  std::vector<core::RunStats> doc_stats(docs.size());
  pool->RunAndWait(docs.size(), [&](size_t i) {
    auto seg = std::make_unique<SpillSink>(budget, &arena);
    statuses[i] = StreamRun(tables, *docs[i], {seg.get()}, nullptr,
                            &doc_stats[i], opts);
    if (statuses[i].ok()) {
      // The frontier cannot pass an uninstalled segment, so a document
      // that will fail can never be overtaken by its successors' output:
      // the commit below emits exactly the clean document prefix.
      commit.Install(i, std::move(seg));
    } else {
      commit.Truncate(i);
    }
  });
  size_t max_visited = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (!statuses[i].ok()) return statuses[i];
    if (stats != nullptr) {
      MergeRunStats(stats, doc_stats[i]);
      // states_visited is not additive; every document runs the same
      // automaton, so report the maximum.
      max_visited = std::max(max_visited, doc_stats[i].states_visited);
      stats->states_visited = max_visited;
    }
  }
  return commit.status();
}

}  // namespace smpx::parallel
