#include "parallel/batch.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "parallel/shard.h"

namespace smpx::parallel {

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
  // and each document's queries in MultiQueryInfo order. A document's
  // status is written before its segments are installed, and the writer
  // runs only on installed segments, so it reads a final status.
  OrderedCommitSink commit(
      [&write, &statuses, m](size_t k, SpillSink* seg) {
        return write(k / m, k % m, statuses[k / m], seg);
      },
      docs.size() * m);
  pool->RunAndWait(docs.size(), [&](size_t i) {
    std::vector<std::unique_ptr<SpillSink>> segs;
    std::vector<OutputSink*> sinks;
    for (size_t u = 0; u < m; ++u) {
      segs.push_back(std::make_unique<SpillSink>(budget, &arena));
      sinks.push_back(segs.back().get());
    }
    statuses[i] = core::RunEngine(
        tables, docs[i], sinks,
        query_stats != nullptr ? &(*query_stats)[i] : nullptr,
        stats != nullptr ? &(*stats)[i] : nullptr, opts.engine);
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
  if (core::QueryCount(tables) != 1) {
    return Status::InvalidArgument(
        "a merged batch writes one output; the tables have " +
        std::to_string(core::QueryCount(tables)) + " queries");
  }
  // A failed document's run status stops the frontier in front of its
  // bytes, so `out` receives exactly the clean document prefix.
  std::vector<core::RunStats> doc_stats;
  const std::vector<Status> statuses = BatchRunStreaming(
      tables, docs,
      [out](size_t, size_t, const Status& run, SpillSink* seg) {
        if (!run.ok()) return run;
        return seg != nullptr ? seg->CopyTo(out) : Status::Ok();
      },
      nullptr, &doc_stats, pool, opts);
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
  return Status::Ok();
}

}  // namespace smpx::parallel
