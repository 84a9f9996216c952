// Batch drivers: every document is one core::RunEngine run -- a resident
// document is scanned in place with one Finish, any other is read in
// bounded pieces -- so a document's output and RunStats equal its serial
// run's. Batches run one session per document concurrently against the
// shared immutable RuntimeTables, amortizing the static table build across
// the whole batch, and commit their outputs in document order through
// budgeted SpillSink segments, so batch output is deterministic and a
// finished document waiting for its turn costs disk, not memory.
//
// Like ShardedRun, BatchRunStreaming writes one output per unique query of
// multi-query product tables (MultiQueryInfo order) and exactly one for
// single-query tables:
//  - BatchRunStreaming: per-document outputs, each (document, query)
//    segment handed to a caller callback in document order, one at a time
//    (per-input output files);
//  - BatchRunStreamingMerged: a single-query batch concatenated into one
//    sink, a writer over BatchRunStreaming.

#ifndef SMPX_PARALLEL_BATCH_H_
#define SMPX_PARALLEL_BATCH_H_

#include <functional>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/tables.h"
#include "parallel/thread_pool.h"

namespace smpx::parallel {

struct StreamOptions {
  core::EngineOptions engine;
  /// Per-document output buffering budget for the batch drivers (split
  /// evenly across the queries of multi-query tables): a document's
  /// projection beyond it overflows to an unlinked temp file until the
  /// ordered-commit frontier reaches it. 0 keeps per-document output fully
  /// in memory.
  size_t max_buffer_bytes = 0;
};

/// Receives one projection segment of a BatchRunStreaming run: document
/// `doc`'s output for unique query `query` (0 for single-query tables),
/// with `run`, the document's run status; `segment` is null when that
/// output is empty.
using BatchSegmentWriter = std::function<Status(
    size_t doc, size_t query, const Status& run, SpillSink* segment)>;

/// Per-document batch: one core::RunEngine run per document, concurrently
/// on `pool`, each into budgeted SpillSink segments (one per query) that
/// commit through `write` -- exactly once per (document, query) pair, in
/// (document, query) order, one call at a time, on whichever thread
/// advances the document-order frontier. A writer that opens one output
/// file per call therefore holds at most one file open, however large the
/// batch; under a max_buffer_bytes budget, completed documents waiting for
/// the frontier park on one shared spill file, not in memory. Errors are
/// isolated per document: a failed document's segments still reach `write`
/// with its run status and the partial projection produced before the
/// failure. A non-OK return from `write` is sticky -- it stops the
/// frontier, frees every segment still waiting, and every document not
/// fully written reports it (writers wanting per-document isolation of
/// their own failures record them and return Ok). Returns per-document
/// statuses in input order; `query_stats` and `stats` (may be null) receive
/// per-document totals in the same order. Must not be called from a pool
/// thread.
std::vector<Status> BatchRunStreaming(
    const core::RuntimeTables& tables,
    const std::vector<const InputSource*>& docs,
    const BatchSegmentWriter& write,
    std::vector<std::vector<core::QueryRunStats>>* query_stats,
    std::vector<core::RunStats>* stats, ThreadPool* pool,
    const StreamOptions& opts = {});

/// Merged batch: BatchRunStreaming with a writer that replays each
/// document's segment into `out` in document order -- workers finishing
/// out of order park their segment on disk (not memory) until the frontier
/// arrives, so peak resident memory is O(workers x (window + budget))
/// regardless of document and projection sizes. The writer returns a
/// failed document's run status instead of its bytes, which stops the
/// frontier there: the first (lowest-index) per-document error is returned
/// and only the clean document prefix before it reaches `out`. `stats`
/// (may be null) receives the merged totals of that clean prefix. Product
/// tables (several outputs) fail with kInvalidArgument before any work.
/// Must not be called from a pool thread.
Status BatchRunStreamingMerged(const core::RuntimeTables& tables,
                               const std::vector<const InputSource*>& docs,
                               OutputSink* out, core::RunStats* stats,
                               ThreadPool* pool,
                               const StreamOptions& opts = {});

}  // namespace smpx::parallel

#endif  // SMPX_PARALLEL_BATCH_H_
