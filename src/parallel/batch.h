// Streaming document drivers: every document is pulled through a
// resumable PrefilterSession in bounded InputSource chunks, so peak memory
// is O(window + chunk) per worker regardless of document size -- the
// multi-GB batch shape. Batches run one session per document concurrently
// against the shared immutable RuntimeTables, amortizing the static table
// build across the whole batch, and commit their outputs in document
// order, so batch output is deterministic and each document's bytes equal
// its serial run.
//
// Like ShardedRun, StreamRun and BatchRunStreaming write one output per
// unique query of multi-query product tables (MultiQueryInfo order) and
// exactly one for single-query tables:
//  - StreamRun: one document into caller-provided sinks;
//  - BatchRunStreaming: per-document outputs, each (document, query)
//    segment handed to a caller callback in document order, one at a time
//    (per-input output files);
//  - BatchRunStreamingMerged: a single-query batch concatenated into one
//    sink.

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
  /// Bytes fed to the session per Resume call; together with the engine
  /// window this bounds a streaming run's peak memory.
  size_t chunk_bytes = 1 << 20;
  /// Per-document output buffering budget for the batch drivers (split
  /// evenly across the queries of multi-query tables): a document's
  /// projection beyond it overflows to an unlinked temp file until the
  /// ordered-commit frontier reaches it. 0 keeps per-document output fully
  /// in memory.
  size_t max_buffer_bytes = 0;
};

/// Prefilters one document by pulling `src` through a resumable session in
/// `chunk_bytes` slices, writing one output per query into `sinks` (see
/// ShardedRun for the sink contract; a wrong count fails with
/// kInvalidArgument). Every query's output is byte-identical to its serial
/// run. A resident source (Contiguous()) is fed in place; any other is
/// read one chunk at a time into one buffer, so no more than one chunk
/// (plus the sliding window) is ever resident, and a source that shrinks
/// under the run fails with kIoError. Stops reading as soon as the run
/// reaches a final state, like the serial engine. `query_stats` (per
/// unique query; one entry for single-query tables) and `stats` may be
/// null.
Status StreamRun(const core::RuntimeTables& tables, const InputSource& src,
                 const std::vector<OutputSink*>& sinks,
                 std::vector<core::QueryRunStats>* query_stats,
                 core::RunStats* stats, const StreamOptions& opts = {});

/// Receives one projection segment of a BatchRunStreaming run: document
/// `doc`'s output for unique query `query` (0 for single-query tables);
/// `segment` is null when that output is empty.
using BatchSegmentWriter =
    std::function<Status(size_t doc, size_t query, SpillSink* segment)>;

/// Per-document streaming batch: one StreamRun per document, concurrently
/// on `pool`, each into budgeted SpillSink segments (one per query) that
/// commit through `write` -- exactly once per (document, query) pair, in
/// (document, query) order, one call at a time, on whichever thread
/// advances the document-order frontier. A writer that opens one output
/// file per call therefore holds at most one file open, however large the
/// batch; under a max_buffer_bytes budget, completed documents waiting for
/// the frontier park on one shared spill file, not in memory. Errors are
/// isolated per document: a failed document's segments still reach `write`
/// with the partial projection produced before the failure. A non-OK
/// return from `write` is sticky -- it stops the frontier, and every
/// document not fully written reports it (writers wanting per-document
/// isolation of their own failures record them and return Ok). Returns
/// per-document statuses in input order; `query_stats` and `stats` (may be
/// null) receive per-document totals in the same order. Must not be called
/// from a pool thread.
std::vector<Status> BatchRunStreaming(
    const core::RuntimeTables& tables,
    const std::vector<const InputSource*>& docs,
    const BatchSegmentWriter& write,
    std::vector<std::vector<core::QueryRunStats>>* query_stats,
    std::vector<core::RunStats>* stats, ThreadPool* pool,
    const StreamOptions& opts = {});

/// Merged streaming batch: every document is pulled through its session in
/// bounded chunks into a budgeted SpillSink segment, and segments commit
/// into `out` in document order the moment the frontier reaches them --
/// workers finishing out of order park their segment on disk (not memory)
/// until the frontier arrives. Peak resident memory is O(workers x (window
/// + chunk + budget)) regardless of document and projection sizes. The
/// first (lowest-index) per-document error is returned and only the clean
/// document prefix before it reaches `out`; a failed document contributes
/// no bytes. `stats` (may be null) receives the merged totals of that
/// clean prefix. Single-query tables only (one merged output). Must not be
/// called from a pool thread.
Status BatchRunStreamingMerged(const core::RuntimeTables& tables,
                               const std::vector<const InputSource*>& docs,
                               OutputSink* out, core::RunStats* stats,
                               ThreadPool* pool,
                               const StreamOptions& opts = {});

}  // namespace smpx::parallel

#endif  // SMPX_PARALLEL_BATCH_H_
