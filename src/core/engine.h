// The runtime algorithm (paper Fig. 4): an automaton over the statically
// compiled tables that schedules Boyer-Moore / Commentz-Walter searches per
// frontier vocabulary, verifies tag matches locally (including the
// prefix-tagname check, e.g. Abstract vs AbstractText), performs initial
// jumps, and executes copy actions -- all through a fixed-size sliding
// window over the fed document bytes, which it scans in place.
//
// The engine has one mode: a PrefilterSession is fed bytes with Resume and
// given the last ones with Finish. RunEngine is the one loop that feeds a
// session from an InputSource, a plain driver over that public API; the
// serial run, the serial case of a sharded run and every batch document go
// through it.
//
// Matched tags resolve through the interned fast path by default: the tag
// name is scanned with pointer loops over whole resident window spans
// (memchr for '>' and quote terminators), interned to a dense id
// (RuntimeTables::interner), and dispatched via one flat array load. The
// legacy std::map dispatch + per-byte scanner survives behind
// TableOptions::use_map_dispatch as the differential-testing baseline.

#ifndef SMPX_CORE_ENGINE_H_
#define SMPX_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "core/tables.h"
#include "strmatch/matcher.h"

namespace smpx::core {

/// Counters backing the paper's measurement columns.
struct RunStats {
  uint64_t input_bytes = 0;       ///< total bytes fed to the engine
  uint64_t output_bytes = 0;      ///< bytes emitted (projected size)
  strmatch::SearchStats search;   ///< comparisons/shifts inside matchers
  uint64_t scan_chars = 0;        ///< chars inspected by local tag scans
  uint64_t initial_jumps = 0;     ///< number of initial jumps taken
  uint64_t initial_jump_chars = 0;///< chars skipped by initial jumps alone
  uint64_t matches = 0;           ///< accepted keyword matches
  uint64_t false_matches = 0;     ///< rejected candidates (prefix tags etc.)
  uint64_t states_visited = 0;    ///< distinct runtime states entered
  // Counted per Search invocation (false-match retries and window refills
  // each run a fresh search, so these can exceed the state-entry count).
  uint64_t bm_searches = 0;       ///< searches ran with a unary vocabulary
  uint64_t cw_searches = 0;       ///< searches ran with a multi vocabulary
  /// High-water mark of the window's capacity: the most bytes the window
  /// could hold resident at once. Not bytes allocated -- over resident
  /// input the window scans the caller's memory and allocates none.
  size_t window_peak = 0;

  /// Fraction of input characters inspected (paper "Char Comp. %").
  double CharCompPct() const {
    return input_bytes == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(search.comparisons + scan_chars) /
                     static_cast<double>(input_bytes);
  }
  /// Average forward shift (paper "∅ Shift Size").
  double AvgShift() const { return search.AvgShift(); }
  /// Percentage of input skipped by initial jumps (paper "Initial Jumps").
  double InitialJumpPct() const {
    return input_bytes == 0 ? 0.0
                            : 100.0 * static_cast<double>(initial_jump_chars) /
                                  static_cast<double>(input_bytes);
  }
};

/// Per-query slice of a session's result statistics. The aggregate
/// RunStats counts the shared scan work (searches, jumps, scan chars) once;
/// matches and output bytes are attributed per query here. On single-query
/// tables the one entry equals the aggregate's matches and output_bytes.
struct QueryRunStats {
  uint64_t matches = 0;       ///< accepted transitions this query took
  uint64_t output_bytes = 0;  ///< bytes emitted into this query's sink
};

struct EngineOptions {
  /// Sliding window capacity; the paper uses 8x the system page size. It
  /// bounds how many bytes the engine keeps resident. The window points
  /// into the fed chunks and copies only what a suspended session must
  /// keep, so over resident input -- a MemorySource, a mapped file, a
  /// whole-document Finish -- a large capacity costs nothing.
  size_t window_capacity = SlidingWindow::kDefaultCapacity;
  /// Count the checkpoint's start state in visited()/states_visited. The
  /// parallel sharder disables this for speculative sessions launched from
  /// a *representative* of several behavior-equivalent candidate states:
  /// the true serial run may never enter the representative itself, and its
  /// bit is always owned by the predecessor shard's hand-off anyway.
  /// Ignored for sessions starting from scratch (no checkpoint).
  bool mark_start_state_visited = true;
  /// Cooperative cancellation token. When non-null, the session polls it
  /// (relaxed load) once per search-loop iteration -- i.e. at every safe
  /// point, roughly once per window view -- and aborts with a kCancelled
  /// status as soon as it reads true. The parallel sharder uses this to
  /// kill losing speculative attempts mid-wave; a cancelled session is
  /// dead (every later Resume/Finish returns the same status).
  const std::atomic<bool>* cancel = nullptr;
};

/// The engine state carried across chunk boundaries: everything a session
/// needs -- besides the immutable tables and the bytes themselves -- to
/// continue a run exactly where another one stopped. Plain data; two runs
/// over the same bytes from equal checkpoints produce identical output.
struct SessionCheckpoint {
  int state = 0;               ///< current runtime-DFA state
  uint64_t cursor = 0;         ///< absolute next-unsearched byte position
  uint64_t nesting_depth = 0;  ///< open-tag balance inside an opaque region
  int copy_depth = 0;          ///< nesting depth of active copy regions
  uint64_t copy_flushed = 0;   ///< copy output emitted below this position
  /// False when the run suspended while still scanning the document prolog
  /// (cursor then points at the unfinished construct). Defaults to true:
  /// a hand-crafted mid-document checkpoint has no prolog ahead.
  bool prolog_done = true;
  /// True when `state` was entered but its initial jump J[state] has not
  /// been applied yet (only possible before the first search, i.e. for the
  /// initial state while the prolog is still being skipped).
  bool jump_pending = false;

  /// Product tables only: per-unique-query copy depths and flushed
  /// positions, in MultiQueryInfo order. A one-query checkpoint leaves them
  /// empty -- copy_depth and copy_flushed above carry its one query whole
  /// (so index entries and cursor tokens store no vectors); a session
  /// restored from empty vectors starts every query from those fields,
  /// which over several queries needs copy_depth 0. On several queries
  /// copy_depth is the sum of the per-query depths (only whether it is
  /// zero means anything) and copy_flushed the lowest flushed position over
  /// the copying queries, so feed_begin() and shard verification read
  /// every checkpoint the same way.
  std::vector<int> mq_copy_depth;
  std::vector<uint64_t> mq_copy_flushed;

  /// Absolute offset a successor session must be fed from. Normally the
  /// cursor; inside an active copy region the emitted prefix may lag
  /// behind it (an initial jump taken past the end of the delivered input
  /// suspends with copy bytes not yet received, let alone emitted), and
  /// feeding restarts at copy_flushed so the successor emits them.
  uint64_t feed_begin() const {
    return copy_depth > 0 && copy_flushed < cursor ? copy_flushed : cursor;
  }
};

/// A resumable prefiltering run over the immutable RuntimeTables.
///
/// Feed contiguous document bytes with Resume(chunk) -- starting at any
/// absolute byte offset in a known checkpoint -- and close the input with
/// Finish(last), which takes the final bytes (or none). The session
/// suspends cleanly when a chunk ends mid-construct (nothing is consumed
/// past the last completed transition) and picks up when the next chunk
/// arrives. A whole document handed to Finish runs without suspension
/// bookkeeping, as the historical one-shot engine did; RunEngine() below
/// drives a session that way over resident input.
///
/// A session is single-threaded; parallelism comes from running many
/// sessions (one per shard or document) against the shared tables -- see
/// src/parallel/.
///
/// Sink contract: the session appends projected bytes strictly in
/// document order and only at flush safe-points (completed transitions
/// and sliding-window evictions of settled copy-region prefixes), and
/// it never retracts an appended byte. Downstream sinks may therefore
/// stream, spill, or commit each Append immediately -- the bounded-memory
/// output pipeline (SpillSink / OrderedCommitSink in common/io.h) depends
/// on this.
class PrefilterSession {
 public:
  /// Starts a run at absolute byte offset `start.cursor` in checkpoint
  /// `start` (default: offset 0, the initial DFA state). Every session
  /// takes one sink per unique query: QueryCount(tables) sinks, one for
  /// single-query tables and the MultiQueryInfo count, in its order, for
  /// product tables. Each query's bytes go to its own sink only and equal
  /// an independent single-query run. `query_stats` (may be null) receives
  /// per-query matches and output bytes on FinalizeStats; `stats` (may be
  /// null) counts the shared scan work once, with output_bytes summed over
  /// the sinks. `tables`, the sinks and `stats` must outlive the session.
  /// A wrong sink count, product tables under map dispatch, or a
  /// checkpoint that does not fit the tables makes the session inert with
  /// an InvalidArgument status.
  PrefilterSession(const RuntimeTables& tables,
                   const std::vector<OutputSink*>& query_sinks,
                   std::vector<QueryRunStats>* query_stats, RunStats* stats,
                   const EngineOptions& opts = {},
                   const SessionCheckpoint* start = nullptr);

  /// The one-query case: `out` is the single sink of single-query tables.
  PrefilterSession(const RuntimeTables& tables, OutputSink* out,
                   RunStats* stats, const EngineOptions& opts = {},
                   const SessionCheckpoint* start = nullptr);
  ~PrefilterSession();

  PrefilterSession(const PrefilterSession&) = delete;
  PrefilterSession& operator=(const PrefilterSession&) = delete;

  /// Feeds the next contiguous bytes of the document. Returns Ok both when
  /// the run reached a final state (finished() becomes true; trailing bytes
  /// are ignored, as in a serial run) and when the session merely consumed
  /// the chunk and suspended awaiting more input. The session scans
  /// `chunk` in place and keeps no reference to it after the call: the
  /// chunk need not outlive Resume, and the caller may overwrite or free
  /// it as soon as Resume returns (a suspending session first copies the
  /// few bytes it must keep).
  Status Resume(std::string_view chunk);

  /// Feeds `last`, the final bytes of the document (empty when the last
  /// Resume delivered them), and declares end of input. A run that reaches
  /// a final state projects what Resume(last) then Finish() would. Once the
  /// input is known to be complete the session cannot suspend, so `last`
  /// is scanned without the per-search stats snapshots and the resident
  /// safe-point floor that suspension needs. `last` is scanned in place
  /// and need not outlive the call. Trailing bytes past a final state are
  /// ignored. Fails with kParseError if the run does not reach a final
  /// state (matching the serial engine on truncated documents), and
  /// finalizes summary statistics.
  Status Finish(std::string_view last = {});

  /// True once a final DFA state was reached.
  bool finished() const;

  /// The resumable state after the last completed transition. Between
  /// Resume calls, running another session over the remaining bytes from
  /// this checkpoint yields output byte-identical to continuing this one.
  SessionCheckpoint checkpoint() const;

  /// True when the last Resume suspended in a plain keyword search (no
  /// partially scanned construct pending). At such a suspension the whole
  /// fed range has been searched; a successor session starting at the next
  /// byte offset in checkpoint().state sees every remaining occurrence.
  /// False after a suspension inside a candidate tag scan, whose handling
  /// needs bytes from the next chunk.
  bool drained_cleanly() const;

  /// Fills the end-of-run summary fields of `stats` (input/output bytes,
  /// window peak, states visited). Finish() does this automatically; call
  /// it directly for sessions that end suspended (e.g. a mid-document
  /// shard). Idempotent.
  void FinalizeStats();

  /// Per-state visit flags, for merging states_visited across sessions.
  const std::vector<bool>& visited() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Executes one prefiltering run over `in`: one PrefilterSession, fed
/// through its public calls, writing one output per unique query into
/// `query_sinks` (see PrefilterSession for the sink contract; a wrong count
/// fails with kInvalidArgument). A resident source (Contiguous() covers
/// size(): MemorySource, MmapSource) is one zero-copy Finish(doc). Any
/// other source is read in 1 MiB ReadRange pieces into one reused buffer,
/// a Resume per piece and Finish on the last, so no more than one piece
/// (plus the window) is resident. Its output equals the resident run's,
/// and so do its RunStats while the document fits in one piece; past one,
/// each cut restarts one keyword search, as the chunk cuts of the index
/// build do, and a prolog construct cut across pieces stays resident
/// (window_peak). Reading stops at a final state, as in a serial run; a
/// failed ReadAt returns its Status, and a source that shrinks under the
/// run fails with kIoError. `query_stats` (per unique query; one entry for
/// single-query tables) and `stats` may be null. `tables` must outlive the
/// call.
Status RunEngine(const RuntimeTables& tables, const InputSource* in,
                 const std::vector<OutputSink*>& query_sinks,
                 std::vector<QueryRunStats>* query_stats, RunStats* stats,
                 const EngineOptions& opts = {});

/// The one-query case: `out` is the single sink of single-query tables.
Status RunEngine(const RuntimeTables& tables, const InputSource* in,
                 OutputSink* out, RunStats* stats,
                 const EngineOptions& opts = {});

}  // namespace smpx::core

#endif  // SMPX_CORE_ENGINE_H_
