// Single-document sharding: split one document at element boundaries and
// prefilter the shards concurrently, one PrefilterSession per shard against
// the shared immutable RuntimeTables.
//
// By default a pool of several workers cuts a large document into several
// segments per worker (see ShardOptions::max_shards), because segments of
// equal bytes take unequal time and a run waits for its slowest one: the
// pool's FIFO queue and the resolver's steal-on-wait hand the next segment
// to whichever thread is free. A one-worker pool runs one serial session.
//
// Split points come from a keyword search, the paper's own tool: the
// tables' split keywords (core::SplitKeywords -- "<name" of every element
// whose entry state is one behavior class at copy depth 0, wherever it
// sits: XMark's "<person", "<item", "<open_auction", MEDLINE's
// "<MedlineCitation") are probed with one BM/CW matcher from each split
// target (ProbeKeywordBoundaries, parallel/boundary_scan.h), which reads a
// few hundred bytes per target. The matcher is built on the first sharded
// run over the tables and reused by every later one. That is the only way
// a document is cut. Tables without split keywords (a root copy, or no
// name with one entry class), and documents in which the probe finds no
// split point, run as one serial session on the calling thread, straight
// into the caller's sinks.
//
// Execution is *speculative*: every shard -- the document head included --
// launches in one parallel wave, each later one once, from the class of
// the keyword its boundary opens. The verification pass resolves segments
// in order *while the wave is still running*: it accepts a segment's run
// when its predecessor's actual exit lies in that class, cancels a losing
// run mid-flight (cooperative kill at session safe points, buffered output
// freed on the spot), and deterministically re-runs any segment whose
// speculation failed (a keyword inside a comment, CDATA section or copy
// region, an initial jump past the boundary over live keywords,
// DTD-invalid input) from its predecessor's true checkpoint. The merged
// output is therefore ALWAYS byte-identical to the serial engine, no
// matter where the boundaries fall.

#ifndef SMPX_PARALLEL_SHARD_H_
#define SMPX_PARALLEL_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/tables.h"
#include "parallel/boundary_scan.h"
#include "parallel/thread_pool.h"

namespace smpx::parallel {

struct ShardOptions {
  /// Upper bound on the number of shards. 0 (the default) picks the count
  /// from the pool size W and the document: one serial session when W is
  /// 1, else whole waves of W segments, W x clamp(doc bytes / (W x 512
  /// KiB), 1, 4), so documents under 2 W x 512 KiB keep one segment per
  /// worker.
  size_t max_shards = 0;
  /// Inert: every speculated segment runs from one class. Kept because
  /// smpx-bench/src still reads it.
  size_t max_candidate_states = 4;
  /// Output buffering budget per worker in bytes, shared by the segments
  /// that worker runs: with S segments on W workers each segment gets
  /// max_buffer_bytes / ceil(S / W). A segment's projected output beyond
  /// its share overflows to an unlinked temp file (SpillSink) until the
  /// segment resolves, is replayed into the caller's sink and freed. 0
  /// keeps segments fully in memory (unbounded). With a budget B, peak
  /// resident output of a sharded run is O(W x B) on top of the
  /// per-session windows, independent of document and projection size. A
  /// serial run writes straight into the caller's sinks and buffers
  /// nothing.
  size_t max_buffer_bytes = 0;
  core::EngineOptions engine;
};

/// How a sharded run actually executed; the substrate for the scaling
/// bench's "serial fraction" metric and the speculation tests. A run that
/// found no split point reads shards = 1, attempts = 0 and serial_bytes =
/// the bytes it read.
struct ShardReport {
  size_t shards = 0;             ///< segments the document was split into
  /// Later segments launched in the wave: those whose boundary opens a
  /// split keyword (in ShardedRun, every segment but the head).
  size_t speculated = 0;
  /// Attempts launched in the wave: the head plus one per speculated
  /// segment.
  size_t attempts = 0;
  size_t accepted = 0;           ///< speculative shards whose entry verified
  size_t reruns = 0;             ///< shards re-run sequentially after the wave
  /// Largest member-state set of the split keyword any segment speculated
  /// on (0 when none did).
  size_t candidate_states = 0;
  /// Behavior classes a speculated segment runs from: 1 when any segment
  /// speculated, else 0.
  size_t candidate_classes = 0;
  /// Bytes prefiltered on the calling thread outside the wave: re-runs,
  /// or the whole document when the run found no split point. The wave
  /// itself is perfectly parallel, so serial_bytes / document size bounds
  /// the Amdahl fraction of a sharded run. The keyword probe before the
  /// wave, which reads a few records per split target, is not counted.
  uint64_t serial_bytes = 0;
  /// Bytes prefiltered inside the parallel wave, including rejected
  /// speculative attempts (total wave work, not just accepted output).
  /// Early-kill makes this timing-dependent: a losing attempt contributes
  /// only the bytes it prefiltered before its cancellation token fired.
  uint64_t wave_bytes = 0;
  /// Losing attempts cancelled before they ran to completion (skipped
  /// outright or aborted at a session safe point). Timing-dependent; the
  /// deterministic counters above are what tests should assert on.
  size_t killed = 0;
  /// Wave attempts executed inline by the resolving thread because no
  /// worker had picked them up yet (their bytes count as wave work).
  size_t stolen = 0;
};

/// One segment's execution record: the session's exit checkpoint, stats,
/// and its buffered output segment. Accepted segments replay the serial
/// run exactly, so `exit` is provably the serial engine's checkpoint at
/// the segment's end offset.
struct ShardResult {
  /// Budget-bounded output segment; null once the caller moved it out to
  /// replay it. Single-query tables only; multi-query segments fill
  /// `mq_sinks` instead.
  std::unique_ptr<SpillSink> sink;
  /// Multi-query tables: one budget-bounded segment per unique query, in
  /// MultiQueryInfo order (the per-query budget is max_buffer_bytes divided
  /// by the query count). Moved out when replayed into the query's sink.
  std::vector<std::unique_ptr<SpillSink>> mq_sinks;
  /// This segment's matches and output bytes per unique query (one entry
  /// on single-query tables).
  std::vector<core::QueryRunStats> query_stats;
  core::RunStats stats;
  core::SessionCheckpoint exit;
  Status status;
  bool finished = false;  ///< reached a final DFA state
  bool clean = false;     ///< suspended in a plain keyword search
  uint64_t read_end = 0;  ///< absolute end of the bytes this run read
  std::vector<bool> visited;
  /// Inert, always equal: a segment is accepted only at copy depth 0, so
  /// no copy bytes are ever owed between two segments. Kept because
  /// smpx-bench/src still reads them.
  uint64_t tail_begin = 0;
  uint64_t tail_end = 0;
};

/// The speculative wave/verify machinery behind single-document sharding
/// (ShardedRun; smpx-bench's sharded phase probe assembles it by hand):
/// given a document cut into segments, it reads the element name at each
/// boundary and launches the head plus one attempt for every segment whose
/// boundary opens a split keyword, entering in one of the keyword's member
/// states, all in one parallel wave. It then resolves segments in order. A
/// segment's attempt is accepted when the predecessor drained cleanly
/// outside every copy and opaque region in one of the keyword's member
/// states and its initial jump did not carry its cursor past the boundary
/// over an occurrence of its state's keywords; any other segment -- a
/// losing attempt, or a boundary that opens no split keyword -- is re-run
/// from the predecessor's true checkpoint. The resolved sequence replays
/// the serial engine byte-for-byte no matter where the boundaries fall.
/// Every attempt captures its projected output in budget-bounded SpillSink
/// segments, so a wave holds O(shards x budget) output.
class SpeculativeResolver {
 public:
  struct Options {
    /// Inert (see ShardOptions::max_candidate_states).
    size_t max_candidate_states = 4;
    /// Per-segment SpillSink budget; 0 = unbounded.
    size_t max_buffer_bytes = 0;
    /// Shared spill file for budgeted segment sinks (see SpillArena); may
    /// be null (each overflowing sink then spills into a private arena of
    /// its own). Must outlive the resolver.
    SpillArena* arena = nullptr;
    core::EngineOptions engine;
  };

  /// `boundaries` are strictly increasing offsets inside `doc` (typically
  /// from ProbeKeywordBoundaries); segment k then covers
  /// [seg_begin(k), seg_begin(k+1)) with seg_begin(0) = 0 and the last
  /// segment ending at doc.size(). `tables` and `doc` must outlive the
  /// resolver.
  SpeculativeResolver(const core::RuntimeTables& tables, std::string_view doc,
                      const std::vector<uint64_t>& boundaries,
                      const Options& opts);

  /// Aborts and drains any attempts still in flight (see Abort).
  ~SpeculativeResolver();

  size_t segments() const { return seg_begin_.size() - 1; }
  uint64_t seg_begin(size_t k) const { return seg_begin_[k]; }

  /// Submits the head plus every speculative attempt to the pool and
  /// returns WITHOUT waiting -- resolution overlaps the wave. Call once,
  /// before Resolve; must not be called from a pool thread. `pool` must
  /// outlive the resolver.
  void LaunchWave(ThreadPool* pool);

  /// Resolves segment k and returns its record. Requires LaunchWave() and
  /// that segments < k are resolved; the caller must stop resolving after
  /// a segment whose status is non-OK or whose run finished (later bytes
  /// are ignored in a serial run, so later segments are meaningless), and
  /// should then Abort() to cancel the attempts that became moot.
  /// Resolution is incremental: an accepted segment waits only for its own
  /// attempt (running it inline if no worker has started it yet); a
  /// rejected one kills its attempt -- the session aborts at the next safe
  /// point and its buffered output is freed mid-wave, not after it -- and
  /// re-runs (the only sequential work) on the calling thread.
  ShardResult& Resolve(size_t k);

  /// Resolved segment records (valid for k already resolved).
  ShardResult& result(size_t k) { return results_[k]; }

  /// Cancels every unresolved attempt and blocks until all in-flight ones
  /// drained. Call before reading report() once resolution stops early
  /// (error, finished run), or to discard the wave wholesale; resolving
  /// after Abort is not allowed. Idempotent.
  void Abort();

  /// Execution metrics; shards/candidate fields are valid after
  /// construction, attempt counts after LaunchWave, and accept/rerun/kill
  /// counts grow as segments resolve. Only read it while no attempt is in
  /// flight (after the last Resolve plus Abort, or after all segments
  /// resolved and Abort returned): the wave mutates the work counters
  /// concurrently.
  const ShardReport& report() const { return report_; }

 private:
  /// One speculative attempt's slot. The wave task and the resolving
  /// thread meet here: `cancel` is the session's cooperative kill switch,
  /// the rest is guarded by mu_. Cache-line alignment keeps one attempt's
  /// hot state from false-sharing its neighbours' (slots are heap-
  /// allocated per attempt, written by whichever worker runs it).
  struct alignas(64) Attempt {
    std::atomic<bool> cancel{false};
    bool started = false;  ///< a thread owns the run (guarded by mu_)
    bool done = false;     ///< result is final (guarded by mu_)
    bool loser = false;    ///< resolved against; free on sight (mu_)
    size_t segment = 0;    ///< the segment it runs; 0 is the head
    core::SessionCheckpoint entry;  ///< assumed entry (not for the head)
    ShardResult result;
  };

  void RunSegment(size_t k, const core::SessionCheckpoint* start,
                  ShardResult* r, bool mark_start,
                  const std::atomic<bool>* cancel);
  /// Runs attempt `a` into its slot.
  void RunAttempt(Attempt* a);
  /// Pool task wrapper: skips killed-before-start attempts, publishes
  /// completion, frees the sink of an attempt that lost while running.
  void AttemptTask(size_t idx);
  /// Blocks until attempt `idx` is done, stealing the run onto the
  /// calling thread when no worker has claimed it yet.
  void WaitDone(size_t idx);
  /// mu_ held. Marks an attempt dead: a queued one never starts, a
  /// running session aborts at its next safe point, and its buffered
  /// output is freed as soon as it stops (immediately when already done).
  void KillLocked(Attempt* a);
  /// True when `exit` lies past segment k's boundary and the bytes its
  /// initial jump skipped hold an occurrence of its state's keywords.
  bool SkipsLiveBytes(size_t k, const core::SessionCheckpoint& exit) const;
  /// True when segment k's attempt replays the serial run after `prev`.
  bool Accepts(size_t k, const ShardResult& prev) const;

  const core::RuntimeTables& tables_;
  std::string_view doc_;
  std::vector<uint64_t> seg_begin_;  // segments()+1 fenceposts
  Options opts_;
  // Per segment: the split keyword whose element its boundary opens, or
  // -1 (the head, and boundaries that open none).
  std::vector<int> seg_keyword_;
  // Per segment: its attempt's index in attempts_, or kNoAttempt.
  std::vector<size_t> attempt_of_;
  std::vector<ShardResult> results_;
  std::vector<std::unique_ptr<Attempt>> attempts_;
  size_t outstanding_ = 0;  // submitted pool tasks not yet exited (mu_)
  std::mutex mu_;
  std::condition_variable cv_;
  ShardReport report_;
};

/// Prefilters `doc` by sharding it across `pool` at split keywords -- or,
/// when the tables have none or the probe finds no split point, as one
/// serial session on the calling thread -- writing one output per query:
/// `sinks` holds one sink per unique query of multi-query product tables
/// (MultiQueryInfo order; query::MultiQuery::RouteSinks builds them from
/// one sink per original query) and exactly one for single-query tables;
/// any other count fails with kInvalidArgument before any work.
/// Every query's output is byte-identical to its own serial run, and the
/// merged `stats` totals match RunEngine over the same document (up to
/// search-effort counters, which depend on window geometry). Every session
/// of a sharded run writes one SpillSink segment per query, bounded by its
/// worker's budget share (ShardOptions::max_buffer_bytes) split evenly
/// across the queries.
/// Segments resolve in document order on the calling thread, so each is
/// replayed straight into its query's sink (and freed) the moment its
/// entry is verified -- on an error, including a sink's own, the sinks
/// hold a prefix of the projection and the first error is returned.
/// `query_stats` (may be null) receives per-unique-query totals (one entry
/// for single-query tables); `stats` and `report` may be null. Must not be
/// called from a pool thread.
Status ShardedRun(const core::RuntimeTables& tables, std::string_view doc,
                  const std::vector<OutputSink*>& sinks,
                  std::vector<core::QueryRunStats>* query_stats,
                  core::RunStats* stats, ThreadPool* pool,
                  const ShardOptions& opts = {},
                  ShardReport* report = nullptr);

/// Single-sink form of the above (`{out}`, no per-query stats).
Status ShardedRun(const core::RuntimeTables& tables, std::string_view doc,
                  OutputSink* out, core::RunStats* stats, ThreadPool* pool,
                  const ShardOptions& opts = {},
                  ShardReport* report = nullptr);

/// Merges shard- or document-level RunStats into `dst` (counters add,
/// window peak maxes; states_visited is handled by the callers via the
/// sessions' visited() sets).
void MergeRunStats(core::RunStats* dst, const core::RunStats& src);

}  // namespace smpx::parallel

#endif  // SMPX_PARALLEL_SHARD_H_
