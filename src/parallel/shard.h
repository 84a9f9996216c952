// Single-document sharding: split one document at top-level element
// boundaries (children of the root) and prefilter the shards concurrently,
// one PrefilterSession per shard against the shared immutable RuntimeTables.
//
// Execution is *fully speculative*: the static boundary-state analysis of
// BuildTables (RuntimeTables::boundary_states) enumerates every DFA state a
// run can be in at a top-level boundary, so all shards -- including the
// document head -- launch in one parallel wave, each non-head shard once
// per candidate entry state. The verification pass resolves segments in
// order *while the wave is still running*: it accepts the run whose
// assumed entry matches its predecessor's actual exit, cancels the
// segment's losing attempts mid-flight (cooperative kill at session safe
// points, buffered output freed on the spot -- wave work is proportional
// to what speculation actually needed, not to shards x classes), and
// deterministically re-runs any shard whose speculation failed
// (mis-placed boundaries, hand-offs inside copy regions, opaque recursion
// balances, DTD-invalid input), so the merged output is ALWAYS
// byte-identical to the serial engine, no matter where the boundaries fall.
// Tables without a usable candidate set fall back to the PR-2 scheme that
// seeds speculation from shard 0's actual exit state.
//
// The boundary scan itself is off the critical path too: the document is
// cut into per-target regions that are scanned concurrently on the pool
// (relative element depths, unknown absolute base), and a cheap sequential
// fix-up resolves absolute depths region by region -- re-scanning only
// regions whose start lies inside a construct (comment/CDATA/DOCTYPE/tag)
// that straddles a region boundary.

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
#include "parallel/thread_pool.h"

namespace smpx::parallel {

struct ShardOptions {
  /// Upper bound on the number of shards; 0 means the pool size.
  size_t max_shards = 0;
  /// Largest number of *behavior classes* worth speculating on. Candidate
  /// states whose vocabulary and transitions coincide (they differ only in
  /// entry actions, which never re-fire at a resume point) are collapsed
  /// into one speculative run; every non-head shard runs once per class,
  /// so class counts beyond this bound cost more in wasted wave work than
  /// the removed serialization saves. Such tables fall back to exit-state
  /// speculation seeded by shard 0.
  size_t max_candidate_states = 4;
  /// Per-segment output buffering budget in bytes; a shard's projected
  /// output beyond it overflows to an unlinked temp file (SpillSink) until
  /// the ordered-commit frontier streams the segment into the caller's
  /// sink and frees it. 0 keeps segments fully in memory (unbounded, the
  /// pre-budget behavior). With a budget B, peak resident memory of a
  /// sharded run is O(shards x classes x B) on top of the per-session
  /// windows, independent of document and projection size.
  size_t max_buffer_bytes = 0;
  core::EngineOptions engine;
};

/// How a sharded run actually executed; the substrate for the scaling
/// bench's "serial fraction" metric and the speculation tests.
struct ShardReport {
  size_t shards = 0;             ///< segments the document was split into
  size_t speculated = 0;         ///< non-head shards launched in the wave
  size_t accepted = 0;           ///< speculative shards whose entry verified
  size_t reruns = 0;             ///< shards re-run sequentially after the wave
  size_t candidate_states = 0;   ///< boundary candidate set size (0 = dynamic)
  size_t candidate_classes = 0;  ///< behavior classes speculated per shard
  /// Bytes prefiltered on the sequential verification path (re-runs, plus
  /// shard 0 in dynamic-fallback mode). The wave itself is perfectly
  /// parallel, so serial_bytes / document size bounds the Amdahl fraction
  /// of a sharded run (the memchr boundary scan is not counted; it runs
  /// region-parallel and costs a small constant per byte).
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
  /// Accepted speculative shards whose entry sat inside an active copy
  /// region (hand-off at copy depth > 0). Before (state, depth) candidates
  /// these were forced re-runs; now they ride the wave like clean ones.
  size_t copy_handoffs = 0;
};

/// One segment's execution record: the session's exit checkpoint, stats,
/// and (in capture mode) its buffered output segment. Accepted segments
/// replay the serial run exactly, so `exit` is provably the serial
/// engine's checkpoint at the segment's end offset.
struct ShardResult {
  /// Budget-bounded output segment; null in discard mode (indexing) and
  /// after the caller moved it into an ordered committer. Single-query
  /// tables only; multi-query segments fill `mq_sinks` instead.
  std::unique_ptr<SpillSink> sink;
  /// Multi-query tables: one budget-bounded segment per unique query, in
  /// MultiQueryInfo order (the per-query budget is max_buffer_bytes divided
  /// by the query count). Moved out by the per-query ordered committers.
  std::vector<std::unique_ptr<SpillSink>> mq_sinks;
  /// Multi-query tables: this segment's per-query matches/output bytes.
  std::vector<core::QueryRunStats> mq_stats;
  core::RunStats stats;
  core::SessionCheckpoint exit;
  Status status;
  bool finished = false;  ///< reached a final DFA state
  bool clean = false;     ///< suspended in a plain keyword search
  uint64_t read_end = 0;  ///< absolute end of the bytes this run read
  std::vector<bool> visited;
  /// Hand-off tail [tail_begin, tail_end): copy-region bytes the
  /// predecessor's suspension left unflushed when this segment was accepted
  /// speculatively at copy depth > 0. The speculative session started with
  /// copy_flushed at the boundary, so its own output omits them; the driver
  /// must emit doc[tail_begin, tail_end) immediately BEFORE this segment's
  /// sink. The bytes are already folded into stats.output_bytes (serial
  /// parity); empty for clean hand-offs and re-runs (a re-run resumes from
  /// the true checkpoint and emits them itself).
  uint64_t tail_begin = 0;
  uint64_t tail_end = 0;
};

/// The speculative wave/verify machinery shared by single-document
/// sharding (ShardedRun) and boundary-index construction
/// (index::BoundaryIndex::Build): given a document cut at top-level
/// boundaries into segments, it launches every segment in one parallel
/// wave -- the head for real, each later segment once per candidate entry
/// *behavior class* from the static boundary-state analysis -- and then
/// resolves segments in order, accepting the attempt whose assumed entry
/// matches the predecessor's verified exit and deterministically re-running
/// the segment otherwise. The resolved sequence replays the serial engine
/// byte-for-byte no matter where the boundaries fall or how speculation
/// fared; tables without a usable candidate set fall back to seeding
/// speculation from the head's actual exit state (the PR-2 scheme).
class SpeculativeResolver {
 public:
  struct Options {
    /// See ShardOptions::max_candidate_states.
    size_t max_candidate_states = 4;
    /// Per-segment SpillSink budget in capture mode; 0 = unbounded.
    size_t max_buffer_bytes = 0;
    /// Capture each segment's projected output in ShardResult::sink.
    /// False discards output (byte counts still reach the stats) -- the
    /// indexing mode, which only wants the verified exit checkpoints.
    bool capture_output = true;
    /// Shared spill file for budgeted segment sinks (see SpillArena); may
    /// be null (each overflowing sink then opens its own tmpfile). Must
    /// outlive the resolver.
    SpillArena* arena = nullptr;
    core::EngineOptions engine;
  };

  /// `boundaries` are strictly increasing offsets inside `doc` (typically
  /// from FindTopLevelBoundaries*); segment k then covers
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
  /// returns WITHOUT waiting -- resolution overlaps the wave. In
  /// dynamic-fallback mode the head runs synchronously on the calling
  /// thread first (its exit seeds the attempts), then the attempts are
  /// submitted. Call once, before Resolve; must not be called from a pool
  /// thread. `pool` must outlive the resolver.
  void LaunchWave(ThreadPool* pool);

  /// Resolves segment k and returns its record. Requires LaunchWave() and
  /// that segments < k are resolved; the caller must stop resolving after
  /// a segment whose status is non-OK or whose run finished (later bytes
  /// are ignored in a serial run, so later segments are meaningless), and
  /// should then Abort() to cancel the attempts that became moot.
  /// Resolution is incremental: this waits only for the one attempt the
  /// predecessor's exit selects (running it inline if no worker has
  /// started it yet) and immediately kills the segment's losing attempts
  /// -- their sessions abort at the next safe point and their buffered
  /// output is freed mid-wave, not after it. Re-runs (the only sequential
  /// work) execute on the calling thread.
  ShardResult& Resolve(size_t k);

  /// Resolved segment records (valid for k already resolved).
  ShardResult& result(size_t k) { return results_[k]; }

  /// Cancels every unresolved attempt and blocks until all in-flight ones
  /// drained. Call before reading report() once resolution stops early
  /// (error, finished run), or to discard the wave wholesale; resolving
  /// after Abort is not allowed. Idempotent.
  void Abort();

  /// Execution metrics; shards/candidate fields are valid after
  /// LaunchWave, accept/rerun/kill counts grow as segments resolve. Only
  /// read it while no attempt is in flight (after the last Resolve plus
  /// Abort, or after all segments resolved and Abort returned): the wave
  /// mutates the work counters concurrently.
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
    ShardResult result;
  };

  void RunSegment(size_t k, const core::SessionCheckpoint* start,
                  ShardResult* r, bool mark_start,
                  const std::atomic<bool>* cancel);
  /// Replays the launch parameters of attempt `idx` (segment, entry
  /// checkpoint, visited marking) into its slot.
  void RunAttempt(size_t idx, Attempt* a);
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
  size_t AttemptIndex(size_t k, size_t c) const {
    return static_spec_ ? 1 + (k - 1) * class_reps_.size() + c : k - 1;
  }

  const core::RuntimeTables& tables_;
  std::string_view doc_;
  std::vector<uint64_t> seg_begin_;  // segments()+1 fenceposts
  Options opts_;
  std::vector<int> class_reps_;        // representative state per class
  std::vector<int> class_rep_depths_;  // entry copy depth per class
  std::vector<size_t> class_of_;       // candidate index -> class
  bool static_spec_ = false;
  bool dynamic_spec_ = false;
  core::SessionCheckpoint dynamic_guess_;
  std::vector<ShardResult> results_;
  std::vector<std::unique_ptr<Attempt>> attempts_;
  size_t outstanding_ = 0;  // submitted pool tasks not yet exited (mu_)
  std::mutex mu_;
  std::condition_variable cv_;
  ShardReport report_;
};

/// Structural scan for shard split points: returns at most `max_splits`
/// strictly increasing offsets, each the position of the '<' opening a
/// child element of the document root at the first top-level boundary at
/// or after the corresponding evenly spaced target offset. The scan is
/// memchr-driven and tracks element depth through comments, CDATA
/// sections, processing instructions, DOCTYPE internal subsets, and quoted
/// attribute values, so a candidate never lands mid-tag or inside opaque
/// markup. Documents with few top-level children simply yield fewer splits
/// (possibly none).
std::vector<uint64_t> FindTopLevelBoundaries(std::string_view doc,
                                             size_t max_splits);

/// Region-parallel variant of FindTopLevelBoundaries: each target's region
/// is scanned concurrently on `pool` (relative depths), then a sequential
/// fix-up resolves absolute depths and selects the same boundaries the
/// serial scan would. The tail region past the last split target is not
/// part of the wave: it is scanned lazily after the fix-up (its absolute
/// entry depth is then known) and the scan stops at the first top-level
/// element start, which covers every remaining target -- so, like the
/// serial scanner, nothing past the last selected boundary is ever read.
/// A pool of one worker delegates to the serial scan outright. Results are
/// byte-identical to the serial scanner for well-formed documents whose
/// element depth at interior region starts stays within the scanner's
/// relative range (256); outside that -- or on non-well-formed input --
/// the two scanners may place boundaries differently (both remain safe:
/// ShardedRun verification never trusts a boundary). `scanned_bytes` (may
/// be null) receives the approximate number of document bytes the scan
/// actually consumed, the early-exit observable. Must not be called from
/// a pool thread.
std::vector<uint64_t> FindTopLevelBoundariesParallel(
    std::string_view doc, size_t max_splits, ThreadPool* pool,
    uint64_t* scanned_bytes = nullptr,
    bool = false);  // ignored; kept because smpx-bench/src still passes it

/// Counts top-level record starts -- element starts (opening or bachelor
/// tags) whose parent is the document root -- in doc[begin, end), using
/// the same structural rules as FindTopLevelBoundaries. `depth_at_begin`
/// is the number of elements open at `begin` (0 at the document start, 1
/// at a top-level boundary), and the scan must enter at a content
/// position, which every top-level boundary is. Construct skips use the
/// full document, but no construct straddles a top-level boundary, so
/// per-segment counts over a boundary partition sum exactly. Feeds the
/// boundary index's record ordinals.
uint64_t CountTopLevelStarts(std::string_view doc, uint64_t begin,
                             uint64_t end, int64_t depth_at_begin);

/// Prefilters `doc` by sharding it across `pool`. Output and the merged
/// `stats` totals are byte-identical to RunEngine over the same document
/// (up to search-effort counters, which depend on window geometry).
/// Every session writes through a per-segment SpillSink bounded by
/// ShardOptions::max_buffer_bytes; the verification pass commits each
/// segment into `out` (and frees it) the moment its entry is verified, so
/// `out` receives the projection as an in-order stream while verification
/// is still running -- on an error, `out` may hold a partial prefix.
/// `stats` and `report` may be null. Must not be called from a pool thread.
Status ShardedRun(const core::RuntimeTables& tables, std::string_view doc,
                  OutputSink* out, core::RunStats* stats, ThreadPool* pool,
                  const ShardOptions& opts = {},
                  ShardReport* report = nullptr);

/// Sharded execution of multi-query product tables (`tables.multi` set):
/// same speculative wave/verify machinery as ShardedRun, but every segment
/// session writes one budget-bounded SpillSink PER UNIQUE QUERY and each
/// query's segments stream through their own ordered-commit frontier into
/// `query_sinks[u]` (one sink per unique query, MultiQueryInfo order). Every
/// query's output is byte-identical to its independent single-query serial
/// run. `query_stats` (may be null) receives per-unique-query totals;
/// `stats`/`report` as in ShardedRun. Must not be called from a pool thread.
Status MultiQueryShardedRun(const core::RuntimeTables& tables,
                            std::string_view doc,
                            const std::vector<OutputSink*>& query_sinks,
                            std::vector<core::QueryRunStats>* query_stats,
                            core::RunStats* stats, ThreadPool* pool,
                            const ShardOptions& opts = {},
                            ShardReport* report = nullptr);

/// Merges shard- or document-level RunStats into `dst` (counters add,
/// window peak maxes; states_visited is handled by the callers via the
/// sessions' visited() sets).
void MergeRunStats(core::RunStats* dst, const core::RunStats& src);

}  // namespace smpx::parallel

#endif  // SMPX_PARALLEL_SHARD_H_
