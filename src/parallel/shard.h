// Single-document sharding: split one document at element boundaries and
// prefilter the shards concurrently, one PrefilterSession per shard against
// the shared immutable RuntimeTables.
//
// Split points come from a keyword search when the DTD allows one: the
// tables' split keywords (core::SplitKeywords -- "<name" of every element
// whose entry state is one behavior class at copy depth 0, wherever it
// sits: XMark's "<person", "<item", "<open_auction", MEDLINE's
// "<MedlineCitation") are probed with one BM/CW matcher from each split
// target (ProbeKeywordBoundaries, parallel/boundary_scan.h), which reads a
// few hundred bytes per target. The matcher is built on the first sharded
// run over the tables and reused by every later one. Tables without split
// keywords (a DTD with recursion, or no name with one entry class) fall
// back to the structural scan for top-level elements, cut into per-target
// regions scanned concurrently on the pool (FindTopLevelBoundariesParallel).
//
// Execution is *fully speculative*: every shard -- the document head
// included -- launches in one parallel wave. A shard whose boundary opens
// a split keyword runs once, from the keyword's class; any other boundary
// is taken for a top-level one and runs once per behavior class of the
// static boundary-state analysis (RuntimeTables::boundary_states). The
// verification pass resolves segments in order *while the wave is still
// running*: it accepts the run whose assumed entry matches its
// predecessor's actual exit, cancels the segment's losing attempts
// mid-flight (cooperative kill at session safe points, buffered output
// freed on the spot), and deterministically re-runs any shard whose
// speculation failed (mis-placed boundaries, an initial jump past the
// boundary over live keywords, hand-offs inside copy regions of product
// tables, opaque recursion balances, DTD-invalid input), so the merged
// output is ALWAYS byte-identical to the serial engine, no matter where
// the boundaries fall. Tables without a usable candidate set fall back to
// seeding speculation from shard 0's actual exit state.

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
  /// Upper bound on the number of shards; 0 means the pool size.
  size_t max_shards = 0;
  /// Largest number of top-level *behavior classes* worth speculating on.
  /// Candidate states whose vocabulary and transitions coincide (they
  /// differ only in entry actions, which never re-fire at a resume point)
  /// are collapsed into one speculative run; a shard whose boundary does
  /// not open a split keyword runs once per class, so class counts beyond
  /// this bound cost more in wasted wave work than the removed
  /// serialization saves. Such runs fall back to exit-state speculation
  /// seeded by shard 0 (split-keyword boundaries need no classes).
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
  /// Attempts launched in the wave: the head plus one per later segment
  /// whose boundary opens a split keyword and one per candidate class of
  /// every other; in dynamic-fallback mode (head run first, on the
  /// calling thread) one per later segment.
  size_t attempts = 0;
  size_t accepted = 0;           ///< speculative shards whose entry verified
  size_t reruns = 0;             ///< shards re-run sequentially after the wave
  /// Largest candidate-state set any segment speculated on (0 = dynamic).
  size_t candidate_states = 0;
  /// Most behavior classes any segment speculated on (0 = dynamic).
  size_t candidate_classes = 0;
  /// Bytes prefiltered on the sequential verification path (re-runs, plus
  /// shard 0 in dynamic-fallback mode). The wave itself is perfectly
  /// parallel, so serial_bytes / document size bounds the Amdahl fraction
  /// of a sharded run. The boundary search before the wave is not counted:
  /// the keyword probe reads a few records per split target, and the
  /// structural fallback runs region-parallel.
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
/// and its buffered output segment. Accepted segments replay the serial
/// run exactly, so `exit` is provably the serial engine's checkpoint at
/// the segment's end offset.
struct ShardResult {
  /// Budget-bounded output segment; null after the caller moved it into an
  /// ordered committer. Single-query tables only; multi-query segments
  /// fill `mq_sinks` instead.
  std::unique_ptr<SpillSink> sink;
  /// Multi-query tables: one budget-bounded segment per unique query, in
  /// MultiQueryInfo order (the per-query budget is max_buffer_bytes divided
  /// by the query count). Moved out by the per-query ordered committers.
  std::vector<std::unique_ptr<SpillSink>> mq_sinks;
  /// This segment's matches and output bytes per unique query (one entry
  /// on single-query tables, hand-off tail included).
  std::vector<core::QueryRunStats> query_stats;
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

/// The speculative wave/verify machinery behind single-document sharding
/// (ShardedRun; smpx-bench's sharded phase probe assembles it by hand):
/// given a document cut into segments, it reads the element name at each
/// boundary and launches every segment in one parallel wave -- the head
/// for real, a segment whose boundary opens a split keyword once from that
/// keyword's class, any other segment once per top-level candidate entry
/// *behavior class* from the static boundary-state analysis -- and then
/// resolves segments in order, accepting the attempt whose assumed entry
/// matches the predecessor's verified exit and deterministically re-running
/// the segment otherwise. A split-keyword attempt is accepted when the
/// predecessor drained cleanly outside every copy and opaque region in one
/// of the keyword's member states, and every attempt only when the
/// predecessor's initial jump did not carry its cursor past the boundary
/// over an occurrence of its state's keywords. The resolved sequence
/// replays the serial engine byte-for-byte no matter where the boundaries
/// fall or how speculation fared; tables without a usable candidate set
/// fall back to seeding speculation from the head's actual exit state.
/// Every attempt captures its projected output in budget-bounded SpillSink
/// segments.
class SpeculativeResolver {
 public:
  struct Options {
    /// See ShardOptions::max_candidate_states.
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
  /// from ProbeKeywordBoundaries or FindTopLevelBoundaries*); segment k
  /// then covers [seg_begin(k), seg_begin(k+1)) with seg_begin(0) = 0 and
  /// the last segment ending at doc.size(). `tables` and `doc` must
  /// outlive the resolver.
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
    size_t segment = 0;    ///< the segment it runs; 0 is the head
    core::SessionCheckpoint entry;  ///< assumed entry (not for the head)
    bool mark_start = false;        ///< count the entry state as visited
    ShardResult result;
  };

  void RunSegment(size_t k, const core::SessionCheckpoint* start,
                  ShardResult* r, bool mark_start,
                  const std::atomic<bool>* cancel);
  /// Runs attempt `a` into its slot.
  void RunAttempt(Attempt* a);
  /// Appends an attempt of segment k entering in `entry`'s state, copy
  /// depth and per-query vectors at the segment's first byte.
  void AddAttempt(size_t k, core::SessionCheckpoint entry, bool mark_start);
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
  /// Which of segment k's attempts (0-based within the segment) replays
  /// the serial run after `prev`, or ~0 when none does.
  size_t MatchingAttempt(size_t k, const ShardResult& prev) const;

  const core::RuntimeTables& tables_;
  std::string_view doc_;
  std::vector<uint64_t> seg_begin_;  // segments()+1 fenceposts
  Options opts_;
  std::vector<int> class_reps_;        // representative state per class
  std::vector<int> class_rep_depths_;  // entry copy depth per class
  std::vector<size_t> class_of_;       // candidate index -> class
  // Per segment: the split keyword whose element its boundary opens, or
  // -1 (the head; boundaries speculated over the top-level classes).
  std::vector<int> seg_keyword_;
  // Per segment: its first attempt in attempts_, segments()+1 fenceposts;
  // empty when no attempt was launched.
  std::vector<size_t> first_attempt_;
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

/// Prefilters `doc` by sharding it across `pool`, writing one output per
/// query: `sinks` holds one sink per unique query of multi-query product
/// tables (MultiQueryInfo order; query::MultiQuery::RouteSinks builds them
/// from one sink per original query) and exactly one for single-query
/// tables; any other count fails with kInvalidArgument before any work.
/// Every query's output is byte-identical to its own serial run, and the
/// merged `stats` totals match RunEngine over the same document (up to
/// search-effort counters, which depend on window geometry). Every session
/// writes one SpillSink segment per query, bounded by
/// ShardOptions::max_buffer_bytes split evenly across the queries; each
/// query's segments stream through their own ordered-commit frontier, so a
/// segment reaches its sink (and is freed) the moment its entry is
/// verified -- on an error, the sinks may hold a partial prefix.
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
