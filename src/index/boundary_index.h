// Boundary skip-index: random access into huge prefiltered documents.
//
// The paper's prefilter is strictly streaming -- entering a document at
// byte k requires prefiltering bytes [0, k) first. The static
// boundary-state analysis (RuntimeTables::boundary_states) plus the
// speculative wave/verify machinery (parallel::SpeculativeResolver) remove
// that restriction: one indexing pass runs the region-parallel top-level
// boundary scan, speculates every inter-boundary segment in a single
// parallel wave, and verifies the chain exit-vs-entry -- exactly the
// ShardedRun pipeline with the projected output discarded. What survives
// is, per boundary, the byte offset, the cumulative projected-output
// offset, and the verified SessionCheckpoint: provably the serial engine's
// state at that offset. A session resumed from any entry therefore
// projects the document's remainder byte-identically to the suffix of a
// full serial run (see cursor.h), without ever touching the prefix.
//
// On-disk format (version 2, little-endian, built for mmap-and-go):
//
//   offset  size  field
//        0     8  magic "SMPXBIX1"
//        8     4  version (2)
//       12     4  reserved (0)
//       16     8  document size in bytes
//       24     8  document content digest (Hash64 over the whole document)
//       32     8  RuntimeTables::Fingerprint() of the compiled tables
//       40     8  entry count
//       48     -  entries, LEB128 varints (see boundary_index.cc):
//                 offset delta, out_offset delta, state, cursor backset,
//                 nesting depth, copy depth, copy-flush backset, flags,
//                 record-ordinal delta, stats-prefix deltas (StatsPrefix
//                 field order)
//      end-8    8  Hash64 over every preceding byte of the file
//
// Version 2 added the per-entry record ordinal (count of top-level
// records preceding the boundary, enabling record-addressed seeks) and
// the cumulative StatsPrefix. Version-1 files fail closed on Load with
// Status::Unsupported -- the new fields cannot be reconstructed without
// re-running the indexing pass, and inventing zeros would silently turn
// record seeks and seek-point stats into lies. Rebuild old indexes.
//
// Loading validates structure (magic, version, monotonicity, exact
// trailing hash, no trailing bytes); *using* an index additionally
// requires Matches(doc, tables) -- size, content digest, and table
// fingerprint -- so a stale or foreign index fails closed with a clear
// Status instead of resuming into garbage.

#ifndef SMPX_INDEX_BOUNDARY_INDEX_H_
#define SMPX_INDEX_BOUNDARY_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/tables.h"
#include "parallel/thread_pool.h"

namespace smpx::index {

/// Cumulative run statistics of the indexing pass for the document prefix
/// before an entry, so a seek can report meaningful totals instead of
/// zeros. `matches` and `false_matches` are exact serial-run prefix
/// counts; the search-effort counters (comparisons, shifts, searches,
/// jumps, scan chars) are as executed by the indexing pass, which
/// restarts its keyword search at every indexed boundary -- within one
/// search-restart of the uninterrupted serial run, close enough for the
/// paper's percentage columns. Field order here is the on-disk varint
/// order.
struct StatsPrefix {
  uint64_t matches = 0;
  uint64_t false_matches = 0;
  uint64_t scan_chars = 0;
  uint64_t initial_jumps = 0;
  uint64_t initial_jump_chars = 0;
  uint64_t bm_searches = 0;
  uint64_t cw_searches = 0;
  uint64_t search_comparisons = 0;
  uint64_t search_shifts = 0;
  uint64_t search_shift_chars = 0;

  /// Snapshots the cumulative counters of `s` (a running total).
  static StatsPrefix FromRunStats(const core::RunStats& s);
  /// Adds this prefix onto `s`, e.g. to complete a resumed run's stats
  /// into whole-document totals.
  void AccumulateInto(core::RunStats* s) const;

  bool operator==(const StatsPrefix& o) const {
    return matches == o.matches && false_matches == o.false_matches &&
           scan_chars == o.scan_chars && initial_jumps == o.initial_jumps &&
           initial_jump_chars == o.initial_jump_chars &&
           bm_searches == o.bm_searches && cw_searches == o.cw_searches &&
           search_comparisons == o.search_comparisons &&
           search_shifts == o.search_shifts &&
           search_shift_chars == o.search_shift_chars;
  }
};

/// One indexed boundary: a resume point for random access.
struct IndexEntry {
  /// Byte offset of the '<' opening a top-level element (child of the
  /// document root).
  uint64_t offset = 0;
  /// Projected bytes the serial engine emits for the document prefix
  /// before this boundary; the resumed suffix starts at exactly this
  /// position of the full serial projection.
  uint64_t out_offset = 0;
  /// Number of top-level records (root children, bachelor tags included)
  /// starting strictly before `offset`; equivalently, the zero-based
  /// ordinal of the record that starts AT this boundary. Strictly
  /// increasing across entries.
  uint64_t record_ordinal = 0;
  /// The serial engine's resumable state at `offset` (cursor may trail the
  /// boundary by the keyword-overlap tail; see SessionCheckpoint).
  core::SessionCheckpoint checkpoint;
  /// Cumulative indexing-pass statistics for the prefix before `offset`.
  StatsPrefix stats;
};

struct BoundaryIndexOptions {
  /// Target byte spacing between consecutive index entries. The scan
  /// places one entry at the first top-level boundary at or after each
  /// `granularity_bytes`-spaced target, so entries are approximately this
  /// far apart; 1 indexes EVERY top-level boundary.
  uint64_t granularity_bytes = 1 << 20;
  /// Hard cap on the number of entries regardless of granularity.
  uint64_t max_entries = 1 << 20;
  /// See parallel::SpeculativeResolver::Options.
  size_t max_candidate_states = 4;
  /// Rolling-buffer size for the chunked (InputSource) build overload:
  /// peak resident memory of that path is O(chunk_bytes + window), never
  /// O(document). Ignored by the in-memory overload.
  uint64_t chunk_bytes = 64 << 20;
  core::EngineOptions engine;
};

class BoundaryIndex {
 public:
  /// Builds the index for `doc` against `tables` on `pool`: one
  /// region-parallel boundary scan plus one speculative verification wave
  /// over the whole document. Fails with the engine's Status if the
  /// document does not prefilter cleanly (the checkpoints of a broken run
  /// would be meaningless). Must not be called from a pool thread.
  static Result<BoundaryIndex> Build(const core::RuntimeTables& tables,
                                     std::string_view doc,
                                     parallel::ThreadPool* pool,
                                     const BoundaryIndexOptions& opts = {});

  /// Chunked build: streams `src` through a rolling buffer of
  /// `opts.chunk_bytes`, so documents larger than the address space (or
  /// any mmap window) can be indexed -- the resident set is
  /// O(chunk + engine window) regardless of document size. One serial
  /// pass: the structural boundary scan, the record count, the content
  /// digest, and the engine feed advance together, with the engine
  /// suspended exactly at each selected boundary to capture its
  /// checkpoint. Selects the same boundaries as the in-memory overload
  /// (same stride arithmetic, same structural rules) and agrees with it
  /// on every durable field -- offsets, projection offsets, record
  /// ordinals, checkpoints -- and on the exact StatsPrefix counters
  /// (matches, false matches); only the approximate search-effort
  /// counters differ, because the two builders suspend the engine with
  /// different histories. Chunked builds themselves are fully
  /// deterministic: any two chunk sizes (or sources) produce
  /// byte-identical files as long as no inter-entry span exceeds the
  /// chunk (a larger span forces an extra mid-span suspension, again
  /// perturbing only search counters). Reads the source about twice
  /// (scan + feed), trading I/O for bounded memory. `pool` may be null;
  /// the chunked path is single-threaded.
  static Result<BoundaryIndex> Build(const core::RuntimeTables& tables,
                                     const InputSource& src,
                                     parallel::ThreadPool* pool,
                                     const BoundaryIndexOptions& opts = {});

  /// Entries sorted by strictly increasing offset.
  const std::vector<IndexEntry>& entries() const { return entries_; }
  uint64_t doc_size() const { return doc_size_; }
  uint64_t doc_digest() const { return doc_digest_; }
  uint64_t tables_fingerprint() const { return tables_fingerprint_; }

  /// Index of the greatest entry with offset <= byte_target; -1 when the
  /// target precedes every entry (resume from the document start).
  int64_t FindEntry(uint64_t byte_target) const;

  /// Index of the greatest entry with record_ordinal <= record_target; -1
  /// when the target precedes every entry's ordinal (resume from the
  /// document start). With a granularity-1 index every record has an
  /// entry whose ordinal equals it exactly; coarser indexes land on the
  /// nearest preceding indexed boundary, like FindEntry does for bytes.
  int64_t FindRecord(uint64_t record_target) const;

  /// Fail-closed compatibility check: the document must have the indexed
  /// size and content digest, and `tables` the recorded fingerprint.
  Status Matches(std::string_view doc,
                 const core::RuntimeTables& tables) const;

  /// Serializes in the on-disk format (see file comment).
  Status Save(OutputSink* out) const;
  std::string Serialize() const;
  Status SaveToFile(const std::string& path) const;

  /// Parses and structurally validates a serialized index. Corrupted,
  /// truncated, or version-mismatched bytes fail closed; compatibility
  /// with a document/tables pair is checked separately via Matches().
  static Result<BoundaryIndex> Load(std::string_view bytes);
  static Result<BoundaryIndex> LoadFromFile(const std::string& path);

 private:
  std::vector<IndexEntry> entries_;
  uint64_t doc_size_ = 0;
  uint64_t doc_digest_ = 0;
  uint64_t tables_fingerprint_ = 0;
};

}  // namespace smpx::index

#endif  // SMPX_INDEX_BOUNDARY_INDEX_H_
