// Resumable random-access cursor over an indexed document: the
// server-side pagination primitive the boundary index exists for.
//
// A cursor is a PrefilterSession seeded from a verified index checkpoint.
// OpenAt(byte_target) resumes at the greatest indexed boundary at or
// before the target (the document start when none precedes it) and then
// projects forward; everything it emits is byte-identical to the
// corresponding suffix of a full serial run -- output_position() says
// where in the serial projection that suffix starts. Next(n) advances n
// indexed spans (with a granularity-1 index: n top-level records) and
// stops exactly on a boundary, so a cursor can be converted to a compact
// token at any pause and restored later -- by a different process against
// the same document, index, and compiled tables -- without losing a byte.
// Tokens, like the index itself, carry the document digest and table
// fingerprint plus a trailing content hash: a token from another document,
// another compilation, or a tampered byte stream fails closed.
//
// The index, tables, and document views passed to OpenAt/Restore must
// outlive the cursor.

#ifndef SMPX_INDEX_CURSOR_H_
#define SMPX_INDEX_CURSOR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/io.h"
#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/tables.h"
#include "index/boundary_index.h"

namespace smpx::index {

struct CursorOptions {
  core::EngineOptions engine;
  /// Verify index <-> document/tables compatibility on open (full
  /// content digest over the document). Disable only when the caller
  /// already ran BoundaryIndex::Matches on this exact triple.
  bool verify_document = true;
};

class Cursor {
 public:
  /// Opens a cursor at the greatest indexed boundary at or before
  /// `byte_target`; a target before the first boundary (or an entry-less
  /// index) resumes from the document start. Fails closed when the index
  /// does not match the document or tables.
  static Result<Cursor> OpenAt(const BoundaryIndex& index,
                               const core::RuntimeTables& tables,
                               std::string_view doc, uint64_t byte_target,
                               const CursorOptions& opts = {});

  /// Record-addressed variant: opens at the greatest indexed boundary
  /// whose record ordinal is at or before `record_target` (the document
  /// start when none is). With a granularity-1 index this positions the
  /// cursor exactly at record `record_target`; a coarser index lands at
  /// the nearest preceding indexed boundary, mirroring OpenAt's byte
  /// semantics. Requires a version-2 index (ordinals are always present
  /// there; version-1 files no longer load at all).
  static Result<Cursor> OpenAtRecord(const BoundaryIndex& index,
                                     const core::RuntimeTables& tables,
                                     std::string_view doc,
                                     uint64_t record_target,
                                     const CursorOptions& opts = {});

  /// Restores a cursor from a SaveToken() string minted over the same
  /// (document, index, tables) triple; corrupted, foreign, or stale
  /// tokens fail closed with a clear Status.
  static Result<Cursor> Restore(const BoundaryIndex& index,
                                const core::RuntimeTables& tables,
                                std::string_view doc, std::string_view token,
                                const CursorOptions& opts = {});

  /// Projects the next `n_spans` indexed spans into `out` (which may be
  /// null to discard) and suspends on the boundary after them; the last
  /// span of the document extends to the end of the projection. Returns
  /// the number of spans consumed: 0 when the cursor was already at the
  /// end, fewer than requested when fewer spans remained (reaching the
  /// projection's end inside the range still counts the requested spans).
  Result<size_t> Next(size_t n_spans, OutputSink* out);

  /// Projects everything from the cursor to the end of the document.
  Status Drain(OutputSink* out);

  /// True when the projection is complete; Next/Drain emit nothing.
  bool at_end() const { return finished_; }
  /// Document offset of the cursor's resume point (a boundary offset, 0
  /// at the start, doc size at the end).
  uint64_t position() const { return pos_; }
  /// Offset into the full serial projection where this cursor's next
  /// output byte belongs.
  uint64_t output_position() const { return out_pos_; }
  /// Index of the first index entry strictly ahead of the cursor.
  size_t next_entry() const { return next_entry_; }
  /// Record ordinal of the boundary the cursor last resumed from or
  /// paused at (0 at the document start). Exact while the cursor sits on
  /// an indexed boundary; once at_end() it keeps reporting the last
  /// boundary's ordinal.
  uint64_t record_position() const {
    return next_entry_ == 0
               ? 0
               : index_->entries()[next_entry_ - 1].record_ordinal;
  }
  /// Cumulative indexing-pass statistics for the document prefix before
  /// the boundary of record_position() (all-zero at the document start);
  /// lets a seek report whole-document-so-far totals instead of only the
  /// resumed suffix's.
  StatsPrefix stats_prefix() const {
    return next_entry_ == 0
               ? StatsPrefix{}
               : index_->entries()[next_entry_ - 1].stats;
  }

  /// Serializes the cursor state (not the session's window -- cursors
  /// pause only at checkpoints) into a compact opaque token.
  std::string SaveToken() const;

 private:
  Cursor(const BoundaryIndex* index, const core::RuntimeTables* tables,
         std::string_view doc, const CursorOptions& opts)
      : index_(index), tables_(tables), doc_(doc), opts_(opts) {}

  /// OpenAt and OpenAtRecord past their lookup: opens at index entry `j`,
  /// or at the document start when j < 0.
  static Result<Cursor> OpenAtEntry(const BoundaryIndex& index,
                                    const core::RuntimeTables& tables,
                                    std::string_view doc, int64_t j,
                                    const CursorOptions& opts);

  /// Feeds the document up to `feed_end` through a session resumed from
  /// the current checkpoint, forwarding output; with `to_eof` the bytes go
  /// to Finish, which closes the run (final-state checks).
  Status Advance(uint64_t feed_end, bool to_eof, OutputSink* out);

  const BoundaryIndex* index_;
  const core::RuntimeTables* tables_;
  std::string_view doc_;
  CursorOptions opts_;
  bool from_scratch_ = false;  ///< at offset 0, prolog not yet skipped
  core::SessionCheckpoint ckpt_;
  size_t next_entry_ = 0;
  uint64_t pos_ = 0;
  uint64_t out_pos_ = 0;
  bool finished_ = false;
};

}  // namespace smpx::index

#endif  // SMPX_INDEX_CURSOR_H_
