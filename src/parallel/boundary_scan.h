// Split-point finders: offsets of element starts a document can be cut at,
// found without parsing. Two finders serve two needs.
//
// The keyword probe (ProbeKeywordBoundaries) is the paper's approach
// applied to split points: a Boyer-Moore (one keyword) or Commentz-Walter
// (several) search, started at each split target, for the "<name" of
// elements whose entry state the tables know statically
// (core::SplitKeywords). Those are record-level names as often as root
// children -- XMark's "<person", "<item" and "<open_auction", MEDLINE's
// "<MedlineCitation" -- so the probe reads only from each target to the
// nearest delimited occurrence, typically a few hundred bytes. ShardedRun
// uses it whenever the tables carry split keywords, i.e. when the DTD
// guarantees that such an occurrence outside comments, CDATA sections, PIs
// and the DOCTYPE declaration opens an element whose entry class is known.
//
// The structural scan (ForEachTopLevelBoundary, FindTopLevelBoundaries and
// the region-parallel FindTopLevelBoundariesParallel) walks every tag and
// returns only top-level element starts (children of the root). It
// tracks element depth through comments, CDATA sections, processing
// instructions, DOCTYPE internal subsets and quoted attribute values, so a
// boundary never lands mid-tag or inside opaque markup, for any DTD. It is
// ShardedRun's finder when the tables carry no split keywords (a DTD with
// recursion, or no name with one entry class) and the boundary index's
// only one (index::BoundaryIndex::Build, one streaming pass over any
// InputSource), since the index needs every record, not a few split
// points. One scanner and one element walk serve all of its callers.
//
// Both are independent of the engine's window-based scanning in
// core/engine.cc. A boundary placed "wrong" relative to the engine's view
// -- a keyword inside a comment, or any boundary in a DTD-invalid document
// -- can only mis-speculate a shard (verification re-runs it) or put an
// index entry at a non-record offset (its checkpoint is still the engine's
// true state there). Correctness never depends on where boundaries fall,
// only throughput does.

#ifndef SMPX_PARALLEL_BOUNDARY_SCAN_H_
#define SMPX_PARALLEL_BOUNDARY_SCAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "parallel/thread_pool.h"
#include "strmatch/matcher.h"

namespace smpx::parallel {

/// Floor for the rolling buffer of a non-contiguous scan: the scanner peeks
/// up to 9 bytes ("<![CDATA[") and its pattern searches need room to make
/// progress past their overlap.
constexpr uint64_t kMinScanChunkBytes = 64;

/// Serial boundary selection over `src`: for each of `max_splits` evenly
/// spaced targets (stride size / (max_splits + 1)), the first top-level
/// element start at or after it; a selected boundary covers every target at
/// or before it. Calls `on_boundary(offset, records)` in increasing offset
/// order, where `records` counts the top-level element starts (bachelor
/// tags included) before `offset`; a false return stops the scan. Stops
/// after the last target, so nothing past the last selected boundary is
/// read. Contiguous sources are scanned in place; others through a rolling
/// buffer of `chunk_bytes` (at least kMinScanChunkBytes), so at most one
/// chunk is resident. Returns the source's read error, if any.
Status ForEachTopLevelBoundary(
    const InputSource& src, uint64_t chunk_bytes, uint64_t max_splits,
    const std::function<bool(uint64_t offset, uint64_t records)>&
        on_boundary);

/// Shard split points: at most `max_splits` strictly increasing offsets,
/// each the '<' of a child element of the document root, selected as in
/// ForEachTopLevelBoundary. Documents with few top-level children yield
/// fewer splits (possibly none).
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
/// byte-identical to the serial scanner as long as the element depth at
/// every interior region start stays within the scanner's relative range
/// (0 to 256); deeper nesting, or more closing than opening tags, may make
/// the two place boundaries differently (both remain safe: ShardedRun
/// verification never trusts a boundary). `scanned_bytes` (may
/// be null) receives the approximate number of document bytes the scan
/// actually consumed, the early-exit observable. Must not be called from a
/// pool thread.
std::vector<uint64_t> FindTopLevelBoundariesParallel(
    std::string_view doc, size_t max_splits, ThreadPool* pool,
    uint64_t* scanned_bytes = nullptr,
    bool = false);  // ignored; kept because smpx-bench/src still passes it

/// Keyword-search boundary selection: for each evenly spaced target, as in
/// ForEachTopLevelBoundary, the first occurrence at or after it of one of
/// `matcher`'s patterns ("<name" strings, typically core::SplitKeywords::
/// matcher()) followed by whitespace, '>' or '/'; a selected boundary
/// covers every target at or before it. Runs on the calling thread and
/// reads only from each target to its hit. With the root's child names for
/// patterns it equals FindTopLevelBoundaries when every such occurrence
/// opens a top-level element -- guaranteed for a DTD-valid document in
/// which those names occur nowhere else and none of them inside a comment,
/// CDATA section, PI or DOCTYPE declaration. A boundary that lands on such
/// an occurrence costs ShardedRun a re-run, never output.
std::vector<uint64_t> ProbeKeywordBoundaries(std::string_view doc,
                                             const strmatch::Matcher& matcher,
                                             size_t max_splits);

}  // namespace smpx::parallel

#endif  // SMPX_PARALLEL_BOUNDARY_SCAN_H_
