// Exhaustive tests for the boundary skip-index and its cursors:
//  - random access at EVERY top-level boundary of XMark and MEDLINE
//    documents (granularity-1 index, built in place and through rolling
//    buffers at several chunk sizes) drains byte-identically to the
//    corresponding suffix of the serial projection, with the index's
//    projection offsets agreeing with the drained byte counts;
//  - the granularity-1 entry offsets and record ordinals are exactly the
//    tokenizer's top-level element starts, on generated documents and on
//    hand-built construct edges (comments, CDATA, PIs, DOCTYPE subsets,
//    quoted '>' and '/', bachelor tags) under every SIMD tier, with
//    constructs straddling the rolling buffer's refills;
//  - cursor pagination (Next) re-assembles the serial projection from
//    spans, and serialized cursor tokens restore mid-stream without
//    losing or duplicating a byte;
//  - persistence round-trips through Save/Load; corrupted, truncated,
//    version-bumped, over-counted, stale-digest, and stale-tables index
//    files (and tampered cursor tokens) all fail closed with a clear
//    Status, never wrong bytes;
//  - one cursor step at smpxd's 1 MiB default window requests under
//    64 KiB from the heap (a byte count from a counting operator new), and
//    a RunEngine run over a resident 4 MB document well under one of its
//    1 MiB read pieces.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/io.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/boundary_scan.h"
#include "simd/simd.h"
#include "xml/tokenizer.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

// A counting global operator new for the allocation guard below: while
// g_count_new is set, every byte requested from the heap is tallied.
namespace {
std::atomic<bool> g_count_new{false};
std::atomic<uint64_t> g_new_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_new.load(std::memory_order_relaxed)) {
    g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace smpx::index {
namespace {

core::Prefilter CompileXmark() {
  auto paths = paths::ProjectionPath::ParseList(
      "/site/people/person@ /site/people/person/name#");
  EXPECT_TRUE(paths.ok());
  auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(), std::move(*paths));
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

core::Prefilter CompileMedline() {
  auto paths = paths::ProjectionPath::ParseList(
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
      "/MedlineCitationSet/MedlineCitation/DateCompleted#");
  EXPECT_TRUE(paths.ok());
  auto pf = core::Prefilter::Compile(xmlgen::MedlineDtd(), std::move(*paths));
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

std::string XmarkDoc(uint64_t bytes) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = bytes;
  gen.seed = 5;
  return xmlgen::GenerateXmark(gen);
}

std::string MedlineDoc(uint64_t bytes) {
  xmlgen::MedlineOptions gen;
  gen.target_bytes = bytes;
  gen.seed = 5;
  return xmlgen::GenerateMedline(gen);
}

/// Byte offsets of every top-level element start per the full tokenizer;
/// ground truth for the granularity-1 entry set.
std::vector<uint64_t> TokenizerTopLevelStarts(std::string_view doc) {
  std::vector<uint64_t> starts;
  xml::Tokenizer tok(doc);
  xml::Token t;
  int64_t depth = 0;
  while (tok.Next(&t)) {
    switch (t.type) {
      case xml::TokenType::kStartTag:
        if (depth == 1) starts.push_back(t.begin);
        ++depth;
        break;
      case xml::TokenType::kEmptyTag:
        if (depth == 1) starts.push_back(t.begin);
        break;
      case xml::TokenType::kEndTag:
        --depth;
        break;
      default:
        break;
    }
  }
  return starts;
}

/// A source that hides its contiguity, forcing the rolling-buffer reads a
/// file too large to map would take.
class RollingSource : public MemorySource {
 public:
  using MemorySource::MemorySource;
  std::string_view Contiguous() const override { return {}; }
};

/// Builds over `doc` read in place (`contiguous`) or through rolling
/// buffers of `chunk` bytes.
Result<BoundaryIndex> BuildIndex(
    const core::Prefilter& pf, std::string_view doc, uint64_t granularity,
    bool contiguous = true,
    uint64_t chunk = BoundaryIndexOptions{}.chunk_bytes) {
  BoundaryIndexOptions opts;
  opts.granularity_bytes = granularity;
  opts.chunk_bytes = chunk;
  if (contiguous) {
    return BoundaryIndex::Build(pf.tables(), MemorySource(doc), opts);
  }
  return BoundaryIndex::Build(pf.tables(), RollingSource(doc), opts);
}

Result<BoundaryIndex> BuildEveryBoundary(const core::Prefilter& pf,
                                         const std::string& doc) {
  return BuildIndex(pf, doc, /*granularity=*/1);
}

/// Oracle for an index of any granularity over `doc`: every entry sits on
/// a tokenizer top-level element start and carries that start's ordinal,
/// and a cursor opened there drains exactly the serial projection's suffix
/// from the entry's projection offset.
void ExpectEntriesResume(const core::Prefilter& pf, const std::string& doc,
                         const BoundaryIndex& idx) {
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(idx.doc_size(), doc.size());
  EXPECT_TRUE(idx.Matches(doc, pf.tables()).ok());
  const std::vector<uint64_t> truth = TokenizerTopLevelStarts(doc);
  for (size_t i = 0; i < idx.entries().size(); ++i) {
    const IndexEntry& e = idx.entries()[i];
    auto at = std::lower_bound(truth.begin(), truth.end(), e.offset);
    ASSERT_TRUE(at != truth.end() && *at == e.offset)
        << "entry " << i << " at " << e.offset
        << " is not a top-level element start";
    EXPECT_EQ(e.record_ordinal, static_cast<uint64_t>(at - truth.begin()))
        << "entry " << i;
    auto cur = Cursor::OpenAt(idx, pf.tables(), doc, e.offset);
    ASSERT_TRUE(cur.ok()) << cur.status().ToString();
    EXPECT_EQ(cur->position(), e.offset);
    EXPECT_EQ(cur->output_position(), e.out_offset);
    ASSERT_LE(e.out_offset, serial->size()) << "entry " << i;
    StringSink sink;
    ASSERT_TRUE(cur->Drain(&sink).ok());
    EXPECT_EQ(sink.str(), serial->substr(static_cast<size_t>(e.out_offset)))
        << "resume at entry " << i << " (offset " << e.offset
        << ") diverged from the serial suffix";
    EXPECT_TRUE(cur->at_end());
    EXPECT_EQ(cur->output_position(), serial->size());
  }
}

/// The core differential property at every boundary of `doc`, with the
/// document read in place and through rolling buffers of 256 B, 4 KiB and
/// the default chunk.
void ExpectEveryBoundaryResumes(const core::Prefilter& pf,
                                const std::string& doc) {
  const std::vector<uint64_t> truth = TokenizerTopLevelStarts(doc);
  ASSERT_FALSE(truth.empty());
  for (uint64_t chunk : {uint64_t{256}, uint64_t{4} << 10,
                         BoundaryIndexOptions{}.chunk_bytes}) {
    for (bool contiguous : {true, false}) {
      SCOPED_TRACE(testing::Message() << "chunk=" << chunk
                                      << " contiguous=" << contiguous);
      auto idx = BuildIndex(pf, doc, /*granularity=*/1, contiguous, chunk);
      ASSERT_TRUE(idx.ok()) << idx.status().ToString();
      ASSERT_EQ(idx->entries().size(), truth.size())
          << "granularity-1 index must hold every top-level boundary";
      ExpectEntriesResume(pf, doc, *idx);
    }
  }
}

TEST(BoundaryIndexTest, XmarkEveryBoundaryResumesByteIdentically) {
  core::Prefilter pf = CompileXmark();
  ExpectEveryBoundaryResumes(pf, XmarkDoc(16 << 10));
}

TEST(BoundaryIndexTest, MedlineEveryBoundaryResumesByteIdentically) {
  core::Prefilter pf = CompileMedline();
  ExpectEveryBoundaryResumes(pf, MedlineDoc(16 << 10));
}

TEST(BoundaryIndexTest, EntriesAreTokenizerRecordStartsUnderEveryTier) {
  // Hand-built edges: every construct the structural scan must skip
  // carries fake tags (harmless to the engine, which matches them as
  // DTD-valid elements or not at all), and the bachelor cases exercise
  // the '/' checks at both depths.
  auto dtd = dtd::Dtd::Parse(
      "<!DOCTYPE a [ <!ELEMENT a (#PCDATA|b|c)*> <!ELEMENT b (#PCDATA)>"
      " <!ELEMENT c (#PCDATA|b)*> ]>");
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto paths = paths::ProjectionPath::ParseList("/a/b# /a/c/b#");
  ASSERT_TRUE(paths.ok());
  auto edge_pf = core::Prefilter::Compile(std::move(*dtd), std::move(*paths));
  ASSERT_TRUE(edge_pf.ok()) << edge_pf.status().ToString();
  const std::vector<std::string> edges = {
      "<a><!-- <b>fake</b> <b/> --><b>x</b><!----></a>",
      "<a><![CDATA[<b>fake</b></zz><zz>]]><b/><c><![CDATA[]]></c></a>",
      "<?xml version=\"1.0\"?><?pi <b/>?><a><?pi <b>?><b>y</b><?x?></a>",
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ENTITY g \"x>y\">"
      " <!-- <b> --> ]>\n<a><b/><c><b/></c><b>z</b></a>",
      "<a><b at=\"x>/y\">1</b><b at='/>'>2</b><c q=\"a/\"/>"
      "<b at=\"/\">3</b><c><b k='>'/></c></a>",
      "<a><b/><c/><b></b><c><b/><b/></c><b/></a>",
      "<a/>",
      "<a>text only</a>",
      "<a>\n  <b>1</b>\n  <c>2 &lt; 3 <b>3</b></c>\n</a>\n",
  };
  struct Case {
    const core::Prefilter* pf;
    std::string doc;
  };
  core::Prefilter xmark = CompileXmark();
  core::Prefilter medline = CompileMedline();
  std::vector<Case> cases = {{&xmark, XmarkDoc(256 << 10)},
                             {&medline, MedlineDoc(256 << 10)}};
  for (const std::string& doc : edges) {
    // Padding inside the root shifts every construct across the rolling
    // buffer's refill points, so each straddles a refill somewhere.
    const size_t root = doc.find("<a>");
    for (size_t pad = 0; pad < parallel::kMinScanChunkBytes; ++pad) {
      std::string padded = doc;
      if (root != std::string::npos) padded.insert(root + 3, pad, ' ');
      cases.push_back({&*edge_pf, padded});
      if (root == std::string::npos) break;
    }
  }

  const simd::Isa saved = simd::ActiveIsa();
  for (simd::Isa isa : simd::AvailableIsas()) {
    SCOPED_TRACE(simd::IsaName(isa));
    ASSERT_EQ(simd::SetIsa(isa), isa);
    for (const Case& c : cases) {
      SCOPED_TRACE(c.doc.size() < 200 ? c.doc : c.doc.substr(0, 40));
      const std::vector<uint64_t> truth = TokenizerTopLevelStarts(c.doc);
      for (bool contiguous : {true, false}) {
        SCOPED_TRACE(contiguous ? "contiguous" : "rolling");
        auto idx = BuildIndex(*c.pf, c.doc, /*granularity=*/1, contiguous,
                              parallel::kMinScanChunkBytes);
        ASSERT_TRUE(idx.ok()) << idx.status().ToString();
        std::vector<uint64_t> offsets;
        for (size_t i = 0; i < idx->entries().size(); ++i) {
          offsets.push_back(idx->entries()[i].offset);
          EXPECT_EQ(idx->entries()[i].record_ordinal, i);
        }
        EXPECT_EQ(offsets, truth);
      }
    }
  }
  simd::SetIsa(saved);
}

TEST(BoundaryIndexTest, OpenAtMidRecordTargetsResumeAtPrecedingBoundary) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  ASSERT_GE(idx->entries().size(), 3u);

  // A target strictly inside span i opens at entry i; a target before the
  // first boundary resumes from the document start.
  const IndexEntry& e1 = idx->entries()[1];
  uint64_t mid = e1.offset + (idx->entries()[2].offset - e1.offset) / 2;
  auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, mid);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(cur->position(), e1.offset);

  auto head = Cursor::OpenAt(*idx, pf.tables(), doc, 0);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->position(), 0u);
  EXPECT_EQ(head->output_position(), 0u);
  StringSink sink;
  ASSERT_TRUE(head->Drain(&sink).ok());
  EXPECT_EQ(sink.str(), *serial);

  // Past the last boundary: open at the last entry; past the end: same.
  auto tail = Cursor::OpenAt(*idx, pf.tables(), doc, doc.size() + 1000);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->position(), idx->entries().back().offset);
}

TEST(BoundaryIndexTest, PaginationReassemblesTheSerialProjection) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  const size_t spans = idx->entries().size() + 1;

  for (size_t step : {size_t{1}, size_t{2}, size_t{5}}) {
    auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, 0);
    ASSERT_TRUE(cur.ok());
    StringSink sink;
    size_t consumed = 0;
    while (!cur->at_end()) {
      auto n = cur->Next(step, &sink);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_GT(*n, 0u);
      consumed += *n;
      ASSERT_LE(consumed, spans);
    }
    EXPECT_EQ(consumed, spans) << "step=" << step;
    EXPECT_EQ(sink.str(), *serial) << "step=" << step;
    // At the end, Next is a no-op reporting zero spans.
    auto n = cur->Next(step, &sink);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);
  }
}

TEST(BoundaryIndexTest, CursorTokensRestoreMidStream) {
  core::Prefilter pf = CompileXmark();
  std::string doc = XmarkDoc(8 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());

  // Walk one span at a time; at every pause, a restored token must drain
  // to exactly the bytes the original cursor would drain to.
  auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, 0);
  ASSERT_TRUE(cur.ok());
  StringSink walked;
  while (!cur->at_end()) {
    std::string token = cur->SaveToken();
    auto restored = Cursor::Restore(*idx, pf.tables(), doc, token);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->position(), cur->position());
    EXPECT_EQ(restored->output_position(), cur->output_position());
    StringSink rest;
    ASSERT_TRUE(restored->Drain(&rest).ok());
    EXPECT_EQ(walked.str() + rest.str(), *serial)
        << "token restored at position " << cur->position()
        << " lost or duplicated bytes";
    auto n = cur->Next(1, &walked);
    ASSERT_TRUE(n.ok());
  }
  EXPECT_EQ(walked.str(), *serial);

  // A token saved at the very end restores to an at-end cursor.
  auto done = Cursor::Restore(*idx, pf.tables(), doc, cur->SaveToken());
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->at_end());
  StringSink empty;
  ASSERT_TRUE(done->Drain(&empty).ok());
  EXPECT_TRUE(empty.str().empty());
}

TEST(BoundaryIndexTest, SaveLoadRoundTripPreservesEverything) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  std::string bytes = idx->Serialize();

  auto loaded = BoundaryIndex::Load(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->doc_size(), idx->doc_size());
  EXPECT_EQ(loaded->doc_digest(), idx->doc_digest());
  EXPECT_EQ(loaded->tables_fingerprint(), idx->tables_fingerprint());
  ASSERT_EQ(loaded->entries().size(), idx->entries().size());
  for (size_t i = 0; i < idx->entries().size(); ++i) {
    const IndexEntry& a = idx->entries()[i];
    const IndexEntry& b = loaded->entries()[i];
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.out_offset, b.out_offset);
    EXPECT_EQ(a.checkpoint.state, b.checkpoint.state);
    EXPECT_EQ(a.checkpoint.cursor, b.checkpoint.cursor);
    EXPECT_EQ(a.checkpoint.nesting_depth, b.checkpoint.nesting_depth);
    EXPECT_EQ(a.checkpoint.copy_depth, b.checkpoint.copy_depth);
    EXPECT_EQ(a.checkpoint.copy_flushed, b.checkpoint.copy_flushed);
    EXPECT_EQ(a.checkpoint.prolog_done, b.checkpoint.prolog_done);
    EXPECT_EQ(a.checkpoint.jump_pending, b.checkpoint.jump_pending);
  }
  ASSERT_TRUE(loaded->Matches(doc, pf.tables()).ok());

  // And a cursor over the LOADED index serves the same bytes.
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  const IndexEntry& mid = loaded->entries()[loaded->entries().size() / 2];
  auto cur = Cursor::OpenAt(*loaded, pf.tables(), doc, mid.offset);
  ASSERT_TRUE(cur.ok());
  StringSink sink;
  ASSERT_TRUE(cur->Drain(&sink).ok());
  EXPECT_EQ(sink.str(), serial->substr(static_cast<size_t>(mid.out_offset)));
}

TEST(BoundaryIndexTest, EveryTruncationAndByteFlipFailsClosed) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(2 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  std::string bytes = idx->Serialize();
  ASSERT_TRUE(BoundaryIndex::Load(bytes).ok());

  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = BoundaryIndex::Load(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes loaded";
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    auto r = BoundaryIndex::Load(mutated);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i << " loaded";
  }
  {
    std::string padded = bytes + "x";
    EXPECT_FALSE(BoundaryIndex::Load(padded).ok()) << "trailing junk loaded";
  }
}

TEST(BoundaryIndexTest, StaleDigestAndStaleTablesFailClosed) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(4 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());

  // Same size, one content byte changed: the digest must catch it.
  std::string mutated = doc;
  size_t text_pos = mutated.find("</");  // flip inside preceding text/tag
  ASSERT_NE(text_pos, std::string::npos);
  mutated[text_pos + 1] = mutated[text_pos + 1] == 'X' ? 'Y' : 'X';
  Status stale = idx->Matches(mutated, pf.tables());
  EXPECT_FALSE(stale.ok());
  EXPECT_NE(stale.ToString().find("digest"), std::string::npos)
      << stale.ToString();
  EXPECT_FALSE(
      Cursor::OpenAt(*idx, pf.tables(), mutated, 0).ok());

  // A different document size fails before hashing.
  EXPECT_FALSE(idx->Matches(doc + " ", pf.tables()).ok());

  // Same document, different compiled tables (different projection
  // paths): the fingerprint must catch it.
  auto other_paths = paths::ProjectionPath::ParseList(
      "/MedlineCitationSet/MedlineCitation/Article#");
  ASSERT_TRUE(other_paths.ok());
  auto other =
      core::Prefilter::Compile(xmlgen::MedlineDtd(), std::move(*other_paths));
  ASSERT_TRUE(other.ok());
  Status wrong_tables = idx->Matches(doc, other->tables());
  EXPECT_FALSE(wrong_tables.ok());
  EXPECT_NE(wrong_tables.ToString().find("tables"), std::string::npos);
  EXPECT_FALSE(Cursor::OpenAt(*idx, other->tables(), doc, 0).ok());

  // The original triple still opens.
  EXPECT_TRUE(Cursor::OpenAt(*idx, pf.tables(), doc, 0).ok());
}

TEST(BoundaryIndexTest, TamperedAndForeignTokensFailClosed) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(4 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, doc.size() / 2);
  ASSERT_TRUE(cur.ok());
  std::string token = cur->SaveToken();
  ASSERT_TRUE(Cursor::Restore(*idx, pf.tables(), doc, token).ok());

  for (size_t i = 0; i < token.size(); ++i) {
    std::string mutated = token;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    EXPECT_FALSE(Cursor::Restore(*idx, pf.tables(), doc, mutated).ok())
        << "tampered token byte " << i << " restored";
  }
  for (size_t len = 0; len < token.size(); ++len) {
    EXPECT_FALSE(Cursor::Restore(*idx, pf.tables(), doc,
                                 std::string_view(token).substr(0, len))
                     .ok())
        << "truncated token of " << len << " bytes restored";
  }

  // A token minted over a different document cannot cross over.
  std::string other_doc = MedlineDoc(5 << 10);
  auto other_idx = BuildEveryBoundary(pf, other_doc);
  ASSERT_TRUE(other_idx.ok());
  auto other_cur =
      Cursor::OpenAt(*other_idx, pf.tables(), other_doc, 100);
  ASSERT_TRUE(other_cur.ok());
  EXPECT_FALSE(
      Cursor::Restore(*idx, pf.tables(), doc, other_cur->SaveToken()).ok());
}

TEST(BoundaryIndexTest, BoundarylessDocumentsStillServeCursors) {
  // A document whose root has no element children yields an entry-less
  // index; every OpenAt degenerates to a serial run from the start.
  auto dtd = dtd::Dtd::Parse(
      "<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]>");
  ASSERT_TRUE(dtd.ok());
  auto paths = paths::ProjectionPath::ParseList("/a#");
  ASSERT_TRUE(paths.ok());
  auto pf = core::Prefilter::Compile(std::move(*dtd), std::move(*paths));
  ASSERT_TRUE(pf.ok());
  std::string doc = "<a>just text, no children</a>";
  auto serial = pf->RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());

  auto idx = BuildIndex(*pf, doc, /*granularity=*/1);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_TRUE(idx->entries().empty());

  auto cur = Cursor::OpenAt(*idx, pf->tables(), doc, doc.size() / 2);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(cur->position(), 0u);
  StringSink sink;
  ASSERT_TRUE(cur->Drain(&sink).ok());
  EXPECT_EQ(sink.str(), *serial);
}

TEST(BoundaryIndexTest, BuildFailsOnDocumentsThatDoNotPrefilter) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(4 << 10);
  doc.resize(doc.size() / 2);  // truncated document: serial run fails too
  EXPECT_FALSE(BuildIndex(pf, doc, /*granularity=*/256).ok());
  EXPECT_FALSE(BuildIndex(pf, doc, /*granularity=*/256, /*contiguous=*/false,
                          /*chunk=*/512)
                   .ok());
}

TEST(BoundaryIndexTest, CoarseGranularityMatchesFineResumes) {
  // A coarse index is a subset of resume points; every coarse entry must
  // behave exactly like the corresponding fine entry.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto coarse = BuildIndex(pf, doc, /*granularity=*/2048);
  ASSERT_TRUE(coarse.ok());
  auto fine = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(fine.ok());
  ASSERT_FALSE(coarse->entries().empty());
  EXPECT_LT(coarse->entries().size(), fine->entries().size());

  for (const IndexEntry& e : coarse->entries()) {
    int64_t j = fine->FindEntry(e.offset);
    ASSERT_GE(j, 0);
    const IndexEntry& f = fine->entries()[static_cast<size_t>(j)];
    EXPECT_EQ(f.offset, e.offset);
    EXPECT_EQ(f.out_offset, e.out_offset);
    EXPECT_EQ(f.checkpoint.state, e.checkpoint.state);
    EXPECT_EQ(f.checkpoint.cursor, e.checkpoint.cursor);
    auto cur = Cursor::OpenAt(*coarse, pf.tables(), doc, e.offset);
    ASSERT_TRUE(cur.ok());
    StringSink sink;
    ASSERT_TRUE(cur->Drain(&sink).ok());
    EXPECT_EQ(sink.str(),
              serial->substr(static_cast<size_t>(e.out_offset)));
  }
}

TEST(BoundaryIndexTest, RecordOrdinalsMatchTokenizerTruth) {
  // With a granularity-1 index, entry i is the boundary of top-level
  // record i: ordinals must be exactly 0, 1, 2, ...; coarse indexes must
  // carry the same ordinal the fine index has at the same offset.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  auto fine = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(fine.ok());
  for (size_t i = 0; i < fine->entries().size(); ++i) {
    EXPECT_EQ(fine->entries()[i].record_ordinal, i) << "entry " << i;
  }

  auto coarse = BuildIndex(pf, doc, /*granularity=*/2048);
  ASSERT_TRUE(coarse.ok());
  ASSERT_FALSE(coarse->entries().empty());
  for (const IndexEntry& e : coarse->entries()) {
    int64_t j = fine->FindEntry(e.offset);
    ASSERT_GE(j, 0);
    EXPECT_EQ(e.record_ordinal,
              fine->entries()[static_cast<size_t>(j)].record_ordinal)
        << "offset " << e.offset;
  }
}

TEST(BoundaryIndexTest, FindRecordAndOpenAtRecordPaginateBySerialRecord) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  const size_t n = idx->entries().size();
  ASSERT_GE(n, 3u);

  // FindRecord mirrors FindEntry's semantics in record space.
  EXPECT_EQ(idx->FindRecord(0), 0);
  EXPECT_EQ(idx->FindRecord(1), 1);
  EXPECT_EQ(idx->FindRecord(n - 1), static_cast<int64_t>(n - 1));
  EXPECT_EQ(idx->FindRecord(n + 1000), static_cast<int64_t>(n - 1));

  // Opening at record k resumes exactly at boundary k and drains the
  // serial suffix; record_position() reports k.
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, static_cast<uint64_t>(n / 2),
                     static_cast<uint64_t>(n - 1)}) {
    auto cur = Cursor::OpenAtRecord(*idx, pf.tables(), doc, k);
    ASSERT_TRUE(cur.ok()) << cur.status().ToString();
    const IndexEntry& e = idx->entries()[static_cast<size_t>(k)];
    EXPECT_EQ(cur->position(), e.offset);
    EXPECT_EQ(cur->record_position(), k);
    StringSink sink;
    ASSERT_TRUE(cur->Drain(&sink).ok());
    EXPECT_EQ(sink.str(), serial->substr(static_cast<size_t>(e.out_offset)))
        << "record seek " << k;
  }

  // A coarse index lands on the nearest preceding indexed boundary.
  auto coarse = BuildIndex(pf, doc, /*granularity=*/2048);
  ASSERT_TRUE(coarse.ok());
  ASSERT_FALSE(coarse->entries().empty());
  uint64_t target = coarse->entries().back().record_ordinal + 1;
  auto cur = Cursor::OpenAtRecord(*coarse, pf.tables(), doc, target);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(cur->position(), coarse->entries().back().offset);
  EXPECT_EQ(cur->record_position(), coarse->entries().back().record_ordinal);
}

TEST(BoundaryIndexTest, StatsPrefixCompletesResumedRunsToSerialTotals) {
  // For the chunk-split-invariant counters (matches, false matches), the
  // stored prefix plus a resumed run's own stats must equal the full
  // serial run's totals -- that is what makes seek-point stats honest.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  core::RunStats serial_stats;
  {
    CountingSink discard;
    core::PrefilterSession s(pf.tables(), &discard, &serial_stats, {});
    ASSERT_TRUE(s.Resume(doc).ok());
    if (!s.finished()) {
      ASSERT_TRUE(s.Finish().ok());
    }
  }
  // In place, and through rolling buffers smaller than a record (the
  // engine's input is then cut mid-span as well as at every boundary).
  for (bool contiguous : {true, false}) {
    SCOPED_TRACE(contiguous ? "contiguous" : "rolling");
    auto idx = BuildIndex(pf, doc, /*granularity=*/1, contiguous,
                          /*chunk=*/256);
    ASSERT_TRUE(idx.ok());
    ASSERT_GE(idx->entries().size(), 2u);

    for (size_t i : {size_t{0}, idx->entries().size() / 2,
                     idx->entries().size() - 1}) {
      auto cur = Cursor::OpenAt(*idx, pf.tables(), doc,
                                idx->entries()[i].offset);
      ASSERT_TRUE(cur.ok());
      StatsPrefix prefix = cur->stats_prefix();
      // Re-run the suffix serially to get the resumed portion's stats.
      core::RunStats suffix_stats;
      {
        CountingSink discard;
        const core::SessionCheckpoint ckpt = idx->entries()[i].checkpoint;
        core::PrefilterSession s(pf.tables(), &discard, &suffix_stats, {},
                                 &ckpt);
        ASSERT_TRUE(s.Resume(doc.substr(
                                static_cast<size_t>(ckpt.feed_begin())))
                        .ok());
        if (!s.finished()) {
          ASSERT_TRUE(s.Finish().ok());
        }
      }
      core::RunStats total = suffix_stats;
      prefix.AccumulateInto(&total);
      EXPECT_EQ(total.matches, serial_stats.matches) << "entry " << i;
      EXPECT_EQ(total.false_matches, serial_stats.false_matches)
          << "entry " << i;
    }
  }
}

TEST(BoundaryIndexTest, VersionOneFilesFailClosedAsUnsupported) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(2 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  std::string bytes = idx->Serialize();
  // Rewrite the version field to 1 and re-seal the trailing hash so ONLY
  // the version check can reject it.
  bytes[8] = 1;
  std::string body = bytes.substr(0, bytes.size() - 8);
  std::string resealed = body;
  uint64_t h = Hash64(body);
  for (int i = 0; i < 8; ++i) {
    resealed.push_back(static_cast<char>((h >> (8 * i)) & 0xff));
  }
  auto r = BoundaryIndex::Load(resealed);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported)
      << r.status().ToString();
}

/// A resealed header: the given document size and entry count, no entry
/// bytes, and a valid trailing hash, so only the structural checks can
/// reject it.
std::string ResealedHeader(uint64_t doc_size, uint64_t count) {
  std::string bytes("SMPXBIX1", 8);
  auto put = [&bytes](uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put(2, 4);  // version
  put(0, 4);  // reserved
  put(doc_size, 8);
  put(0, 8);  // content digest
  put(0, 8);  // tables fingerprint
  put(count, 8);
  put(Hash64(bytes), 8);
  return bytes;
}

TEST(BoundaryIndexTest, EntryCountsTheFileCannotHoldFailClosed) {
  // A 56-byte file claiming 10^12 (or 2^62) entries of an equally large
  // document must fail as corrupt before anything is allocated for them.
  for (uint64_t count : {uint64_t{1000000000000}, uint64_t{1} << 62}) {
    SCOPED_TRACE(count);
    const std::string bytes = ResealedHeader(count, count);
    ASSERT_EQ(bytes.size(), 56u);
    auto r = BoundaryIndex::Load(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError)
        << r.status().ToString();
  }
  // The empty index the same header shape describes still loads.
  EXPECT_TRUE(BoundaryIndex::Load(ResealedHeader(1000, 0)).ok());
}

TEST(BoundaryIndexTest, ChunkedBuildsAreByteIdenticalAcrossChunkSizes) {
  // The rolling-buffer reads cannot leak into the file: as long as no
  // inter-entry span exceeds the chunk, the engine suspends at exactly the
  // same boundaries as when the document is read in place.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  auto in_place = BuildIndex(pf, doc, /*granularity=*/1);
  ASSERT_TRUE(in_place.ok()) << in_place.status().ToString();
  for (uint64_t chunk : {uint64_t{4} << 10, uint64_t{8} << 10}) {
    SCOPED_TRACE(chunk);
    auto rolled = BuildIndex(pf, doc, /*granularity=*/1,
                             /*contiguous=*/false, chunk);
    ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
    EXPECT_EQ(rolled->Serialize(), in_place->Serialize());
  }
}

TEST(BoundaryIndexTest, ChunkedBuildSurvivesSpansLargerThanTheChunk) {
  // Coarse granularity with a tiny chunk cuts the engine's input mid-span;
  // every entry must still be a true record start whose cursor serves the
  // serial suffix.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  auto idx = BuildIndex(pf, doc, /*granularity=*/4096, /*contiguous=*/false,
                        /*chunk=*/256);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  ASSERT_GE(idx->entries().size(), 2u);
  ExpectEntriesResume(pf, doc, *idx);
}

TEST(BoundaryIndexTest, ChunkedBuildFromFileSourceNeverMapsTheDocument) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  std::string path = ::testing::TempDir() + "/smpx_chunked_index_input.xml";
  ASSERT_TRUE(WriteStringToFile(path, doc).ok());
  auto src = FileSource::Open(path);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  ASSERT_EQ((*src)->Contiguous().data(), nullptr);

  // The pread-backed build must be byte-identical to the same rolling
  // build over in-memory bytes, and its digest must satisfy Matches.
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 1;
  opts.chunk_bytes = 1 << 10;
  auto mem = BoundaryIndex::Build(pf.tables(), RollingSource(doc), opts);
  ASSERT_TRUE(mem.ok());
  auto chunked = BoundaryIndex::Build(pf.tables(), **src, opts);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  EXPECT_EQ(chunked->Serialize(), mem->Serialize());
  ASSERT_TRUE(chunked->Matches(doc, pf.tables()).ok());
  std::remove(path.c_str());
}

TEST(CursorAllocationTest, NextAtServerWindowAllocatesNoWindowBuffer) {
  // One cursor step at smpxd's default 1 MiB window, over an in-memory
  // document: the window lends the document's bytes, and the suspending
  // session copies only what it holds (about one record), so the step
  // must not allocate anything near the window's capacity. A byte count,
  // not a timing, so CI noise cannot hide the regression.
  core::Prefilter pf = CompileMedline();
  const std::string doc = MedlineDoc(1 << 20);
  BoundaryIndexOptions bopts;
  bopts.granularity_bytes = 1;
  auto idx = BoundaryIndex::Build(pf.tables(), MemorySource(doc), bopts);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  ASSERT_GT(idx->entries().size(), 100u);
  CursorOptions copts;
  copts.engine.window_capacity = 1 << 20;
  for (uint64_t record : {1u, 50u, 100u}) {
    SCOPED_TRACE(record);
    auto cur = Cursor::OpenAtRecord(*idx, pf.tables(), doc, record, copts);
    ASSERT_TRUE(cur.ok()) << cur.status().ToString();
    CountingSink sink;
    g_new_bytes = 0;
    g_count_new = true;
    auto n = cur->Next(1, &sink);
    g_count_new = false;
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, 1u);
    EXPECT_GT(cur->position(), 0u);
    EXPECT_LT(g_new_bytes.load(), 64u << 10);
  }
}

TEST(RunEngineAllocationTest, ResidentSourceAllocatesNoReadBuffer) {
  // RunEngine hands a resident source to the session in place, so a run
  // must not allocate anything near the 1 MiB piece it reads any other
  // source in. A byte count, not a timing, so CI noise cannot hide the
  // regression.
  core::Prefilter pf = CompileMedline();
  const std::string doc = MedlineDoc(4 << 20);
  const MemorySource src(doc);
  CountingSink sink;
  core::RunStats stats;
  g_new_bytes = 0;
  g_count_new = true;
  Status s = core::RunEngine(pf.tables(), &src, &sink, &stats);
  g_count_new = false;
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.input_bytes, doc.size());
  EXPECT_GT(sink.bytes_written(), 0u);
  EXPECT_LT(g_new_bytes.load(), (uint64_t{1} << 20) / 8);
}

}  // namespace
}  // namespace smpx::index
