// Determinism tests for the resumable PrefilterSession and the parallel
// sharded/batch execution layer: chunked, sharded, and batched runs must be
// byte-identical to the serial engine, with merged RunStats totals
// matching, across thread counts, odd shard boundaries (mid-tag, inside
// CDATA/comments), tiny windows, and empty shards.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/prefilter.h"
#include "parallel/batch.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "simd/simd.h"
#include "xml/tokenizer.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx::core {
namespace {

constexpr char kPaperDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";

Prefilter Compile(std::string_view dtd_text, std::string_view paths,
                  const CompileOptions& opts = {}) {
  auto dtd = dtd::Dtd::Parse(dtd_text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto parsed = paths::ProjectionPath::ParseList(paths);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto pf = Prefilter::Compile(std::move(*dtd), *parsed, opts);
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

std::string SerialRun(const Prefilter& pf, std::string_view doc,
                      RunStats* stats = nullptr,
                      const EngineOptions& opts = {}) {
  auto out = pf.RunOnBuffer(doc, stats, opts);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::string();
}

/// Runs a push-mode session over `doc` in chunks of `chunk_len` bytes.
std::string ChunkedRun(const Prefilter& pf, std::string_view doc,
                       size_t chunk_len, RunStats* stats = nullptr,
                       const EngineOptions& opts = {}) {
  StringSink sink;
  RunStats local;
  PrefilterSession session(pf.tables(), &sink,
                           stats != nullptr ? stats : &local, opts);
  for (size_t off = 0; off < doc.size(); off += chunk_len) {
    Status s = session.Resume(doc.substr(off, chunk_len));
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) return std::string();
  }
  Status s = session.Finish();
  EXPECT_TRUE(s.ok()) << s.ToString();
  return sink.TakeString();
}

// --- PrefilterSession: chunked push mode ----------------------------------

TEST(SessionTest, ChunkedRunsMatchSerialAcrossChunkSizes) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  const std::string doc =
      "<?xml version=\"1.0\"?>\n<!-- prolog comment -->\n"
      "<a><b>one</b><c><b>shielded</b></c><b attr=\"x>y\">two</b>"
      "<b/><c><b/></c></a>";
  RunStats serial_stats;
  std::string serial = SerialRun(pf, doc, &serial_stats);
  for (size_t chunk : {1u, 2u, 3u, 7u, 16u, 64u, 4096u}) {
    SCOPED_TRACE(chunk);
    RunStats stats;
    EXPECT_EQ(ChunkedRun(pf, doc, chunk, &stats), serial);
    EXPECT_EQ(stats.matches, serial_stats.matches);
    EXPECT_EQ(stats.false_matches, serial_stats.false_matches);
    EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
    EXPECT_EQ(stats.input_bytes, doc.size());
  }
}

TEST(SessionTest, ChunkedDoctypeWithQuotedGt) {
  // The memchr DOCTYPE scan must not terminate on a '>' inside a quoted
  // entity value, in any chunking.
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  const std::string doc =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ENTITY e \"x>y\">"
      " <!ENTITY f 'p>q'> ]>\n<a><b>k</b></a>";
  std::string serial = SerialRun(pf, doc);
  EXPECT_EQ(serial, "<a><b>k</b></a>");
  for (size_t chunk : {1u, 5u, 33u}) {
    SCOPED_TRACE(chunk);
    EXPECT_EQ(ChunkedRun(pf, doc, chunk), serial);
  }
}

TEST(SessionTest, TinyWindowChunkedRun) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string big_text(5000, 'x');
  const std::string doc = "<a><b>" + big_text + "</b><c><b>n</b></c></a>";
  EngineOptions opts;
  opts.window_capacity = 64;
  std::string serial = SerialRun(pf, doc, nullptr, opts);
  for (size_t chunk : {3u, 17u, 256u}) {
    SCOPED_TRACE(chunk);
    EXPECT_EQ(ChunkedRun(pf, doc, chunk, nullptr, opts), serial);
  }
}

TEST(SessionTest, InvalidConstructionIsInert) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  // Empty tables: clean error, no crash.
  RuntimeTables empty;
  StringSink sink1;
  RunStats stats1;
  PrefilterSession bad1(empty, &sink1, &stats1);
  EXPECT_FALSE(bad1.finished());
  EXPECT_EQ(bad1.Resume("<a/>").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad1.Finish().code(), StatusCode::kInvalidArgument);
  // Out-of-range checkpoint state: same.
  SessionCheckpoint cp;
  cp.state = 999;
  StringSink sink2;
  RunStats stats2;
  PrefilterSession bad2(pf.tables(), &sink2, &stats2, {}, &cp);
  EXPECT_FALSE(bad2.finished());
  EXPECT_EQ(bad2.Resume("<a/>").code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, FinishOnTruncatedDocumentFails) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  StringSink sink;
  RunStats stats;
  PrefilterSession session(pf.tables(), &sink, &stats);
  ASSERT_TRUE(session.Resume("<a><b>never").ok());
  EXPECT_FALSE(session.finished());
  Status s = session.Finish();
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(SessionTest, CancellationTokenAbortsAtASafePointAndIsSticky) {
  // The cooperative cancellation token (EngineOptions::cancel) is polled at
  // session safe points: a token raised between chunks makes the next
  // Resume return kCancelled, and the session stays dead afterwards. A
  // token that is never raised must not perturb the run.
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a>";
  for (int i = 0; i < 60; ++i) doc += "<b>payload</b><c><b>n</b></c>";
  doc += "</a>";

  std::atomic<bool> cancel{false};
  EngineOptions opts;
  opts.cancel = &cancel;
  EXPECT_EQ(ChunkedRun(pf, doc, 97, nullptr, opts), SerialRun(pf, doc));

  StringSink sink;
  RunStats stats;
  PrefilterSession session(pf.tables(), &sink, &stats, opts);
  ASSERT_TRUE(session.Resume(std::string_view(doc).substr(0, 100)).ok());
  cancel.store(true);
  EXPECT_EQ(session.Resume(std::string_view(doc).substr(100)).code(),
            StatusCode::kCancelled);
  // Sticky: a cancelled session never resumes, even if the token drops.
  cancel.store(false);
  EXPECT_EQ(session.Resume("<b>more</b>").code(), StatusCode::kCancelled);
  EXPECT_EQ(session.Finish().code(), StatusCode::kCancelled);
  EXPECT_FALSE(session.finished());
}

TEST(SessionTest, MidPrologCheckpointHandoffStaysByteIdentical) {
  // A chunk ending inside the DOCTYPE suspends mid-prolog; a successor
  // session built from the checkpoint must resume prolog scanning (not
  // treat the internal subset -- here holding decoy vocabulary tags -- as
  // document content). Regression: prolog_done/jump_pending now travel in
  // the checkpoint.
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  const std::string doc =
      "<!DOCTYPE a [ <!-- <a><b>fake</b></a> --> ]>\n<a><b>real</b></a>";
  std::string serial = SerialRun(pf, doc);
  EXPECT_EQ(serial, "<a><b>real</b></a>");
  for (size_t cut : {5u, 20u, 30u, 43u}) {  // all inside/at the DOCTYPE
    SCOPED_TRACE(cut);
    StringSink sink1;
    RunStats stats1;
    PrefilterSession first(pf.tables(), &sink1, &stats1);
    ASSERT_TRUE(first.Resume(std::string_view(doc).substr(0, cut)).ok());
    ASSERT_FALSE(first.finished());
    SessionCheckpoint cp = first.checkpoint();
    StringSink sink2;
    RunStats stats2;
    PrefilterSession second(pf.tables(), &sink2, &stats2, {}, &cp);
    ASSERT_TRUE(
        second
            .Resume(std::string_view(doc).substr(
                static_cast<size_t>(cp.cursor)))
            .ok());
    ASSERT_TRUE(second.Finish().ok());
    EXPECT_EQ(sink1.str() + sink2.str(), serial);
  }
}

TEST(SessionTest, CheckpointHandoffContinuesByteIdentically) {
  // Split a document at an arbitrary top-level point: run the prefix in one
  // session, hand its checkpoint to a second session over the suffix; the
  // concatenated output must equal the serial run.
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  const std::string doc =
      "<a><b>one</b><c><b>s</b></c><b>two</b><b>three</b><c><b/></c></a>";
  std::string serial = SerialRun(pf, doc);

  // Boundary at the '<' of "<b>two" (a top-level child of <a>).
  size_t bound = doc.find("<b>two");
  ASSERT_NE(bound, std::string::npos);

  StringSink sink1;
  RunStats stats1;
  PrefilterSession first(pf.tables(), &sink1, &stats1);
  ASSERT_TRUE(first.Resume(std::string_view(doc).substr(0, bound)).ok());
  ASSERT_FALSE(first.finished());
  ASSERT_TRUE(first.drained_cleanly());
  SessionCheckpoint cp = first.checkpoint();
  EXPECT_EQ(cp.copy_depth, 0);
  EXPECT_EQ(cp.nesting_depth, 0u);

  // The successor starts exactly at the boundary in the carried state.
  cp.cursor = bound;
  StringSink sink2;
  RunStats stats2;
  PrefilterSession second(pf.tables(), &sink2, &stats2, {}, &cp);
  ASSERT_TRUE(second.Resume(std::string_view(doc).substr(bound)).ok());
  ASSERT_TRUE(second.Finish().ok());
  EXPECT_TRUE(second.finished());

  EXPECT_EQ(sink1.str() + sink2.str(), serial);
}

TEST(SessionTest, ExhaustiveSuspendResumeAtEveryByteOffset) {
  // For a corpus of small documents covering every construct the session
  // can suspend inside (prolog, DOCTYPE subset, comments, CDATA, PIs,
  // quoted attributes, bachelor tags, opaque recursion), suspend at EVERY
  // byte offset and resume in a fresh session built from the checkpoint:
  // the concatenated output must be byte-identical to the serial run.
  struct Case {
    const char* dtd;
    const char* paths;
    std::string doc;
    bool recursion = false;
  };
  std::vector<Case> corpus;
  corpus.push_back(
      {kPaperDtd, "/a/b#",
       "<?xml version=\"1.0\"?><!-- lead --><a><b>one</b>"
       "<c><b>shielded</b></c><b at=\"x>y\">two</b><b/><c><b/></c></a>"});
  corpus.push_back(
      {kPaperDtd, "/a/b#",
       "<!DOCTYPE a [ <!-- <a><b>fake</b></a> --> <!ENTITY e \"q>r\"> ]>"
       "<a><![CDATA[ <b>cdata</b> ]]><b>real</b><?pi <b>no</b> ?></a>"});
  corpus.push_back(
      {"<!DOCTYPE a [ <!ELEMENT a (item*)>"
       " <!ELEMENT item (name, tree)> <!ELEMENT name (#PCDATA)>"
       " <!ELEMENT tree (leaf | tree)*> <!ELEMENT leaf (#PCDATA)> ]>",
       "//name#",
       "<a><item><name>n</name><tree><tree><leaf>d</leaf></tree>"
       "<leaf>x</leaf></tree></item><item><name>m</name><tree/>"
       "</item></a>",
       /*recursion=*/true});
  for (size_t ci = 0; ci < corpus.size(); ++ci) {
    SCOPED_TRACE(ci);
    const Case& c = corpus[ci];
    CompileOptions copts;
    copts.allow_recursion = c.recursion;
    Prefilter pf = Compile(c.dtd, c.paths, copts);
    std::string serial = SerialRun(pf, c.doc);
    for (size_t cut = 0; cut <= c.doc.size(); ++cut) {
      SCOPED_TRACE(cut);
      StringSink sink1;
      RunStats stats1;
      PrefilterSession first(pf.tables(), &sink1, &stats1);
      ASSERT_TRUE(
          first.Resume(std::string_view(c.doc).substr(0, cut)).ok());
      SessionCheckpoint cp = first.checkpoint();
      StringSink sink2;
      RunStats stats2;
      PrefilterSession second(pf.tables(), &sink2, &stats2, {}, &cp);
      ASSERT_TRUE(second
                      .Resume(std::string_view(c.doc).substr(
                          static_cast<size_t>(cp.feed_begin())))
                      .ok());
      ASSERT_TRUE(second.Finish().ok());
      EXPECT_EQ(sink1.str() + sink2.str(), serial);
    }
  }
}

// --- Sharder: boundary scan -----------------------------------------------

TEST(SharderTest, BoundariesAreTopLevelElementStarts) {
  // Root <a>, top-level children alternate b and c; comments and CDATA
  // containing fake tags must not attract or distort boundaries.
  std::string doc = "<a>";
  for (int i = 0; i < 40; ++i) {
    doc += "<b>text</b>";
    doc += "<c><b>nested</b><!-- <b>fake</b> --></c>";
  }
  doc += "</a>";
  std::vector<uint64_t> bounds =
      parallel::FindTopLevelBoundaries(doc, 3);
  ASSERT_FALSE(bounds.empty());
  EXPECT_LE(bounds.size(), 3u);
  for (uint64_t b : bounds) {
    ASSERT_LT(b + 1, doc.size());
    EXPECT_EQ(doc[static_cast<size_t>(b)], '<');
    // Never a closing tag, never inside a comment: must open b or c.
    EXPECT_TRUE(doc[static_cast<size_t>(b) + 1] == 'b' ||
                doc[static_cast<size_t>(b) + 1] == 'c')
        << "boundary at " << b;
  }
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(SharderTest, BoundariesSkipCdataAndComments) {
  // A document whose midsection -- where even split targets land -- is one
  // huge comment plus CDATA full of fake top-level tags.
  std::string fake;
  for (int i = 0; i < 200; ++i) fake += "<b>x</b>";
  std::string doc = "<a><b>start</b><c><![CDATA[" + fake + "]]>" +
                    "<!-- " + fake + " --><b>in</b></c><b>end</b></a>";
  std::vector<uint64_t> bounds =
      parallel::FindTopLevelBoundaries(doc, 7);
  for (uint64_t b : bounds) {
    // Only the real top-level children qualify.
    size_t p = static_cast<size_t>(b);
    bool is_c = doc.compare(p, 3, "<c>") == 0;
    bool is_end = doc.compare(p, 11, "<b>end</b>") == 0 ||
                  doc.compare(p, 3, "<b>") == 0;
    EXPECT_TRUE(is_c || is_end) << "boundary at " << b << ": "
                                << doc.substr(p, 12);
  }
}

TEST(SharderTest, TinyDocumentsYieldFewOrNoBoundaries) {
  EXPECT_TRUE(parallel::FindTopLevelBoundaries("", 4).empty());
  EXPECT_TRUE(parallel::FindTopLevelBoundaries("<a/>", 4).empty());
  // A childless root has no depth-1 element starts at all.
  EXPECT_TRUE(parallel::FindTopLevelBoundaries("<a>text only</a>", 4).empty());
  // One top-level child: at most one (valid) boundary, at that child.
  std::vector<uint64_t> b =
      parallel::FindTopLevelBoundaries("<a><b/></a>", 4);
  ASSERT_LE(b.size(), 1u);
  if (!b.empty()) {
    EXPECT_EQ(b[0], 3u);
  }
}

TEST(SharderTest, ParallelBoundariesMatchSerialScan) {
  // The region-parallel scanner must select exactly the boundaries of the
  // sequential scan on well-formed documents, for any split count and pool
  // size (including constructs straddling region edges).
  std::vector<std::string> docs;
  {
    std::string doc = "<a>";
    for (int i = 0; i < 60; ++i) {
      doc += "<b>text</b>";
      doc += "<c><b>nested</b><!-- <b>fake</b> --></c>";
    }
    doc += "</a>";
    docs.push_back(doc);
  }
  {
    std::string fake;
    for (int i = 0; i < 300; ++i) fake += "<b>x</b>";
    docs.push_back("<a><b>start</b><c><![CDATA[" + fake + "]]>" +
                   "<!-- " + fake + " --><b>in</b></c><b>end</b></a>");
  }
  docs.push_back("<?xml version=\"1.0\"?><!DOCTYPE a [ <!ENTITY g \"x>y\">"
                 " ]><a><b at=\"q>r\">one</b><b/><c>two</c></a>");
  docs.push_back("");
  docs.push_back("<a/>");
  docs.push_back("<a>text only</a>");
  for (size_t di = 0; di < docs.size(); ++di) {
    SCOPED_TRACE(di);
    for (int pool_threads : {1, 2, 4}) {
      parallel::ThreadPool pool(pool_threads);
      for (size_t splits : {1u, 2u, 3u, 7u, 16u}) {
        SCOPED_TRACE(splits);
        EXPECT_EQ(
            parallel::FindTopLevelBoundariesParallel(docs[di], splits,
                                                     &pool),
            parallel::FindTopLevelBoundaries(docs[di], splits));
      }
    }
  }
}

TEST(SharderTest, ParallelScanEarlyExitsPastTheLastBoundary) {
  // Once every split target is covered, the region-parallel scan must stop
  // -- the tail region past the last chosen boundary is scanned only up to
  // that boundary, like the serial scanner, not to the document end.
  std::string doc = "<a>";
  for (int i = 0; i < 500; ++i) {
    doc += "<b>some payload text for bulk " + std::to_string(i) + "</b>";
  }
  doc += "</a>";
  parallel::ThreadPool pool(3);
  for (size_t splits : {1u, 2u, 4u}) {
    SCOPED_TRACE(splits);
    uint64_t scanned = 0;
    std::vector<uint64_t> par = parallel::FindTopLevelBoundariesParallel(
        doc, splits, &pool, &scanned);
    EXPECT_EQ(par, parallel::FindTopLevelBoundaries(doc, splits));
    ASSERT_EQ(par.size(), splits);  // dense children: every target is met
    // The bytes consumed stay close to the last boundary; in particular
    // the tail past it was skipped (at least ~1/(splits+1) of the doc).
    EXPECT_LT(scanned, doc.size() - doc.size() / (splits + 2))
        << "tail region was scanned to the end";
  }
  // A 1-worker pool delegates to the serial scan and inherits its early
  // exit.
  parallel::ThreadPool serial_pool(1);
  uint64_t scanned = 0;
  std::vector<uint64_t> par = parallel::FindTopLevelBoundariesParallel(
      doc, 2, &serial_pool, &scanned);
  EXPECT_EQ(par, parallel::FindTopLevelBoundaries(doc, 2));
  EXPECT_LT(scanned, doc.size());
}

// --- Record counting -------------------------------------------------------

/// Ground truth for CountTopLevelStarts: offsets of every element start
/// (opening or bachelor tag) whose parent is the root, per the full
/// tokenizer.
std::vector<uint64_t> TokenizerRecordStarts(std::string_view doc) {
  auto tokens = xml::TokenizeAll(doc);
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<uint64_t> starts;
  if (!tokens.ok()) return starts;
  int64_t depth = 0;
  for (const xml::Token& t : *tokens) {
    if (t.type == xml::TokenType::kStartTag ||
        t.type == xml::TokenType::kEmptyTag) {
      if (depth == 1) starts.push_back(t.begin);
      if (t.type == xml::TokenType::kStartTag) ++depth;
    } else if (t.type == xml::TokenType::kEndTag) {
      --depth;
    }
  }
  return starts;
}

TEST(SharderTest, CountTopLevelStartsMatchesTokenizerUnderEveryTier) {
  std::vector<std::string> docs;
  {
    xmlgen::XmarkOptions gen;
    gen.target_bytes = 256 << 10;
    docs.push_back(xmlgen::GenerateXmark(gen));
  }
  {
    xmlgen::MedlineOptions gen;
    gen.target_bytes = 256 << 10;
    docs.push_back(xmlgen::GenerateMedline(gen));
  }
  // Hand-built edges: every construct the structural scanner must skip
  // carries fake top-level tags, and the bachelor cases exercise the
  // '/' checks at both depths.
  docs.push_back("<a><!-- <b>fake</b> <b/> --><b>x</b><!----></a>");
  docs.push_back("<a><![CDATA[<b>fake</b></a><b>]]><b/><c><![CDATA[]]>"
                 "</c></a>");
  docs.push_back("<?xml version=\"1.0\"?><?pi <b/>?><a><?pi <b>?><b>y</b>"
                 "<?x?></a>");
  docs.push_back("<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ENTITY g \"x>y\">"
                 " <!-- <b> --> ]>\n<a><b/><c><b/></c><b>z</b></a>");
  docs.push_back("<a><b at=\"x>/y\">1</b><b at='/>'>2</b><c q=\"a/\"/>"
                 "<b at=\"/\">3</b><c><b k='>'/></c></a>");
  docs.push_back("<a><b/><c/><b></b><c><b/><b/></c><b/></a>");
  docs.push_back("<a/>");
  docs.push_back("<a>text only</a>");
  docs.push_back("<a>\n  <b>1</b>\n  <c>2 &lt; 3 <b>3</b></c>\n</a>\n");

  const simd::Isa saved = simd::ActiveIsa();
  for (size_t di = 0; di < docs.size(); ++di) {
    SCOPED_TRACE(di);
    const std::string& doc = docs[di];
    const std::vector<uint64_t> starts = TokenizerRecordStarts(doc);
    const uint64_t total = starts.size();
    if (di < 2) {
      ASSERT_GT(total, 2u);  // generated documents hold several records
    }
    for (simd::Isa isa : simd::AvailableIsas()) {
      SCOPED_TRACE(simd::IsaName(isa));
      ASSERT_EQ(simd::SetIsa(isa), isa);
      EXPECT_EQ(parallel::CountTopLevelStarts(doc, 0, doc.size(), 0), total);
      for (size_t splits : {1u, 3u, 16u}) {
        SCOPED_TRACE(splits);
        const std::vector<uint64_t> bounds =
            parallel::FindTopLevelBoundaries(doc, splits);
        // Every boundary is a record start, and the prefix before it
        // holds exactly the records the tokenizer places there.
        uint64_t sum = 0;
        uint64_t begin = 0;
        for (uint64_t b : bounds) {
          EXPECT_TRUE(std::binary_search(starts.begin(), starts.end(), b))
              << "boundary " << b << " is not a record start";
          const uint64_t before = static_cast<uint64_t>(
              std::lower_bound(starts.begin(), starts.end(), b) -
              starts.begin());
          EXPECT_EQ(parallel::CountTopLevelStarts(doc, 0, b, 0), before);
          sum += parallel::CountTopLevelStarts(doc, begin, b,
                                               begin == 0 ? 0 : 1);
          begin = b;
        }
        sum += parallel::CountTopLevelStarts(doc, begin, doc.size(),
                                             begin == 0 ? 0 : 1);
        EXPECT_EQ(sum, total);
      }
    }
  }
  simd::SetIsa(saved);
}

// --- Static boundary-state analysis ---------------------------------------

TEST(BoundaryStatesTest, StarRootEnumeratesBoundaryPhases) {
  // (b|c)* root: a boundary can follow <a>, </b>, or </c> -- three DFA
  // states that differ only in their entry action, so the sharder
  // collapses them into ONE speculative behavior class (asserted via the
  // ShardReport in FullySpeculativeWaveHasNoSerialPrefix).
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  ASSERT_EQ(pf.tables().boundary_states.size(), 3u);
  for (int q : pf.tables().boundary_states) {
    ASSERT_GE(q, 0);
    ASSERT_LT(static_cast<size_t>(q), pf.tables().states.size());
    EXPECT_FALSE(pf.tables().states[static_cast<size_t>(q)].is_final);
  }
}

TEST(BoundaryStatesTest, RootCopyCandidatesCarryCopyDepth) {
  // A root-copying query (/a#) turns the whole document into one copy
  // region, so EVERY top-level boundary sits at copy depth 1. The analysis
  // must say so -- (state, depth) pairs, depths parallel to the states --
  // while plain child queries stay all-depth-0.
  Prefilter deep = Compile(kPaperDtd, "/a#");
  ASSERT_EQ(deep.tables().boundary_copy_depths.size(),
            deep.tables().boundary_states.size());
  ASSERT_FALSE(deep.tables().boundary_states.empty());
  for (int d : deep.tables().boundary_copy_depths) EXPECT_EQ(d, 1);

  Prefilter shallow = Compile(kPaperDtd, "/a/b#");
  ASSERT_EQ(shallow.tables().boundary_copy_depths.size(),
            shallow.tables().boundary_states.size());
  for (int d : shallow.tables().boundary_copy_depths) EXPECT_EQ(d, 0);
}

TEST(BoundaryStatesTest, OrderedRootEnumeratesAllPhases) {
  // (x, y, z) root: the run is in a different state before x, y, and z, so
  // the analysis must report several candidates (and each boundary's true
  // state must be among them -- covered by the fuzz property suite).
  const char dtd[] =
      "<!DOCTYPE r [ <!ELEMENT r (x, y, z)> <!ELEMENT x (b*)>"
      " <!ELEMENT y (b*)> <!ELEMENT z (b*)> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/r/y#");
  EXPECT_GE(pf.tables().boundary_states.size(), 2u);
  for (int q : pf.tables().boundary_states) {
    ASSERT_GE(q, 0);
    ASSERT_LT(static_cast<size_t>(q), pf.tables().states.size());
  }
}

TEST(BoundaryStatesTest, OpaqueRecursionCandidatesContainTrueStates) {
  // Recursive (opaque) top-level content: the analysis models the region
  // nondeterministically, so the candidate set must still contain the true
  // entry state at every top-level boundary.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (item*)>"
      " <!ELEMENT item (name, tree)> <!ELEMENT name (#PCDATA)>"
      " <!ELEMENT tree (leaf | tree)*> <!ELEMENT leaf (#PCDATA)> ]>";
  CompileOptions copts;
  copts.allow_recursion = true;
  Prefilter pf = Compile(dtd, "//name#", copts);
  const std::vector<int>& candidates = pf.tables().boundary_states;
  ASSERT_FALSE(candidates.empty());
  std::string doc = "<a>";
  std::vector<size_t> boundaries;
  for (int i = 0; i < 12; ++i) {
    boundaries.push_back(doc.size());
    doc += "<item><name>n" + std::to_string(i) + "</name>"
           "<tree><tree><leaf>d</leaf><tree/></tree><leaf>x</leaf></tree>"
           "</item>";
  }
  doc += "</a>";
  for (size_t b : boundaries) {
    SCOPED_TRACE(b);
    StringSink sink;
    RunStats stats;
    PrefilterSession session(pf.tables(), &sink, &stats);
    ASSERT_TRUE(session.Resume(std::string_view(doc).substr(0, b)).ok());
    int state = session.checkpoint().state;
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), state) !=
                candidates.end())
        << "true state " << state << " missing at boundary " << b;
  }
}

TEST(BoundaryStatesTest, MapDispatchGetsTheSameAnalysis) {
  CompileOptions copts;
  copts.tables.use_map_dispatch = true;
  Prefilter legacy = Compile(kPaperDtd, "/a/b#", copts);
  Prefilter modern = Compile(kPaperDtd, "/a/b#");
  EXPECT_EQ(legacy.tables().boundary_states,
            modern.tables().boundary_states);
}

// --- Sharded execution ----------------------------------------------------

/// Asserts byte-identical output and equal semantic stat totals between the
/// serial engine and ShardedRun at several thread/shard counts.
void ExpectShardedIdentical(const Prefilter& pf, const std::string& doc,
                            const core::EngineOptions& eopts = {}) {
  RunStats serial_stats;
  std::string serial = SerialRun(pf, doc, &serial_stats, eopts);
  for (int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE(threads);
    parallel::ThreadPool pool(threads);
    for (size_t shards : {static_cast<size_t>(threads), size_t{3},
                          size_t{5}}) {
      SCOPED_TRACE(shards);
      StringSink sink;
      RunStats stats;
      parallel::ShardOptions opts;
      opts.max_shards = shards;
      opts.engine = eopts;
      Status s =
          parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool, opts);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(sink.str(), serial);
      EXPECT_EQ(stats.matches, serial_stats.matches);
      EXPECT_EQ(stats.false_matches, serial_stats.false_matches);
      EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
      EXPECT_EQ(stats.initial_jump_chars, serial_stats.initial_jump_chars);
      EXPECT_EQ(stats.states_visited, serial_stats.states_visited);
      EXPECT_EQ(stats.input_bytes, serial_stats.input_bytes);
    }
  }
}

TEST(ShardedRunTest, StarRootMatchesSerial) {
  // Star-shaped root: speculation hits on every boundary.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::string doc = "<a>";
  for (int i = 0; i < 300; ++i) {
    doc += "<b>keep " + std::to_string(i) + "</b>";
    doc += "<c><b>drop</b><b>drop2</b></c>";
  }
  doc += "</a>";
  ExpectShardedIdentical(pf, doc);
}

TEST(ShardedRunTest, OrderedRootMisspeculationStillMatchesSerial) {
  // Sequenced root content: every boundary has a distinct DFA state, so
  // speculation fails and the verification pass re-runs shards -- output
  // must still be byte-identical.
  const char dtd[] =
      "<!DOCTYPE r [ <!ELEMENT r (x, y, z)> <!ELEMENT x (b*)>"
      " <!ELEMENT y (b*)> <!ELEMENT z (b*)> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/r/y#");
  std::string fill;
  for (int i = 0; i < 120; ++i) fill += "<b>payload text</b>";
  std::string doc =
      "<r><x>" + fill + "</x><y>" + fill + "</y><z>" + fill + "</z></r>";
  ExpectShardedIdentical(pf, doc);
}

TEST(ShardedRunTest, CdataCommentsAndFakeTagsAcrossBoundaries) {
  // Split targets that would naively land mid-tag or inside CDATA/comment
  // regions full of vocabulary-lookalike text.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::string doc = "<a>";
  for (int i = 0; i < 50; ++i) {
    doc += "<b>text with &lt;zzz&gt; lookalikes <zzz attr=\"quoted>gt\"> "
           "and more</b>";
    doc += "<c><!-- <zzz>commented</zzz> -->plain</c>";
    doc += "<c><![CDATA[ <zzz>cdata</zzz> ]]></c>";
  }
  doc += "</a>";
  ExpectShardedIdentical(pf, doc);
}

TEST(ShardedRunTest, TinyWindowsAndEmptyShards) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  // Tiny document: more shards requested than top-level children exist.
  std::string tiny = "<a><b>x</b><c>y</c></a>";
  core::EngineOptions small;
  small.window_capacity = 64;
  ExpectShardedIdentical(pf, tiny, small);
  // Larger document through a tiny window.
  std::string doc = "<a>";
  for (int i = 0; i < 200; ++i) doc += "<b>abcdefgh</b><c>ignored</c>";
  doc += "</a>";
  ExpectShardedIdentical(pf, doc, small);
}

TEST(ShardedRunTest, OpaqueRecursionAcrossBoundaries) {
  // Recursive (opaque) regions spanning shard boundaries: the nesting
  // balance cannot be speculated, so these shards re-run -- output must
  // still match the serial engine.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (item*)>"
      " <!ELEMENT item (name, tree)> <!ELEMENT name (#PCDATA)>"
      " <!ELEMENT tree (leaf | tree)*> <!ELEMENT leaf (#PCDATA)> ]>";
  CompileOptions copts;
  copts.allow_recursion = true;
  Prefilter pf = Compile(dtd, "//name#", copts);
  std::string doc = "<a>";
  for (int i = 0; i < 80; ++i) {
    doc += "<item><name>n" + std::to_string(i) + "</name>"
           "<tree><tree><leaf>deep</leaf></tree><leaf>x</leaf></tree>"
           "</item>";
  }
  doc += "</a>";
  ExpectShardedIdentical(pf, doc);
}

TEST(ShardedRunTest, BudgetedSpillSegmentsMatchSerial) {
  // Output-buffer budgets far below the projected size force every shard
  // segment through SpillSink overflow and the ordered-commit replay; the
  // merged stream must stay byte-identical, including stats.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::string doc = "<a>";
  for (int i = 0; i < 400; ++i) {
    doc += "<b>projected payload " + std::to_string(i) + "</b>";
    doc += "<c>dropped</c>";
  }
  doc += "</a>";
  RunStats serial_stats;
  std::string serial = SerialRun(pf, doc, &serial_stats);
  ASSERT_GT(serial.size(), 4096u);
  for (size_t budget : {size_t{0}, size_t{1}, size_t{33}, size_t{4096}}) {
    SCOPED_TRACE(budget);
    parallel::ThreadPool pool(4);
    StringSink sink;
    RunStats stats;
    parallel::ShardOptions opts;
    opts.max_shards = 5;
    opts.max_buffer_bytes = budget;
    Status s =
        parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool, opts);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(sink.str(), serial);
    EXPECT_EQ(stats.matches, serial_stats.matches);
    EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
    EXPECT_EQ(stats.input_bytes, serial_stats.input_bytes);
  }
}

TEST(ShardedRunTest, BudgetedRerunsWriteThroughFreshSegments) {
  // A stray closing tag desynchronizes the boundary scanner (see
  // MisplacedBoundariesRerunAndStayIdentical), so shards misspeculate and
  // re-run at the frontier -- the re-run's segment replaces the rejected
  // attempts and must survive a one-byte budget (pure spill) unchanged.
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a><c><b>p</b> </stray> ";
  for (int i = 0; i < 60; ++i) doc += "<b>fake top level</b>";
  doc += "</c>";
  for (int i = 0; i < 10; ++i) doc += "<b>real</b>";
  doc += "</a>";
  std::string serial = SerialRun(pf, doc);
  parallel::ThreadPool pool(4);
  parallel::ShardOptions opts;
  opts.max_shards = 4;
  opts.max_buffer_bytes = 1;
  parallel::ShardReport report;
  StringSink sink;
  Status s = parallel::ShardedRun(pf.tables(), doc, &sink, nullptr, &pool,
                                  opts, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.str(), serial);
  EXPECT_GT(report.reruns, 0u);  // the re-run path really was exercised
}

TEST(ShardedRunTest, XmarkGeneratorDocMatchesSerial) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 400 << 10;
  std::string doc = xmlgen::GenerateXmark(gen);
  auto paths = paths::ProjectionPath::ParseList(
      "/site/people/person@ /site/people/person/name#");
  ASSERT_TRUE(paths.ok());
  auto pf = Prefilter::Compile(xmlgen::XmarkDtd(), *paths);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  ExpectShardedIdentical(*pf, doc);
}

TEST(ShardedRunTest, MedlineGeneratorDocMatchesSerial) {
  // Star-shaped MEDLINE root: the bulk-scaling case for sharding.
  xmlgen::MedlineOptions gen;
  gen.target_bytes = 400 << 10;
  std::string doc = xmlgen::GenerateMedline(gen);
  auto paths = paths::ProjectionPath::ParseList(
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo#");
  ASSERT_TRUE(paths.ok());
  auto pf = Prefilter::Compile(xmlgen::MedlineDtd(), *paths);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  ExpectShardedIdentical(*pf, doc);
}

TEST(ShardedRunTest, FullySpeculativeWaveHasNoSerialPrefix) {
  // With a usable static candidate set, every shard -- including the head
  // -- runs inside the parallel wave: nothing is prefiltered on the
  // sequential path, and every speculative shard verifies on a star root.
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a>";
  for (int i = 0; i < 400; ++i) {
    doc += "<b>keep " + std::to_string(i) + "</b><c><b>no</b></c>";
  }
  doc += "</a>";
  std::string serial = SerialRun(pf, doc);

  parallel::ThreadPool pool(4);
  parallel::ShardOptions opts;
  opts.max_shards = 4;
  parallel::ShardReport report;
  StringSink sink;
  RunStats stats;
  Status s = parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool,
                                  opts, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.str(), serial);
  EXPECT_EQ(report.shards, 4u);
  EXPECT_EQ(report.candidate_states, 3u);
  EXPECT_EQ(report.candidate_classes, 1u);
  EXPECT_EQ(report.speculated, 3u);
  EXPECT_EQ(report.accepted, 3u);
  EXPECT_EQ(report.reruns, 0u);
  EXPECT_EQ(report.serial_bytes, 0u);
  EXPECT_GT(report.wave_bytes, 0u);
}

TEST(ShardedRunTest, InCopyBoundariesSpeculateWithoutReruns) {
  // Deep-copy document: /a# copies the entire root subtree, so every
  // top-level boundary falls INSIDE the active copy region. These
  // hand-offs used to force a sequential re-run of every shard; with
  // (state, depth) candidates they speculate like clean ones -- zero
  // re-runs -- and the driver stitches in the copy bytes the predecessor's
  // suspension left unflushed, keeping output and stats byte-exact.
  Prefilter pf = Compile(kPaperDtd, "/a#");
  std::string doc = "<a>";
  for (int i = 0; i < 400; ++i) {
    doc += "<b>keep " + std::to_string(i) + "</b><c><b>no</b></c>";
  }
  doc += "</a>";
  RunStats serial_stats;
  std::string serial = SerialRun(pf, doc, &serial_stats);

  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    parallel::ThreadPool pool(threads);
    parallel::ShardOptions opts;
    opts.max_shards = 4;
    parallel::ShardReport report;
    StringSink sink;
    RunStats stats;
    Status s = parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool,
                                    opts, &report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(sink.str(), serial);
    EXPECT_EQ(report.shards, 4u);
    EXPECT_EQ(report.reruns, 0u);
    EXPECT_EQ(report.accepted, 3u);
    EXPECT_EQ(report.copy_handoffs, 3u);
    EXPECT_EQ(report.serial_bytes, 0u);
    EXPECT_EQ(stats.matches, serial_stats.matches);
    EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
    EXPECT_EQ(stats.input_bytes, serial_stats.input_bytes);
    EXPECT_EQ(stats.states_visited, serial_stats.states_visited);
  }
}

TEST(ShardedRunTest, InCopyBoundariesUnderTinyBudgetSpillCleanly) {
  // Same deep-copy shape under a 1 KiB per-shard budget: the hand-off
  // tails interleave with spilled segment streams through the ordered
  // commit without disturbing byte identity.
  Prefilter pf = Compile(kPaperDtd, "/a#");
  std::string doc = "<a>";
  for (int i = 0; i < 600; ++i) {
    doc += "<c><b>payload " + std::to_string(i * 7) + "</b></c>";
  }
  doc += "</a>";
  std::string serial = SerialRun(pf, doc);
  parallel::ThreadPool pool(4);
  parallel::ShardOptions opts;
  opts.max_shards = 7;
  opts.max_buffer_bytes = 1 << 10;
  parallel::ShardReport report;
  StringSink sink;
  RunStats stats;
  Status s = parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool,
                                  opts, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.str(), serial);
  EXPECT_EQ(report.reruns, 0u);
  EXPECT_GT(report.copy_handoffs, 0u);
}

TEST(ShardedRunTest, EarlyKillAcrossPoolSizesStaysByteIdentical) {
  // XMark's sectioned root yields several behavior classes, so every wave
  // carries losing attempts that resolution now kills mid-flight. Across
  // pool sizes (which shift kills between the skipped-before-start and
  // cancelled-mid-run paths) the surviving output must stay byte-identical
  // to serial with full stats parity, and the work ledger must balance:
  // every speculative slot is either accepted or replaced by a rerun.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 600 << 10;
  std::string doc = xmlgen::GenerateXmark(gen);
  auto paths = paths::ProjectionPath::ParseList(
      "/site/people/person@ /site/people/person/name#");
  ASSERT_TRUE(paths.ok());
  auto pfs = Prefilter::Compile(xmlgen::XmarkDtd(), *paths);
  ASSERT_TRUE(pfs.ok()) << pfs.status().ToString();
  const Prefilter& pf = *pfs;
  RunStats serial_stats;
  std::string serial = SerialRun(pf, doc, &serial_stats);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    parallel::ThreadPool pool(threads);
    parallel::ShardOptions opts;
    opts.max_shards = 8;
    parallel::ShardReport report;
    StringSink sink;
    RunStats stats;
    Status s = parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool,
                                    opts, &report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(sink.str(), serial);
    EXPECT_EQ(stats.matches, serial_stats.matches);
    EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
    EXPECT_EQ(stats.states_visited, serial_stats.states_visited);
    EXPECT_EQ(stats.input_bytes, serial_stats.input_bytes);
    EXPECT_GE(report.candidate_classes, 2u);
    EXPECT_EQ(report.accepted + report.reruns, report.speculated);
  }
}

TEST(ShardedRunTest, LosingAttemptsAreKilledNotRun) {
  // Park the only worker on a sleeper task: the resolving thread steals
  // each segment's accepted attempt inline and marks the losers long
  // before the worker can touch them. Whether the worker wakes to find
  // them marked (skipped before start) or mid-run (cancelled at a safe
  // point), losers must never be completed for nothing -- the report's
  // killed counter proves the reclaim happened.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 2 << 20;
  std::string doc = xmlgen::GenerateXmark(gen);
  auto paths = paths::ProjectionPath::ParseList(
      "/site/people/person@ /site/people/person/name#");
  ASSERT_TRUE(paths.ok());
  auto pfs = Prefilter::Compile(xmlgen::XmarkDtd(), *paths);
  ASSERT_TRUE(pfs.ok()) << pfs.status().ToString();
  const Prefilter& pf = *pfs;
  std::string serial = SerialRun(pf, doc);
  parallel::ThreadPool pool(1);
  pool.Submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  parallel::ShardOptions opts;
  opts.max_shards = 8;
  parallel::ShardReport report;
  StringSink sink;
  Status s = parallel::ShardedRun(pf.tables(), doc, &sink, nullptr, &pool,
                                  opts, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.str(), serial);
  ASSERT_GE(report.candidate_classes, 2u);
  ASSERT_GT(report.speculated, 0u);
  // At least one loser per resolved segment existed; with the resolver
  // ahead of a single worker, some of them must have been reclaimed.
  EXPECT_GT(report.killed, 0u);
  // Killed attempts never contribute accepted slots.
  EXPECT_EQ(report.accepted + report.reruns, report.speculated);
}

TEST(ShardedRunTest, MisplacedBoundariesRerunAndStayIdentical) {
  // A stray closing tag inside c's (DTD-invalid) content desynchronizes
  // the structural scanner's depth tracking, so split candidates land on
  // nested elements. Speculation then mismatches, the verification pass
  // re-runs those shards, and the output must still equal the serial run.
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a><c><b>p</b> </stray> ";
  for (int i = 0; i < 60; ++i) doc += "<b>fake top level</b>";
  doc += "</c>";
  for (int i = 0; i < 10; ++i) doc += "<b>real</b>";
  doc += "</a>";
  std::string serial = SerialRun(pf, doc);

  parallel::ThreadPool pool(4);
  parallel::ShardOptions opts;
  opts.max_shards = 4;
  parallel::ShardReport report;
  StringSink sink;
  RunStats stats;
  Status s = parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool,
                                  opts, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.str(), serial);
  ASSERT_GT(report.shards, 1u);
  EXPECT_GE(report.reruns, 1u);
  EXPECT_EQ(report.accepted + report.reruns, report.speculated);
  EXPECT_GT(report.serial_bytes, 0u);
}

TEST(ShardedRunTest, TruncatedDocumentFailsLikeSerial) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b)*> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::string doc = "<a>";
  for (int i = 0; i < 50; ++i) doc += "<b>x</b>";
  // No closing </a>.
  MemoryInputStream in(doc);
  StringSink serial_sink;
  Status serial = pf.Run(&in, &serial_sink);
  ASSERT_FALSE(serial.ok());

  parallel::ThreadPool pool(4);
  StringSink sink;
  RunStats stats;
  Status sharded =
      parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool, {});
  EXPECT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.code(), serial.code());
}

// --- Batch driver ---------------------------------------------------------

TEST(BatchRunTest, ManyDocumentsMatchPerDocumentSerialRuns) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::vector<std::string> docs;
  for (int d = 0; d < 12; ++d) {
    std::string doc = "<a>";
    for (int i = 0; i <= d * 7; ++i) {
      doc += "<b>d" + std::to_string(d) + "i" + std::to_string(i) + "</b>";
      doc += "<c>skip</c>";
    }
    doc += "</a>";
    docs.push_back(doc);
  }
  std::vector<std::string_view> views(docs.begin(), docs.end());

  std::string expected;
  RunStats expected_stats;
  for (const std::string& d : docs) {
    RunStats st;
    expected += SerialRun(pf, d, &st);
    parallel::MergeRunStats(&expected_stats, st);
  }

  for (int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE(threads);
    parallel::ThreadPool pool(threads);
    StringSink sink;
    RunStats stats;
    Status s = parallel::BatchRunMerged(pf.tables(), views, &sink, &stats,
                                        &pool);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(sink.str(), expected);
    EXPECT_EQ(stats.matches, expected_stats.matches);
    EXPECT_EQ(stats.output_bytes, expected_stats.output_bytes);
    EXPECT_EQ(stats.input_bytes, expected_stats.input_bytes);
  }
}

TEST(BatchRunTest, PerDocumentErrorsAreIsolatedAndOrdered) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b)*> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::vector<std::string_view> docs = {
      "<a><b>ok1</b></a>",
      "<a><b>truncated",  // invalid
      "<a><b>ok2</b></a>",
  };
  parallel::ThreadPool pool(3);
  std::vector<parallel::BatchResult> results =
      parallel::BatchRun(pf.tables(), docs, &pool);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[1].status.ok());
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[0].output, "<a><b>ok1</b></a>");
  EXPECT_EQ(results[2].output, "<a><b>ok2</b></a>");
}

TEST(BatchRunTest, StreamingMergedMatchesBufferedMergeAcrossBudgets) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::vector<std::string> docs;
  for (int d = 0; d < 9; ++d) {
    std::string doc = "<a>";
    for (int i = 0; i <= d * 11; ++i) {
      doc += "<b>d" + std::to_string(d) + "i" + std::to_string(i) + "</b>";
      doc += "<c>skip</c>";
    }
    doc += "</a>";
    docs.push_back(doc);
  }
  std::string expected;
  RunStats expected_stats;
  for (const std::string& d : docs) {
    RunStats st;
    expected += SerialRun(pf, d, &st);
    parallel::MergeRunStats(&expected_stats, st);
  }
  std::vector<MemorySource> sources(docs.begin(), docs.end());
  std::vector<const InputSource*> srcs;
  for (const MemorySource& s : sources) srcs.push_back(&s);

  for (int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE(threads);
    parallel::ThreadPool pool(threads);
    for (size_t budget : {size_t{0}, size_t{1}, size_t{57}}) {
      SCOPED_TRACE(budget);
      parallel::StreamOptions sopts;
      sopts.chunk_bytes = 73;
      sopts.max_buffer_bytes = budget;
      StringSink sink;
      RunStats stats;
      Status s = parallel::BatchRunStreamingMerged(pf.tables(), srcs, &sink,
                                                   &stats, &pool, sopts);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(sink.str(), expected);
      EXPECT_EQ(stats.matches, expected_stats.matches);
      EXPECT_EQ(stats.output_bytes, expected_stats.output_bytes);
      EXPECT_EQ(stats.input_bytes, expected_stats.input_bytes);
    }
  }
}

TEST(BatchRunTest, StreamingMergedStopsAtTheFirstError) {
  // BatchRunMerged semantics: the first (lowest-index) failing document is
  // reported and only the clean prefix before it is emitted -- even though
  // later documents finish fine (possibly first) on other workers.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b)*> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::vector<std::string> docs = {
      "<a><b>ok1</b></a>",
      "<a><b>ok2</b></a>",
      "<a><b>truncated",  // invalid
      "<a><b>ok3</b></a>",
  };
  std::vector<MemorySource> sources(docs.begin(), docs.end());
  std::vector<const InputSource*> srcs;
  for (const MemorySource& s : sources) srcs.push_back(&s);
  parallel::ThreadPool pool(4);
  parallel::StreamOptions sopts;
  sopts.max_buffer_bytes = 4;
  StringSink sink;
  Status s = parallel::BatchRunStreamingMerged(pf.tables(), srcs, &sink,
                                               nullptr, &pool, sopts);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(sink.str(), "<a><b>ok1</b></a><a><b>ok2</b></a>");
}

// --- InputSource / mmap ---------------------------------------------------

TEST(BatchRunTest, StreamingToFilesWritesEveryDocumentWithErrorIsolation) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::vector<std::string> docs;
  for (int d = 0; d < 24; ++d) {
    std::string doc = "<a>";
    for (int i = 0; i <= d * 3; ++i) {
      doc += "<b>d" + std::to_string(d) + "i" + std::to_string(i) + "</b>";
      doc += "<c>skip</c>";
    }
    doc += "</a>";
    docs.push_back(doc);
  }
  docs[7] = "<a><b>never closed";  // fails mid-batch

  std::vector<MemorySource> sources(docs.begin(), docs.end());
  std::vector<const InputSource*> srcs;
  std::vector<std::string> out_paths;
  for (size_t i = 0; i < docs.size(); ++i) {
    srcs.push_back(&sources[i]);
    out_paths.push_back(::testing::TempDir() + "/smpx_tofiles_" +
                        std::to_string(i) + ".xml");
  }

  // Tiny budgets force the spill + parked-segment path; 0 keeps segments
  // resident. Both must produce identical files.
  for (size_t budget : {size_t{0}, size_t{16}}) {
    SCOPED_TRACE(budget);
    parallel::ThreadPool pool(4);
    parallel::StreamOptions opts;
    opts.chunk_bytes = 13;
    opts.max_buffer_bytes = budget;
    std::vector<RunStats> stats;
    std::vector<Status> statuses = parallel::BatchRunStreamingToFiles(
        pf.tables(), srcs, out_paths, &stats, &pool, opts);
    ASSERT_EQ(statuses.size(), docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      auto content = ReadFileToString(out_paths[i]);
      ASSERT_TRUE(content.ok()) << out_paths[i];
      if (i == 7) {
        EXPECT_FALSE(statuses[i].ok());
        continue;  // partial projection; content depends on failure point
      }
      EXPECT_TRUE(statuses[i].ok()) << statuses[i].ToString();
      EXPECT_EQ(*content, SerialRun(pf, docs[i], nullptr))
          << "doc " << i << " budget " << budget;
      EXPECT_EQ(stats[i].output_bytes, content->size());
    }
  }
  for (const std::string& p : out_paths) std::remove(p.c_str());
}

TEST(InputSourceTest, MemorySourceRoundTrip) {
  MemorySource src("hello world");
  EXPECT_EQ(src.size(), 11u);
  EXPECT_EQ(src.Contiguous(), "hello world");
  char buf[5];
  auto n = src.ReadAt(6, buf, 5);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  EXPECT_EQ(std::string_view(buf, 5), "world");
  EXPECT_EQ(*src.ReadAt(11, buf, 5), 0u);
}

TEST(InputSourceTest, MmapSourceReadsFileAndStreams) {
  std::string path = ::testing::TempDir() + "/smpx_mmap_test.xml";
  std::string content = "<a><b>mmap payload</b></a>";
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  auto src = MmapSource::Open(path);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  EXPECT_EQ((*src)->size(), content.size());
  EXPECT_EQ((*src)->Contiguous(), content);

  // The pull adapter feeds the serial engine from the mapping.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b)*> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  SourceStream stream(src->get());
  StringSink sink;
  ASSERT_TRUE(pf.Run(&stream, &sink).ok());
  EXPECT_EQ(sink.str(), content);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smpx::core
