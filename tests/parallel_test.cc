// Determinism tests for the resumable PrefilterSession and the parallel
// sharded/batch execution layer: chunked, sharded, and batched runs must be
// byte-identical to the serial engine, with merged RunStats totals
// matching, across thread counts, odd shard boundaries (mid-tag, inside
// CDATA/comments), tiny windows, and empty shards.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/prefilter.h"
#include "parallel/batch.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "query/multiquery.h"
#include "simd/simd.h"
#include "strmatch/matcher.h"
#include "xml/tokenizer.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx::core {
namespace {

constexpr char kPaperDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";

/// Recursive: `tree` nests in itself, so under allow_recursion a copied
/// tree ("//tree#") ends where its nesting count returns to zero.
constexpr char kTreeDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (item*)>"
    " <!ELEMENT item (name, tree)> <!ELEMENT name (#PCDATA)>"
    " <!ELEMENT tree (leaf | tree)*> <!ELEMENT leaf (#PCDATA)> ]>";

/// kTreeDtd whose trees may also hold names: `name` opens both as an item's
/// first child and inside the opaque trees, where a run skipping them is in
/// another state, so "<name" must not be a split keyword.
constexpr char kNamedTreeDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (item*)>"
    " <!ELEMENT item (name, tree)> <!ELEMENT name (#PCDATA)>"
    " <!ELEMENT tree (leaf | tree | name)*> <!ELEMENT leaf (#PCDATA)> ]>";

/// Phased root: the run waits for <y> before it and for </r> after it. The
/// recursive `t` is opaque under allow_recursion; x, y and z cannot occur
/// inside it, so "<x", "<y" and "<z" are split keywords (two classes: x
/// and y open before the projected y, z after it).
constexpr char kPhasedDtd[] =
    "<!DOCTYPE r [ <!ELEMENT r (x*, y, z*)> <!ELEMENT x (t)>"
    " <!ELEMENT y (#PCDATA)> <!ELEMENT z (t)>"
    " <!ELEMENT t (leaf | t)*> <!ELEMENT leaf (#PCDATA)> ]>";

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

void ExpectSameRunStats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.search.comparisons, b.search.comparisons);
  EXPECT_EQ(a.search.shifts, b.search.shifts);
  EXPECT_EQ(a.search.shift_chars, b.search.shift_chars);
  EXPECT_EQ(a.scan_chars, b.scan_chars);
  EXPECT_EQ(a.initial_jumps, b.initial_jumps);
  EXPECT_EQ(a.initial_jump_chars, b.initial_jump_chars);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.false_matches, b.false_matches);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.bm_searches, b.bm_searches);
  EXPECT_EQ(a.cw_searches, b.cw_searches);
  EXPECT_EQ(a.window_peak, b.window_peak);
}

/// The totals a sharded run shares with the serial one: everything but the
/// search-effort counters, which depend on where segments start.
void ExpectSameTotals(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.false_matches, b.false_matches);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.initial_jump_chars, b.initial_jump_chars);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.input_bytes, b.input_bytes);
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

TEST(SessionTest, PerQueryConstructorRunsSingleQueryTables) {
  // Single-query tables are the one-query case of the per-query session:
  // given one sink, the per-query constructor must reproduce the
  // single-sink constructor byte for byte and on every RunStats field, in
  // one Resume and in chunks, with one QueryRunStats entry holding the
  // aggregate's matches and output bytes.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 48 << 10;
  const std::string xmark = xmlgen::GenerateXmark(gen);
  std::string trees = "<a>";
  for (int i = 0; i < 40; ++i) {
    trees += "<item><name>n" + std::to_string(i) + "</name><tree>";
    for (int d = 0; d < i % 5; ++d) trees += "<tree><leaf>x</leaf>";
    for (int d = 0; d < i % 5; ++d) trees += "<tree/></tree>";
    trees += "</tree></item>";
  }
  trees += "</a>";
  const std::string xm9 =
      "/site/people/person@ /site/people/person/name# "
      "/site/closed_auctions/closed_auction/buyer@ "
      "/site/closed_auctions/closed_auction/itemref@ "
      "/site/regions/europe/item@ /site/regions/europe/item/name#";
  CompileOptions recursion;
  recursion.allow_recursion = true;
  CompileOptions maps;
  maps.tables.use_map_dispatch = true;
  struct Case {
    const char* label;
    std::string dtd;
    std::string paths;
    const std::string* doc;
    CompileOptions opts;
  };
  const std::vector<Case> cases = {
      {"copy regions and bachelor tags", xmlgen::XmarkDtdText(), xm9, &xmark,
       {}},
      {"copy-tag-atts", xmlgen::XmarkDtdText(),
       "/site/people/person/profile@ "
       "/site/open_auctions/open_auction/bidder/personref@ "
       "/site/regions/europe/item/incategory",
       &xmark, {}},
      {"counted nesting", kTreeDtd, "//name# //tree#", &trees, recursion},
      {"map dispatch", xmlgen::XmarkDtdText(), xm9, &xmark, maps},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    Prefilter pf = Compile(c.dtd, c.paths, c.opts);
    if (c.opts.allow_recursion) {
      bool counts = false;
      for (const DfaState& st : pf.tables().states) counts |= st.count_nesting;
      ASSERT_TRUE(counts);
    }
    const std::string_view doc = *c.doc;
    for (size_t chunk : {doc.size(), size_t{1}, size_t{7}, size_t{4096}}) {
      SCOPED_TRACE(chunk);
      StringSink single_sink, sink;
      RunStats single_stats, stats;
      std::vector<QueryRunStats> qstats;
      PrefilterSession single(pf.tables(), &single_sink, &single_stats);
      PrefilterSession per_query(pf.tables(), {&sink}, &qstats, &stats);
      for (size_t off = 0; off < doc.size(); off += chunk) {
        ASSERT_TRUE(single.Resume(doc.substr(off, chunk)).ok());
        ASSERT_TRUE(per_query.Resume(doc.substr(off, chunk)).ok());
      }
      ASSERT_TRUE(single.Finish().ok());
      Status s = per_query.Finish();
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_FALSE(single_sink.str().empty());
      EXPECT_EQ(sink.str(), single_sink.str());
      ExpectSameRunStats(stats, single_stats);
      ASSERT_EQ(qstats.size(), 1u);
      EXPECT_EQ(qstats[0].matches, stats.matches);
      EXPECT_EQ(qstats[0].output_bytes, stats.output_bytes);
    }
  }
}

TEST(SessionTest, ExhaustiveSuspendResumeAtEveryByteOffset) {
  // For a corpus of small documents covering every construct the session
  // can suspend inside (prolog, DOCTYPE subset, comments, CDATA, PIs,
  // quoted attributes, bachelor tags, opaque recursion, a product mix),
  // suspend at EVERY byte offset and resume in a fresh session built from
  // the checkpoint (per-query copy state included): each query's
  // concatenated output must be byte-identical to its own serial run.
  struct Case {
    const char* dtd;
    std::vector<std::string> queries;
    std::string doc;
    bool recursion = false;
  };
  const std::string paper_doc =
      "<?xml version=\"1.0\"?><!-- lead --><a><b>one</b>"
      "<c><b>shielded</b></c><b at=\"x>y\">two</b><b/><c><b/></c></a>";
  std::vector<Case> corpus;
  corpus.push_back({kPaperDtd, {"/a/b#"}, paper_doc});
  corpus.push_back(
      {kPaperDtd, {"/a/b#"},
       "<!DOCTYPE a [ <!-- <a><b>fake</b></a> --> <!ENTITY e \"q>r\"> ]>"
       "<a><![CDATA[ <b>cdata</b> ]]><b>real</b><?pi <b>no</b> ?></a>"});
  corpus.push_back(
      {kTreeDtd, {"//name# //tree#"},
       "<a><item><name>n</name><tree><tree><leaf>d</leaf></tree>"
       "<leaf>x</leaf></tree></item><item><name>m</name><tree/>"
       "</item></a>",
       /*recursion=*/true});
  corpus.push_back({kPaperDtd, {"/a/b#", "/a/c/b"}, paper_doc});
  for (size_t ci = 0; ci < corpus.size(); ++ci) {
    SCOPED_TRACE(ci);
    const Case& c = corpus[ci];
    CompileOptions copts;
    copts.allow_recursion = c.recursion;
    std::vector<std::string> serial;
    std::vector<std::vector<paths::ProjectionPath>> queries;
    for (const std::string& q : c.queries) {
      serial.push_back(SerialRun(Compile(c.dtd, q, copts), c.doc));
      queries.push_back(*paths::ProjectionPath::ParseList(q));
    }
    // One query runs on its own tables, several on their product.
    std::optional<Prefilter> pf;
    std::optional<query::MultiQuery> mq;
    if (queries.size() == 1) {
      pf.emplace(Compile(c.dtd, c.queries[0], copts));
    } else {
      auto compiled =
          query::MultiQuery::Compile(*dtd::Dtd::Parse(c.dtd), queries, copts);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      ASSERT_EQ(compiled->num_unique(), compiled->num_queries());
      mq.emplace(std::move(*compiled));
    }
    const RuntimeTables& tables = pf ? pf->tables() : mq->tables();
    const size_t n = queries.size();
    for (size_t cut = 0; cut <= c.doc.size(); ++cut) {
      SCOPED_TRACE(cut);
      std::vector<StringSink> first_sinks(n), second_sinks(n);
      std::vector<OutputSink*> first_ptrs, second_ptrs;
      for (size_t q = 0; q < n; ++q) {
        first_ptrs.push_back(&first_sinks[q]);
        second_ptrs.push_back(&second_sinks[q]);
      }
      RunStats stats1;
      PrefilterSession first(tables, first_ptrs, nullptr, &stats1);
      ASSERT_TRUE(
          first.Resume(std::string_view(c.doc).substr(0, cut)).ok());
      SessionCheckpoint cp = first.checkpoint();
      EXPECT_EQ(cp.mq_copy_depth.size(), n > 1 ? n : 0);
      RunStats stats2;
      PrefilterSession second(tables, second_ptrs, nullptr, &stats2, {}, &cp);
      ASSERT_TRUE(second
                      .Resume(std::string_view(c.doc).substr(
                          static_cast<size_t>(cp.feed_begin())))
                      .ok());
      ASSERT_TRUE(second.Finish().ok());
      for (size_t q = 0; q < n; ++q) {
        SCOPED_TRACE(q);
        EXPECT_EQ(first_sinks[q].str() + second_sinks[q].str(), serial[q]);
      }
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

TEST(SharderTest, KeywordProbeMatchesStructuralScan) {
  // Probing for the root's child names, on DTD-valid documents in which
  // those names occur nowhere else and never inside a comment, CDATA
  // section or PI, the BM/CW probe must pick exactly the structural scan's
  // boundaries -- under every SIMD tier, since both matchers probe their
  // candidates through the dispatched kernels.
  struct Case {
    std::string name;
    std::vector<std::string> keywords;
    std::string doc;
  };
  std::vector<Case> cases;
  const std::vector<std::string> medline_kw = {"<MedlineCitation"};
  const std::vector<std::string> xmark_kw = {
      "<categories",      "<catgraph", "<closed_auctions",
      "<open_auctions",   "<people",   "<regions"};
  for (uint64_t bytes : {uint64_t{256} << 10, uint64_t{8} << 20}) {
    xmlgen::MedlineOptions mgen;
    mgen.target_bytes = bytes;
    cases.push_back({"medline " + std::to_string(bytes), medline_kw,
                     xmlgen::GenerateMedline(mgen)});
    xmlgen::XmarkOptions xgen;
    xgen.target_bytes = bytes;
    cases.push_back({"xmark " + std::to_string(bytes), xmark_kw,
                     xmlgen::GenerateXmark(xgen)});
  }
  // DOCTYPE internal subset, quoted '>' and '/' in attribute values,
  // bachelor root children.
  const std::string quoted_dtd =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)>"
      " <!ELEMENT c (#PCDATA)> <!ATTLIST b at CDATA #IMPLIED>"
      " <!ATTLIST c at CDATA #IMPLIED> ]>";
  std::string quoted = "<?xml version=\"1.0\"?>" + quoted_dtd + "<a>";
  for (int i = 0; i < 150; ++i) {
    quoted += "<b at=\"q>r/s\">one " + std::to_string(i) + "</b><b/>";
    quoted += "<c at='/>'>two</c>\n<c\tat=\"x\"/>";
  }
  quoted += "</a>";
  cases.push_back({"quoted", {"<b", "<c"}, quoted});
  // Root-child names that prefix each other: "<b" must not take "<bb".
  std::string prefixed = "<a>";
  for (int i = 0; i < 200; ++i) {
    prefixed += i % 3 == 0 ? "<bb>xx</bb><bb/>" : "<bb >x</bb><b>y</b>";
  }
  prefixed += "</a>";
  cases.push_back({"prefix", {"<b", "<bb"}, prefixed});
  // A nested "<bb" below a root child, which the probe for the root's
  // children "<b" and "<c" must not take.
  std::string nested = "<a>";
  for (int i = 0; i < 200; ++i) {
    nested += "<c><bb>n</bb><bb/><bb>m</bb></c><b>k</b>";
  }
  nested += "</a>";
  cases.push_back({"nested", {"<b", "<c"}, nested});

  const simd::Isa saved = simd::ActiveIsa();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_FALSE(c.keywords.empty());
    for (size_t splits : {1u, 2u, 3u, 7u, 16u}) {
      SCOPED_TRACE(splits);
      const std::vector<uint64_t> ref =
          parallel::FindTopLevelBoundaries(c.doc, splits);
      ASSERT_FALSE(ref.empty());
      for (simd::Isa isa : simd::AvailableIsas()) {
        SCOPED_TRACE(simd::IsaName(isa));
        ASSERT_EQ(simd::SetIsa(isa), isa);
        const std::unique_ptr<strmatch::Matcher> matcher =
            strmatch::MakeMatcher(c.keywords);
        EXPECT_EQ(parallel::ProbeKeywordBoundaries(c.doc, *matcher, splits),
                  ref);
      }
      simd::SetIsa(saved);  // the next reference scan runs on the default
    }
  }
}

// --- Static boundary-state analysis ---------------------------------------

TEST(BoundaryStatesTest, StarRootEnumeratesBoundaryPhases) {
  // (b|c)* root: a boundary can follow <a>, </b>, or </c> -- three DFA
  // states that differ only in their entry action, i.e. one behavior
  // class, so "<c" is a split keyword whose one attempt stands for all
  // three (asserted via the ShardReport in
  // FullySpeculativeWaveHasNoSerialPrefix).
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

  // Split keywords: both dispatch modes number their states alike, so
  // they carry the same keywords with the same member states, and a
  // 2-query product over the DTD finds the same names.
  const std::string xmark_paths[] = {
      "/site/people/person@ /site/people/person/name#",
      "/site/people/person/emailaddress#"};
  Prefilter xlegacy = Compile(xmlgen::XmarkDtdText(), xmark_paths[0], copts);
  Prefilter xmodern = Compile(xmlgen::XmarkDtdText(), xmark_paths[0]);
  std::vector<std::vector<paths::ProjectionPath>> queries;
  for (const std::string& p : xmark_paths) {
    auto parsed = paths::ProjectionPath::ParseList(p);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    queries.push_back(std::move(*parsed));
  }
  auto mq = query::MultiQuery::Compile(xmlgen::XmarkDtd(), queries);
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  const SplitKeywords& legacy_kw = xlegacy.tables().split_keywords;
  const SplitKeywords& modern_kw = xmodern.tables().split_keywords;
  ASSERT_FALSE(modern_kw.empty());
  EXPECT_EQ(legacy_kw.keywords(), modern_kw.keywords());
  for (size_t i = 0; i < modern_kw.size() && i < legacy_kw.size(); ++i) {
    EXPECT_EQ(legacy_kw.states(i), modern_kw.states(i))
        << modern_kw.keywords()[i];
  }
  EXPECT_EQ(mq->tables().split_keywords.keywords(), modern_kw.keywords());
}

/// Asserts that every split keyword's member states form one behavior
/// class and that Find resolves each name to its own entry.
void ExpectOneClassPerKeyword(const RuntimeTables& t) {
  const SplitKeywords& split = t.split_keywords;
  for (size_t i = 0; i < split.size(); ++i) {
    const std::string& kw = split.keywords()[i];
    SCOPED_TRACE(kw);
    EXPECT_EQ(split.Find(std::string_view(kw).substr(1)),
              static_cast<int>(i));
    ASSERT_FALSE(split.states(i).empty());
    for (int q : split.states(i)) {
      EXPECT_TRUE(SameRuntimeBehavior(t, split.states(i).front(), q));
    }
  }
  EXPECT_EQ(split.Find("no-such-element"), -1);
}

bool HasSplitKeyword(const Prefilter& pf, const std::string& name) {
  return pf.tables().split_keywords.Find(name) >= 0;
}

TEST(SplitKeywordsTest, RecordNamesOfXmarkAndMedline) {
  Prefilter xmark = Compile(xmlgen::XmarkDtdText(),
                            "/site/people/person@ /site/people/person/name#");
  ExpectOneClassPerKeyword(xmark.tables());
  for (const char* name :
       {"person", "open_auction", "item", "people", "closed_auctions"}) {
    EXPECT_TRUE(HasSplitKeyword(xmark, name)) << name;
  }
  // A person's name is copied, anyone else's skipped: two classes.
  EXPECT_FALSE(HasSplitKeyword(xmark, "name"));
  // The root itself is no split point.
  EXPECT_FALSE(HasSplitKeyword(xmark, "site"));

  Prefilter medline = Compile(
      xmlgen::MedlineDtdText(),
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo#");
  ExpectOneClassPerKeyword(medline.tables());
  EXPECT_TRUE(HasSplitKeyword(medline, "MedlineCitation"));
  EXPECT_TRUE(HasSplitKeyword(medline, "MedlineJournalInfo"));
  // MedlineTA opens inside the copied MedlineJournalInfo, at copy depth 1.
  EXPECT_FALSE(HasSplitKeyword(medline, "MedlineTA"));
  EXPECT_FALSE(HasSplitKeyword(medline, "MedlineCitationSet"));

  // b opens both under a (copied) and under c (skipped): two classes.
  // c only opens under a, after <a>, </b> or </c>: one class.
  Prefilter paper = Compile(kPaperDtd, "/a/b#");
  ExpectOneClassPerKeyword(paper.tables());
  EXPECT_EQ(paper.tables().split_keywords.keywords(),
            std::vector<std::string>{"<c"});
  // Copying the root puts every element inside a copy region.
  EXPECT_TRUE(Compile(kPaperDtd, "/a#").tables().split_keywords.empty());
}

TEST(SplitKeywordsTest, NamesReachableFromOpaqueRegionsGetNone) {
  // An opaque (recursive) region may hold any name reachable from its
  // label in any balance, so those names get no keyword; every other name
  // opens only where the boundary-state walk sees it.
  CompileOptions copts;
  copts.allow_recursion = true;
  Prefilter tree = Compile(kTreeDtd, "/a/item/name#", copts);
  ExpectOneClassPerKeyword(tree.tables());
  EXPECT_EQ(tree.tables().split_keywords.keywords(),
            (std::vector<std::string>{"<item", "<name"}));
  Prefilter phased = Compile(kPhasedDtd, "/r/y#", copts);
  ExpectOneClassPerKeyword(phased.tables());
  EXPECT_EQ(phased.tables().split_keywords.keywords(),
            (std::vector<std::string>{"<x", "<y", "<z"}));
  Prefilter named = Compile(kNamedTreeDtd, "/a/item/name#", copts);
  EXPECT_EQ(named.tables().split_keywords.keywords(),
            std::vector<std::string>{"<item"});
  // tree, t and leaf occur inside opaque regions only.
  for (const Prefilter* pf : {&tree, &phased, &named}) {
    for (const char* name : {"tree", "t", "leaf"}) {
      EXPECT_FALSE(HasSplitKeyword(*pf, name)) << name;
    }
  }
  // Copying the opaque trees gets none: the walk's "still nested" fork at
  // </tree> carries the copy into the names that follow.
  const Prefilter copied = Compile(kTreeDtd, "/a/item/tree#", copts);
  EXPECT_TRUE(copied.tables().split_keywords.empty());
  EXPECT_EQ(copied.tables().split_keywords.matcher(), nullptr);
}

TEST(SplitKeywordsTest, FirstShardedRunsRaceToBuildTheMatcher) {
  // Fresh tables carry no split matcher yet: four threads start sharded
  // runs at once and race to build it. Every run must see one complete
  // matcher (TSan watches the hand-off) and match the serial output.
  Prefilter pf = Compile(xmlgen::XmarkDtdText(),
                         "/site/people/person@ /site/people/person/name#");
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 256 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  const std::string serial = SerialRun(pf, doc);
  constexpr int kThreads = 4;
  std::atomic<int> arrived{0};
  std::vector<std::string> outs(kThreads);
  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      parallel::ThreadPool pool(2);
      parallel::ShardOptions opts;
      opts.max_shards = 4;
      StringSink sink;
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      statuses[static_cast<size_t>(i)] = parallel::ShardedRun(
          pf.tables(), doc, &sink, nullptr, &pool, opts);
      outs[static_cast<size_t>(i)] = sink.TakeString();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(statuses[static_cast<size_t>(i)].ok())
        << statuses[static_cast<size_t>(i)].ToString();
    EXPECT_EQ(outs[static_cast<size_t>(i)], serial);
  }
  const strmatch::Matcher* built = pf.tables().split_keywords.matcher();
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(pf.tables().split_keywords.matcher(), built);
  EXPECT_EQ(built->patterns(), pf.tables().split_keywords.keywords());
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
      ExpectSameTotals(stats, serial_stats);
    }
  }
}

/// A kPhasedDtd document: `xs` x records, the projected y, then `zs` z
/// records. y's CDATA section holds `fakes` pairs of fake <x> and <z>
/// tags: split keywords to the probe, where the serial run is copying y,
/// so segments cut there mis-speculate and re-run while x and z segments
/// are accepted.
std::string PhasedDoc(int xs, int fakes, int zs) {
  std::string doc = "<r>";
  for (int i = 0; i < xs; ++i) {
    doc += "<x><t><leaf>x" + std::to_string(i) +
           "</leaf><t><leaf>deep</leaf></t></t></x>";
  }
  doc += "<y>the one projected record<![CDATA[";
  for (int i = 0; i < fakes; ++i) {
    doc += "<x>fake " + std::to_string(i) + "</x><z/>";
  }
  doc += "]]></y>";
  for (int i = 0; i < zs; ++i) {
    doc += "<z><t><t><leaf>z" + std::to_string(i) +
           "</leaf></t><leaf/></t></z>";
  }
  return doc + "</r>";
}

/// kPhasedDtd made DTD-invalid: y's text holds z records, so the probe
/// cuts inside y's copy region, where no "<z" class applies, and those
/// shards re-run.
std::string NestedZDoc() {
  std::string doc = "<r><y>p ";
  for (int i = 0; i < 60; ++i) doc += "<z><t><leaf>inside y</leaf></t></z>";
  doc += "</y>";
  for (int i = 0; i < 10; ++i) doc += "<z><t><leaf>real</leaf></t></z>";
  return doc + "</r>";
}

Prefilter CompilePhased() {
  CompileOptions copts;
  copts.allow_recursion = true;
  return Compile(kPhasedDtd, "/r/y#", copts);
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
  // Sequenced root content: the run is in a different DFA state before x,
  // y and z, but each of them opens in one, so "<x", "<y" and "<z" are
  // split keywords and the probe cuts only there (at most three segments
  // whatever the shard count) -- output must stay byte-identical.
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

/// Takes the first `limit` bytes appended, then fails: the Append that
/// crosses the limit lands its head and returns kIoError, as does every
/// later one, which is counted.
class FailingSink : public OutputSink {
 public:
  explicit FailingSink(size_t limit) : limit_(limit) {}
  Status Append(std::string_view data) override {
    if (failed_) ++appends_after_error_;
    const size_t room = limit_ - out_.size();
    out_.append(data.substr(0, room));
    bytes_written_ += std::min(room, data.size());
    if (data.size() <= room) return Status::Ok();
    failed_ = true;
    return Status::IoError("sink full");
  }
  const std::string& str() const { return out_; }
  size_t appends_after_error() const { return appends_after_error_; }

 private:
  size_t limit_;
  std::string out_;
  bool failed_ = false;
  size_t appends_after_error_ = 0;
};

TEST(ShardedRunTest, SinkErrorFailsTheRunAndLeavesASerialPrefix) {
  // Resolved segments replay straight into the caller's sink. A sink that
  // fails halfway through the projection fails the run with its own error,
  // is not written again, and holds a prefix of the serial projection --
  // with segments kept in memory and with segments spilled past 1 KiB.
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a>";
  for (int i = 0; i < 400; ++i) {
    doc += "<b>keep " + std::to_string(i) + "</b><c><b>no</b></c>";
  }
  doc += "</a>";
  const std::string serial = SerialRun(pf, doc);
  ASSERT_GT(serial.size(), 4096u);
  for (int threads : {2, 4}) {
    for (size_t budget : {size_t{0}, size_t{1024}}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, budget " +
                   std::to_string(budget));
      parallel::ThreadPool pool(threads);
      parallel::ShardOptions opts;
      opts.max_buffer_bytes = budget;
      parallel::ShardReport report;
      FailingSink sink(serial.size() / 2);
      Status s = parallel::ShardedRun(pf.tables(), doc, &sink, nullptr,
                                      &pool, opts, &report);
      EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
      EXPECT_EQ(s.message(), "sink full");
      EXPECT_EQ(report.shards, static_cast<size_t>(threads));
      EXPECT_EQ(sink.str(), serial.substr(0, serial.size() / 2));
      EXPECT_EQ(sink.appends_after_error(), 0u);
    }
  }
}

TEST(ShardedRunTest, BudgetedRerunsWriteThroughFreshSegments) {
  // Split keywords inside a copied element (see
  // MisplacedBoundariesRerunAndStayIdentical) make shards misspeculate and
  // re-run at the frontier -- the re-run's segment replaces the rejected
  // attempt and must survive a one-byte budget (pure spill) unchanged.
  Prefilter pf = CompilePhased();
  const std::string doc = NestedZDoc();
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
  EXPECT_EQ(report.accepted + report.reruns, report.speculated);
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

TEST(ShardedRunTest, KeywordLessTablesRunOneSerialSession) {
  // /a# copies the entire root, so every element opens inside a copy
  // region and the tables carry no split keyword: ShardedRun runs the
  // whole document as one session on the calling thread, straight into
  // the caller's sink, whatever the pool and budget -- output and every
  // RunStats field equal the serial engine's.
  Prefilter pf = Compile(kPaperDtd, "/a#");
  ASSERT_TRUE(pf.tables().split_keywords.empty());
  std::string doc = "<a>";
  for (int i = 0; i < 600; ++i) {
    doc += "<b>keep " + std::to_string(i) + "</b><c><b>" +
           std::to_string(i * 7) + "</b></c>";
  }
  doc += "</a>";
  RunStats serial_stats;
  std::string serial = SerialRun(pf, doc, &serial_stats);
  for (int threads : {1, 2, 4}) {
    for (size_t budget : {size_t{0}, size_t{1} << 10}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " budget=" << budget);
      parallel::ThreadPool pool(threads);
      parallel::ShardOptions opts;
      opts.max_buffer_bytes = budget;
      parallel::ShardReport report;
      StringSink sink;
      RunStats stats;
      Status s = parallel::ShardedRun(pf.tables(), doc, &sink, &stats,
                                      &pool, opts, &report);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(sink.str(), serial);
      ExpectSameRunStats(stats, serial_stats);
      EXPECT_EQ(report.shards, 1u);
      EXPECT_EQ(report.attempts, 0u);
      EXPECT_EQ(report.reruns, 0u);
      EXPECT_EQ(report.serial_bytes, serial_stats.input_bytes);
    }
  }
}

TEST(ShardedRunTest, ResolverRerunsBoundariesThatOpenNoSplitKeyword) {
  // ShardedRun cuts only at split keywords, but a resolver built by hand
  // takes any boundaries: here the structural scan's top-level element
  // starts over tables with no split keyword. Such a segment launches no
  // attempt and re-runs from its predecessor's true checkpoint, so the
  // head is the wave's one attempt and every other segment is a re-run;
  // the committed output equals the serial run's.
  Prefilter pf = Compile(kPaperDtd, "/a#");
  ASSERT_TRUE(pf.tables().split_keywords.empty());
  std::string doc = "<a>";
  for (int i = 0; i < 300; ++i) {
    doc += "<b>" + std::to_string(i) + "</b><c><b>x</b></c>";
  }
  doc += "</a>";
  const std::string serial = SerialRun(pf, doc);
  const std::vector<uint64_t> bounds = parallel::FindTopLevelBoundaries(doc, 3);
  ASSERT_EQ(bounds.size(), 3u);
  for (size_t budget : {size_t{0}, size_t{1} << 10}) {
    SCOPED_TRACE(budget);
    parallel::ThreadPool pool(2);
    parallel::SpeculativeResolver::Options ropts;
    ropts.max_buffer_bytes = budget;
    parallel::SpeculativeResolver resolver(pf.tables(), doc, bounds, ropts);
    const size_t n = resolver.segments();
    ASSERT_EQ(n, 4u);
    resolver.LaunchWave(&pool);
    StringSink sink;
    OrderedCommitSink commit(&sink, n);
    for (size_t k = 0; k < n; ++k) {
      parallel::ShardResult& r = resolver.Resolve(k);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ASSERT_TRUE(commit.Install(k, std::move(r.sink)).ok());
    }
    resolver.Abort();
    EXPECT_EQ(sink.str(), serial);
    const parallel::ShardReport& report = resolver.report();
    EXPECT_EQ(report.shards, n);
    EXPECT_EQ(report.attempts, 1u);
    EXPECT_EQ(report.speculated, 0u);
    EXPECT_EQ(report.accepted, 0u);
    EXPECT_EQ(report.reruns, n - 1);
    EXPECT_EQ(report.killed, 0u);
    EXPECT_EQ(report.candidate_classes, 0u);
    EXPECT_GT(report.serial_bytes, 0u);
  }
}

TEST(ShardedRunTest, EarlyKillAcrossPoolSizesStaysByteIdentical) {
  // Fake split keywords inside y's CDATA section make the waves carry
  // losing attempts that resolution kills mid-flight. Across pool sizes
  // (which shift kills between the skipped-before-start and
  // cancelled-mid-run paths) the surviving output must stay byte-identical
  // to serial with full stats parity, and the work ledger must balance:
  // every speculative slot is either accepted or replaced by a rerun.
  const Prefilter pf = CompilePhased();
  const std::string doc = PhasedDoc(3000, 3000, 3000);
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
    EXPECT_GT(report.reruns, 0u);
    EXPECT_EQ(report.accepted + report.reruns, report.speculated);
  }
}

TEST(ShardedRunTest, LosingAttemptsAreKilledNotRun) {
  // Park the only worker on a sleeper task: the resolving thread steals
  // each segment's accepted attempt inline and marks the losers long
  // before the worker can touch them. Whether the worker wakes to find
  // them marked (skipped before start) or mid-run (cancelled at a safe
  // point), losers must never be completed for nothing -- the report's
  // killed counter proves the reclaim happened. The losers are the
  // attempts of segments cut at fake keywords inside y's CDATA section.
  const Prefilter pf = CompilePhased();
  const std::string doc = PhasedDoc(8000, 8000, 8000);
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
  ASSERT_GT(report.speculated, 0u);
  ASSERT_GT(report.reruns, 0u);
  // Every re-run segment had a loser; with the resolver ahead of a single
  // worker, some of them must have been reclaimed.
  EXPECT_GT(report.killed, 0u);
  // Killed attempts never contribute accepted slots.
  EXPECT_EQ(report.accepted + report.reruns, report.speculated);
}

TEST(ShardedRunTest, MisplacedBoundariesRerunAndStayIdentical) {
  // z records inside y's (DTD-invalid) content put split keywords where
  // the serial run is copying y. Speculation then mismatches, the
  // verification pass re-runs those shards, and the output must still
  // equal the serial run.
  Prefilter pf = CompilePhased();
  const std::string doc = NestedZDoc();
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
  EXPECT_EQ(report.candidate_classes, 1u);
  EXPECT_GE(report.reruns, 1u);
  EXPECT_EQ(report.accepted + report.reruns, report.speculated);
  EXPECT_GT(report.serial_bytes, 0u);
}

TEST(ShardedRunTest, ProbeBoundariesInsideCdataRerun) {
  // b occurs only as a root child, so "<b" is a split keyword and
  // ShardedRun probes for it -- which finds the fake tags inside the CDATA
  // section of the copied c, where every split target lands. Those shards
  // mis-speculate (the serial run is inside a copy region there) and
  // re-run; the output must still equal the serial run.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/c#");
  ASSERT_GE(pf.tables().split_keywords.Find("b"), 0);
  std::string doc = "<a><b>start</b><c><![CDATA[";
  for (int i = 0; i < 300; ++i) doc += "<b>x</b>";
  doc += "]]></c><b>end</b></a>";
  std::string serial = SerialRun(pf, doc);

  parallel::ThreadPool pool(4);
  parallel::ShardOptions opts;
  opts.max_shards = 4;
  parallel::ShardReport report;
  StringSink sink;
  Status s = parallel::ShardedRun(pf.tables(), doc, &sink, nullptr, &pool,
                                  opts, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.str(), serial);
  EXPECT_GE(report.reruns, 1u);
  EXPECT_EQ(report.accepted + report.reruns, report.speculated);
}

TEST(ShardedRunTest, InitialJumpPastABoundaryReruns) {
  // The head's initial jump (table J) carries the serial cursor past the
  // first split point, over a <people> section the serial run never sees
  // (sections repeat, so the document is DTD-invalid). An attempt starting
  // at the split point would project that section; verification must see
  // the skipped keyword and re-run -- from a checkpoint past the end of
  // the re-run's own segment, which then reads nothing -- so the sharded
  // run fails like the serial one, with a prefix of its output.
  Prefilter pf = Compile(xmlgen::XmarkDtdText(),
                         "/site/people/person@ /site/people/person/name#");
  const std::string doc =
      "<site><regions>" + std::string(60, ' ') +
      "</regions><people><person id=\"p1\"><name>A</name></person>"
      "</people><open_auctions>" +
      std::string(200, ' ') +
      "</open_auctions><people><person id=\"p2\"><name>B</name></person>"
      "</people><closed_auctions></closed_auctions></site>";
  ASSERT_EQ(doc.size(), 470u);
  MemoryInputStream in(doc);
  StringSink serial_sink;
  const Status serial = pf.Run(&in, &serial_sink);
  ASSERT_FALSE(serial.ok());
  ASSERT_EQ(serial_sink.str(),
            "<site><people><person id=\"p2\"><name>B</name>");

  parallel::ThreadPool pool(4);
  parallel::ShardOptions opts;
  opts.max_shards = 8;
  parallel::ShardReport report;
  StringSink sink;
  const Status sharded = parallel::ShardedRun(pf.tables(), doc, &sink,
                                              nullptr, &pool, opts, &report);
  EXPECT_FALSE(sharded.ok()) << sink.str();
  EXPECT_EQ(sharded.code(), serial.code());
  EXPECT_EQ(serial_sink.str().compare(0, sink.str().size(), sink.str()), 0)
      << sink.str();
  EXPECT_GT(report.shards, 2u);
  EXPECT_GE(report.reruns, 1u);
}

/// 8 MB generator documents and their serial projections, made once per
/// process (the sharding suites also run under --gtest_repeat).
struct GeneratedCase {
  Prefilter pf;
  std::string doc;
  std::string serial;
  RunStats serial_stats;
};

const GeneratedCase& EightMegabyteCase(bool medline) {
  static const GeneratedCase* cases[2] = {nullptr, nullptr};
  static std::once_flag once[2];
  std::call_once(once[medline ? 1 : 0], [medline] {
    std::string doc;
    Prefilter pf =
        medline
            ? Compile(xmlgen::MedlineDtdText(),
                      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
                      "/MedlineCitationSet/MedlineCitation/DateCompleted#")
            : Compile(xmlgen::XmarkDtdText(),
                      "/site/people/person@ /site/people/person/name#");
    if (medline) {
      xmlgen::MedlineOptions gen;
      gen.target_bytes = 8 << 20;
      doc = xmlgen::GenerateMedline(gen);
    } else {
      xmlgen::XmarkOptions gen;
      gen.target_bytes = 8 << 20;
      doc = xmlgen::GenerateXmark(gen);
    }
    RunStats stats;
    std::string serial = SerialRun(pf, doc, &stats);
    cases[medline ? 1 : 0] = new GeneratedCase{
        std::move(pf), std::move(doc), std::move(serial), stats};
  });
  return *cases[medline ? 1 : 0];
}

TEST(ShardedRunTest, SplitKeywordWavesRunOneAttemptPerSegment) {
  // XMark and MEDLINE split at record-level keywords, where the entry
  // class is known statically: each segment runs exactly once, nothing is
  // killed or re-run, and the wave reads the document once.
  parallel::ThreadPool pool(4);
  for (bool medline : {false, true}) {
    const GeneratedCase& c = EightMegabyteCase(medline);
    for (size_t shards : {size_t{2}, size_t{4}, size_t{7}}) {
      SCOPED_TRACE(testing::Message()
                   << (medline ? "medline" : "xmark") << " shards=" << shards);
      parallel::ShardOptions opts;
      opts.max_shards = shards;
      parallel::ShardReport report;
      StringSink sink;
      const Status s = parallel::ShardedRun(c.pf.tables(), c.doc, &sink,
                                            nullptr, &pool, opts, &report);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_TRUE(sink.str() == c.serial);
      EXPECT_EQ(report.shards, shards);
      EXPECT_EQ(report.attempts, report.shards);
      EXPECT_EQ(report.candidate_classes, 1u);
      EXPECT_EQ(report.accepted, report.shards - 1);
      EXPECT_EQ(report.reruns, 0u);
      EXPECT_EQ(report.killed, 0u);
      EXPECT_EQ(report.serial_bytes, 0u);
      EXPECT_LE(report.wave_bytes, c.doc.size());
    }
  }
}

TEST(ShardedRunTest, DefaultSplitCutsSeveralSegmentsPerWorker) {
  // Under default options a pool of W > 1 workers cuts whole waves of W
  // segments (see ShardOptions::max_shards), so an 8 MB document runs two
  // to four segments per worker and the pool evens out their unequal
  // costs. Each segment still resolves once, and the budget its
  // worker's segments share leaves output and stats alone: every RunStats
  // field equals the same split pinned by max_shards with no budget, and
  // every total equals the serial run's.
  for (bool medline : {false, true}) {
    const GeneratedCase& c = EightMegabyteCase(medline);
    for (size_t workers : {size_t{2}, size_t{4}}) {
      ASSERT_GE(c.doc.size(), 3 * workers * (512u << 10));
      parallel::ThreadPool pool(static_cast<int>(workers));
      parallel::ShardReport pinned_report;
      RunStats pinned_stats;
      for (size_t budget : {size_t{0}, size_t{1} << 10, size_t{64} << 10}) {
        SCOPED_TRACE(testing::Message()
                     << (medline ? "medline" : "xmark") << " workers="
                     << workers << " budget=" << budget);
        parallel::ShardOptions opts;
        opts.max_buffer_bytes = budget;
        parallel::ShardReport report;
        StringSink sink;
        RunStats stats;
        const Status s = parallel::ShardedRun(c.pf.tables(), c.doc, &sink,
                                              &stats, &pool, opts, &report);
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_TRUE(sink.str() == c.serial);
        EXPECT_GT(report.shards, workers);
        EXPECT_LE(report.shards, 4 * workers);
        EXPECT_EQ(report.shards % workers, 0u);
        EXPECT_EQ(report.accepted + report.reruns, report.shards - 1);
        ExpectSameTotals(stats, c.serial_stats);
        if (pinned_report.shards == 0) {
          parallel::ShardOptions pinned;
          pinned.max_shards = report.shards;
          StringSink pinned_sink;
          ASSERT_TRUE(parallel::ShardedRun(c.pf.tables(), c.doc,
                                           &pinned_sink, &pinned_stats, &pool,
                                           pinned, &pinned_report)
                          .ok());
          EXPECT_TRUE(pinned_sink.str() == c.serial);
        }
        EXPECT_EQ(report.shards, pinned_report.shards);
        ExpectSameRunStats(stats, pinned_stats);
      }
    }
    // A one-worker pool runs the document as one serial session.
    SCOPED_TRACE(medline ? "medline, one worker" : "xmark, one worker");
    parallel::ThreadPool one(1);
    parallel::ShardReport report;
    StringSink sink;
    RunStats stats;
    const Status s = parallel::ShardedRun(c.pf.tables(), c.doc, &sink,
                                          &stats, &one, {}, &report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(sink.str() == c.serial);
    EXPECT_EQ(report.shards, 1u);
    EXPECT_EQ(report.attempts, 0u);
    ExpectSameRunStats(stats, c.serial_stats);
  }
}

/// Start tags below the root whose name is a split keyword, with the
/// keyword's index, per the full tokenizer -- so none inside a comment,
/// CDATA section or PI.
std::vector<std::pair<uint64_t, int>> SplitKeywordStarts(
    std::string_view doc, const SplitKeywords& split) {
  std::vector<std::pair<uint64_t, int>> starts;
  xml::Tokenizer tok(doc);
  xml::Token t;
  int64_t depth = 0;
  while (tok.Next(&t)) {
    if (t.type == xml::TokenType::kStartTag ||
        t.type == xml::TokenType::kEmptyTag) {
      const int kw = split.Find(t.name);
      if (depth >= 1 && kw >= 0) starts.emplace_back(t.begin, kw);
      if (t.type == xml::TokenType::kStartTag) ++depth;
    } else if (t.type == xml::TokenType::kEndTag) {
      --depth;
    }
  }
  return starts;
}

/// A kTreeDtd document with comments and CDATA sections (whose fake tags
/// match no keyword) inside names, inside the opaque trees and between
/// records. With `inner_names` the trees also hold names (kNamedTreeDtd).
std::string TreeDocWithMarkup(int items, bool inner_names = false) {
  std::string doc = "<a><!-- head <zz9/> -->";
  for (int i = 0; i < items; ++i) {
    doc += "<item><name>n" + std::to_string(i) +
           "<![CDATA[ <zz8> ]]></name><tree><!-- <zz7>in tree</zz7> -->"
           "<tree><leaf>d<![CDATA[<zz6/>]]></leaf><tree/></tree>" +
           std::string(inner_names ? "<name>inner</name>" : "") +
           "<leaf>x</leaf></tree></item>";
    if (i % 3 == 0) doc += "<!-- between <zz5/> records -->";
  }
  return doc + "</a>";
}

/// A kPhasedDtd document with comments and CDATA sections as above.
std::string PhasedDocWithMarkup(int xs, int zs) {
  std::string doc = "<r><!-- head <zz9/> -->";
  for (int i = 0; i < xs; ++i) {
    doc += "<x><t><!-- <zz8/> --><leaf>x" + std::to_string(i) +
           "</leaf><t><leaf><![CDATA[ <zz7> ]]></leaf></t></t></x>";
  }
  doc += "<y>projected <![CDATA[ <zz6/> ]]></y><!-- after y -->";
  for (int i = 0; i < zs; ++i) {
    doc += "<z><t><t><leaf>z" + std::to_string(i) +
           "</leaf></t><!-- <zz5> --><leaf/></t></z>";
  }
  return doc + "</r>";
}

TEST(ShardedRunTest, SplitKeywordsUnderRecursionRunOneAttemptPerSegment) {
  // Opaque DTDs keep split keywords for the names no opaque region can
  // hold. Queries that skip, copy and count the opaque regions: at every
  // keyword start tag the serial run must stand outside every copy and
  // opaque region in one of the keyword's member states, and sharded runs
  // cut at those keywords must run each segment once, with no re-run.
  // kNamedTreeDtd is the case that needs the rule: a run skipping a tree
  // meets its inner <name> in another state than an item's first one.
  CompileOptions copts;
  copts.allow_recursion = true;
  struct Case {
    const char* dtd;
    const char* paths;
    std::string doc;
  };
  const Case cases[] = {
      {kTreeDtd, "/a/item/name#", TreeDocWithMarkup(300)},
      {kTreeDtd, "/a/item/tree#", TreeDocWithMarkup(300)},
      {kNamedTreeDtd, "/a/item/name#", TreeDocWithMarkup(300, true)},
      {kPhasedDtd, "/r/y#", PhasedDocWithMarkup(200, 200)},
  };
  parallel::ThreadPool pool(4);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.paths);
    const Prefilter pf = Compile(c.dtd, c.paths, copts);
    const SplitKeywords& split = pf.tables().split_keywords;
    const std::string serial = SerialRun(pf, c.doc);

    StringSink sink;
    RunStats stats;
    PrefilterSession session(pf.tables(), &sink, &stats);
    uint64_t fed = 0;
    for (const auto& [offset, kw] : SplitKeywordStarts(c.doc, split)) {
      ASSERT_TRUE(session
                      .Resume(std::string_view(c.doc).substr(
                          static_cast<size_t>(fed),
                          static_cast<size_t>(offset - fed)))
                      .ok());
      fed = offset;
      const SessionCheckpoint cp = session.checkpoint();
      const std::vector<int>& members =
          split.states(static_cast<size_t>(kw));
      EXPECT_EQ(cp.copy_depth, 0) << split.keywords()[kw] << " at " << offset;
      EXPECT_EQ(cp.nesting_depth, 0u)
          << split.keywords()[kw] << " at " << offset;
      EXPECT_TRUE(
          std::binary_search(members.begin(), members.end(), cp.state))
          << "state " << cp.state << " at " << split.keywords()[kw] << " ("
          << offset << ") is not a member";
    }

    for (size_t shards : {size_t{2}, size_t{4}, size_t{7}}) {
      SCOPED_TRACE(shards);
      parallel::ShardOptions opts;
      opts.max_shards = shards;
      parallel::ShardReport report;
      StringSink out;
      const Status s = parallel::ShardedRun(pf.tables(), c.doc, &out,
                                            nullptr, &pool, opts, &report);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(out.str(), serial);
      if (split.empty()) {
        EXPECT_EQ(report.shards, 1u);
        continue;
      }
      EXPECT_EQ(report.shards, shards);
      EXPECT_EQ(report.attempts, report.shards);
      EXPECT_EQ(report.reruns, 0u);
    }
  }
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

TEST(BatchRunTest, PerDocumentErrorsAreIsolatedAndOrdered) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b)*> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::vector<std::string> docs = {
      "<a><b>ok1</b></a>",
      "<a><b>truncated",  // invalid
      "<a><b>ok2</b></a>",
  };
  std::vector<MemorySource> sources(docs.begin(), docs.end());
  std::vector<const InputSource*> srcs;
  for (const MemorySource& s : sources) srcs.push_back(&s);
  parallel::ThreadPool pool(3);
  std::vector<std::string> outputs(docs.size());
  std::vector<Status> statuses = parallel::BatchRunStreaming(
      pf.tables(), srcs,
      [&outputs](size_t doc, size_t query, SpillSink* seg) {
        EXPECT_EQ(query, 0u);
        StringSink sink;
        Status s = seg != nullptr ? seg->CopyTo(&sink) : Status::Ok();
        outputs[doc] = sink.TakeString();
        return s;
      },
      nullptr, nullptr, &pool);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_FALSE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(outputs[0], "<a><b>ok1</b></a>");
  EXPECT_EQ(outputs[2], "<a><b>ok2</b></a>");
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
  // First-error-prefix semantics: the first (lowest-index) failing document
  // is reported and only the clean prefix before it is emitted -- even though
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
    // The writer opens each document's file only when the frontier hands
    // it the segment: calls arrive in document order, one at a time, so
    // at most one output file is ever open.
    std::atomic<int> open_files{0};
    size_t next_doc = 0;
    std::vector<RunStats> stats;
    std::vector<Status> statuses = parallel::BatchRunStreaming(
        pf.tables(), srcs,
        [&](size_t doc, size_t query, SpillSink* seg) {
          EXPECT_EQ(open_files.fetch_add(1), 0);
          EXPECT_EQ(doc, next_doc++);
          EXPECT_EQ(query, 0u);
          auto file = BufferedFileSink::Open(out_paths[doc]);
          Status s = file.status();
          if (s.ok() && seg != nullptr) s = seg->CopyTo(file->get());
          if (s.ok()) s = (*file)->Flush();
          open_files.fetch_sub(1);
          return s;
        },
        nullptr, &stats, &pool, opts);
    ASSERT_EQ(statuses.size(), docs.size());
    EXPECT_EQ(next_doc, docs.size());
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

TEST(BatchRunTest, WriterErrorStopsTheFrontierAndIsReported) {
  // A writer failure is sticky: the frontier stops at the failing segment,
  // documents before it keep their status, and every document at or past
  // it reports the writer's error (its output was never fully written).
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b)*> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  std::vector<std::string> docs(6, "<a><b>x</b></a>");
  std::vector<MemorySource> sources(docs.begin(), docs.end());
  std::vector<const InputSource*> srcs;
  for (const MemorySource& s : sources) srcs.push_back(&s);
  parallel::ThreadPool pool(3);
  std::vector<size_t> written;
  std::vector<Status> statuses = parallel::BatchRunStreaming(
      pf.tables(), srcs,
      [&written](size_t doc, size_t, SpillSink*) {
        if (doc == 2) return Status::IoError("disk full");
        written.push_back(doc);
        return Status::Ok();
      },
      nullptr, nullptr, &pool);
  EXPECT_EQ(written, (std::vector<size_t>{0, 1}));
  ASSERT_EQ(statuses.size(), docs.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  for (size_t i = 2; i < docs.size(); ++i) {
    EXPECT_EQ(statuses[i].code(), StatusCode::kIoError) << i;
  }
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

  // The serial engine scans the mapping in place.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b)*> <!ELEMENT b (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/a/b#");
  MemoryInputStream stream((*src)->Contiguous());
  StringSink sink;
  ASSERT_TRUE(pf.Run(&stream, &sink).ok());
  EXPECT_EQ(sink.str(), content);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smpx::core
