// Differential suite for the multi-query projection engine (src/query):
// N queries compiled into one shared product DFA must emit, for EVERY
// original query and under EVERY driver (serial one-pass, chunked
// streaming, speculative sharding at 1/2/4/7 threads and with more
// segments than workers, streaming batch),
// output byte-identical to that query's independent single-query serial
// run -- the paper's per-query projection semantics are the oracle, the
// product automaton is the implementation under test. Also covered:
// query collapse (duplicates, order-permuted path lists, queries that
// compile to identical tables, and ones that must not collapse because
// they do not), the N=1 degenerate case against the single-query engine,
// N=65 mask-word spill (two uint64_t words per state), fused-superset
// projection safety per Definition 2, the rejection surface (recursive
// DTDs, map dispatch, sink counts that do not match the tables, boundary
// indexing over product tables), and the N=1 degenerate case of the
// drivers' one-sink-per-query contract on single-query tables.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/engine.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "parallel/batch.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "paths/projection_path.h"
#include "query/equivalence.h"
#include "query/multiquery.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx::query {
namespace {

constexpr char kPaperDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";

std::vector<paths::ProjectionPath> MustParse(std::string_view text) {
  auto parsed = paths::ProjectionPath::ParseList(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : std::vector<paths::ProjectionPath>{};
}

dtd::Dtd MustDtd(std::string_view text) {
  auto dtd = dtd::Dtd::Parse(text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return *dtd;
}

/// Ground truth: each query compiled and run alone by the single-query
/// engine. `ref_stats` (may be null) gets that run's RunStats per query.
std::vector<std::string> IndependentRuns(
    const dtd::Dtd& dtd, const std::vector<std::string>& mix,
    std::string_view doc, std::vector<core::RunStats>* ref_stats = nullptr) {
  std::vector<std::string> expected;
  if (ref_stats != nullptr) ref_stats->clear();
  for (const std::string& text : mix) {
    auto pf = core::Prefilter::Compile(dtd, MustParse(text));
    EXPECT_TRUE(pf.ok()) << text << ": " << pf.status().ToString();
    core::RunStats stats;
    auto out = pf->RunOnBuffer(doc, &stats);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    expected.push_back(out.ok() ? *out : std::string());
    if (ref_stats != nullptr) ref_stats->push_back(stats);
  }
  return expected;
}

MultiQuery CompileMix(const dtd::Dtd& dtd,
                      const std::vector<std::string>& mix) {
  std::vector<std::vector<paths::ProjectionPath>> queries;
  for (const std::string& text : mix) queries.push_back(MustParse(text));
  auto mq = MultiQuery::Compile(dtd, std::move(queries));
  EXPECT_TRUE(mq.ok()) << mq.status().ToString();
  return std::move(*mq);
}

/// Runs `mq` under every driver and asserts per-query byte identity with
/// `expected` plus per-query stats parity with `ref_stats`.
void ExpectAllDriversIdentical(const MultiQuery& mq, std::string_view doc,
                               const std::vector<std::string>& expected,
                               const std::vector<core::RunStats>& ref_stats) {
  const int nq = mq.num_queries();
  ASSERT_EQ(static_cast<size_t>(nq), expected.size());

  auto check = [&](const std::vector<StringSink>& sinks,
                   const std::vector<core::QueryRunStats>& qstats,
                   const char* driver) {
    ASSERT_EQ(qstats.size(), expected.size()) << driver;
    for (int j = 0; j < nq; ++j) {
      SCOPED_TRACE(std::string(driver) + " q" + std::to_string(j));
      EXPECT_EQ(sinks[static_cast<size_t>(j)].str(),
                expected[static_cast<size_t>(j)]);
      EXPECT_EQ(qstats[static_cast<size_t>(j)].output_bytes,
                expected[static_cast<size_t>(j)].size());
      EXPECT_EQ(qstats[static_cast<size_t>(j)].matches,
                ref_stats[static_cast<size_t>(j)].matches);
    }
  };

  // Serial one-pass.
  {
    std::vector<StringSink> sinks(static_cast<size_t>(nq));
    std::vector<OutputSink*> ptrs;
    for (auto& s : sinks) ptrs.push_back(&s);
    std::vector<core::QueryRunStats> qstats;
    core::RunStats stats;
    Status s = mq.RunOnBuffer(doc, ptrs, &qstats, &stats);
    ASSERT_TRUE(s.ok()) << s.ToString();
    check(sinks, qstats, "serial");
    EXPECT_EQ(stats.input_bytes, doc.size());
  }

  // Chunked streaming at several granularities.
  for (size_t chunk : {7u, 333u, 1u << 20}) {
    SCOPED_TRACE(chunk);
    parallel::StreamOptions sopts;
    sopts.chunk_bytes = chunk;
    MemorySource src(doc);
    std::vector<StringSink> sinks(static_cast<size_t>(nq));
    std::vector<OutputSink*> ptrs;
    for (auto& s : sinks) ptrs.push_back(&s);
    std::vector<std::unique_ptr<FanoutSink>> owned;
    std::vector<OutputSink*> unique_sinks;
    mq.RouteSinks(ptrs, &owned, &unique_sinks);
    std::vector<core::QueryRunStats> uq_stats;
    Status s = parallel::StreamRun(mq.tables(), src, unique_sinks, &uq_stats,
                                   nullptr, sopts);
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::vector<core::QueryRunStats> qstats;
    mq.ExpandStats(uq_stats, &qstats);
    check(sinks, qstats, "chunked");
  }

  // Speculative sharding across thread counts, with a small output budget
  // so per-query segments regularly overflow to spill files.
  for (int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE(threads);
    parallel::ThreadPool pool(threads);
    parallel::ShardOptions popts;
    popts.max_buffer_bytes = 512;
    std::vector<StringSink> sinks(static_cast<size_t>(nq));
    std::vector<OutputSink*> ptrs;
    for (auto& s : sinks) ptrs.push_back(&s);
    std::vector<std::unique_ptr<FanoutSink>> owned;
    std::vector<OutputSink*> unique_sinks;
    mq.RouteSinks(ptrs, &owned, &unique_sinks);
    std::vector<core::QueryRunStats> uq_stats;
    core::RunStats stats;
    Status s = parallel::ShardedRun(mq.tables(), doc, unique_sinks, &uq_stats,
                                    &stats, &pool, popts);
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::vector<core::QueryRunStats> qstats;
    mq.ExpandStats(uq_stats, &qstats);
    check(sinks, qstats, "sharded");
    EXPECT_EQ(stats.input_bytes, doc.size());
  }

  // Streaming batch driver (the document twice), bounded chunks: each
  // (document, unique query) segment is copied into that document's routed
  // sinks as the frontier hands it over.
  {
    parallel::ThreadPool pool(3);
    parallel::StreamOptions sopts;
    sopts.chunk_bytes = 1024;
    MemorySource src(doc);
    std::vector<const InputSource*> docs = {&src, &src};
    std::vector<std::vector<StringSink>> sinks(
        2, std::vector<StringSink>(static_cast<size_t>(nq)));
    std::vector<std::vector<std::unique_ptr<FanoutSink>>> owned(2);
    std::vector<std::vector<OutputSink*>> doc_sinks(2);
    for (size_t d = 0; d < 2; ++d) {
      std::vector<OutputSink*> ptrs;
      for (auto& s : sinks[d]) ptrs.push_back(&s);
      mq.RouteSinks(ptrs, &owned[d], &doc_sinks[d]);
    }
    std::vector<std::vector<core::QueryRunStats>> doc_qstats;
    std::vector<Status> statuses = parallel::BatchRunStreaming(
        mq.tables(), docs,
        [&doc_sinks](size_t d, size_t u, SpillSink* seg) {
          return seg != nullptr ? seg->CopyTo(doc_sinks[d][u]) : Status::Ok();
        },
        &doc_qstats, nullptr, &pool, sopts);
    for (size_t d = 0; d < 2; ++d) {
      ASSERT_TRUE(statuses[d].ok()) << statuses[d].ToString();
      std::vector<core::QueryRunStats> qstats;
      mq.ExpandStats(doc_qstats[d], &qstats);
      check(sinks[d], qstats, "batch");
    }
  }
}

// --- Mixed workloads on the paper's datasets ------------------------------

TEST(MultiQueryTest, XmarkMixAllDriversByteIdentical) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 96 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  const dtd::Dtd dtd = xmlgen::XmarkDtd();
  // Duplicate (q1/q3), overlapping prefixes (/site/people...), and
  // disjoint subtrees (regions vs auctions) in one mix.
  const std::vector<std::string> mix = {
      "/site/people/person/name#",
      "/site/open_auctions/open_auction/initial",
      "/site/people/person/name#",
      "/site/closed_auctions/closed_auction/price",
      "/site/regions//item/name#",
  };
  std::vector<core::RunStats> ref_stats;
  std::vector<std::string> expected =
      IndependentRuns(dtd, mix, doc, &ref_stats);
  MultiQuery mq = CompileMix(dtd, mix);
  EXPECT_EQ(mq.num_queries(), 5);
  EXPECT_EQ(mq.num_unique(), 4);  // the duplicate collapsed
  EXPECT_EQ(mq.unique_of(0), mq.unique_of(2));
  ExpectAllDriversIdentical(mq, doc, expected, ref_stats);
}

TEST(MultiQueryTest, MedlineMixAllDriversByteIdentical) {
  xmlgen::MedlineOptions gen;
  gen.target_bytes = 96 << 10;
  const std::string doc = xmlgen::GenerateMedline(gen);
  const dtd::Dtd dtd = xmlgen::MedlineDtd();
  const std::vector<std::string> mix = {
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo#",
      "/MedlineCitationSet/MedlineCitation/DateCompleted#",
      "/MedlineCitationSet/MedlineCitation/Article/Journal#",
  };
  std::vector<core::RunStats> ref_stats;
  std::vector<std::string> expected =
      IndependentRuns(dtd, mix, doc, &ref_stats);
  MultiQuery mq = CompileMix(dtd, mix);
  EXPECT_EQ(mq.num_unique(), 3);
  ExpectAllDriversIdentical(mq, doc, expected, ref_stats);
}

TEST(MultiQueryTest, ShardsBeyondThePoolSizeMatchEachQuerysOwnRun) {
  // A 4.5 MiB document on 4 workers: the default split cuts two segments
  // per worker, whose per-query SpillSinks share their worker's budget.
  // Every original query, the duplicate included, must still get its own
  // serial run's bytes.
  xmlgen::MedlineOptions gen;
  gen.target_bytes = 9 << 19;
  const std::string doc = xmlgen::GenerateMedline(gen);
  const dtd::Dtd dtd = xmlgen::MedlineDtd();
  const std::vector<std::string> mix = {
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo#",
      "/MedlineCitationSet/MedlineCitation/DateCompleted#",
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo#",
  };
  std::vector<core::RunStats> ref_stats;
  const std::vector<std::string> expected =
      IndependentRuns(dtd, mix, doc, &ref_stats);
  const MultiQuery mq = CompileMix(dtd, mix);
  EXPECT_EQ(mq.num_unique(), 2);
  for (size_t budget : {size_t{0}, size_t{4} << 10}) {
    SCOPED_TRACE(budget);
    parallel::ThreadPool pool(4);
    parallel::ShardOptions popts;
    popts.max_buffer_bytes = budget;
    std::vector<StringSink> sinks(mix.size());
    std::vector<OutputSink*> ptrs;
    for (auto& s : sinks) ptrs.push_back(&s);
    std::vector<std::unique_ptr<FanoutSink>> owned;
    std::vector<OutputSink*> unique_sinks;
    mq.RouteSinks(ptrs, &owned, &unique_sinks);
    std::vector<core::QueryRunStats> uq_stats;
    parallel::ShardReport report;
    Status s = parallel::ShardedRun(mq.tables(), doc, unique_sinks, &uq_stats,
                                    nullptr, &pool, popts, &report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_GT(report.shards, 4u);
    EXPECT_EQ(report.shards % 4, 0u);
    std::vector<core::QueryRunStats> qstats;
    mq.ExpandStats(uq_stats, &qstats);
    ASSERT_EQ(qstats.size(), mix.size());
    for (size_t j = 0; j < mix.size(); ++j) {
      SCOPED_TRACE(j);
      EXPECT_TRUE(sinks[j].str() == expected[j]);
      EXPECT_EQ(qstats[j].output_bytes, expected[j].size());
      EXPECT_EQ(qstats[j].matches, ref_stats[j].matches);
    }
  }
}

// --- Equivalence collapse -------------------------------------------------

TEST(MultiQueryTest, OrderPermutedPathListsCollapseSyntactically) {
  const dtd::Dtd dtd = MustDtd(kPaperDtd);
  const std::vector<std::string> mix = {"/a/b /a/c#", "/a/c# /a/b",
                                        "/a/b /a/b /a/c#"};
  MultiQuery mq = CompileMix(dtd, mix);
  // Canonicalization sorts and dedups each path list, so all three are one
  // unique query.
  EXPECT_EQ(mq.num_queries(), 3);
  EXPECT_EQ(mq.num_unique(), 1);

  const std::string doc =
      "<a><b>x</b><c><b>in</b></c><b>y</b><c><b>z</b><b>w</b></c></a>";
  std::vector<core::RunStats> ref_stats;
  std::vector<std::string> expected =
      IndependentRuns(dtd, mix, doc, &ref_stats);
  EXPECT_EQ(expected[0], expected[1]);
  EXPECT_EQ(expected[0], expected[2]);
  ExpectAllDriversIdentical(mq, doc, expected, ref_stats);
}

TEST(MultiQueryTest, SemanticallySubsumedQueriesCollapse) {
  const dtd::Dtd dtd = MustDtd(kPaperDtd);
  // "/a/zzz" matches nothing under this DTD (no zzz element), so the
  // second query projects exactly like plain "/a/b"; likewise "//b" and
  // "/a//b" reach the same b nodes because a is the only possible root.
  // Both pairs also COMPILE to behaviorally identical tables, so each
  // pair shares one component.
  {
    const std::vector<std::string> mix = {"/a/b", "/a/b /a/zzz"};
    MultiQuery mq = CompileMix(dtd, mix);
    EXPECT_EQ(mq.num_unique(), 1);

    const std::string doc = "<a><b>x</b><c><b>deep</b></c><b>y</b></a>";
    std::vector<core::RunStats> ref_stats;
    std::vector<std::string> expected =
        IndependentRuns(dtd, mix, doc, &ref_stats);
    EXPECT_EQ(expected[0], expected[1]);
    ExpectAllDriversIdentical(mq, doc, expected, ref_stats);
  }
  {
    // Descendant-axis flavor: "//zzz//b" needs a zzz ancestor that no
    // tree over this DTD's alphabet can have.
    const std::vector<std::string> mix = {"/a/b", "/a/b //zzz//b"};
    MultiQuery mq = CompileMix(dtd, mix);
    EXPECT_EQ(mq.num_unique(), 1);
  }
}

TEST(MultiQueryTest, QueriesDifferingOnlyOnForbiddenBranchesCollapse) {
  const dtd::Dtd dtd = MustDtd(kPaperDtd);
  // b holds only text, so no document valid for this DTD has the branch
  // /a/b/c. Over the bare element alphabet the two queries differ (only
  // the second would keep a c below a b), but both compile to the same
  // tables and therefore project the same bytes, so they share one
  // component.
  const std::vector<std::string> mix = {"/a/b#", "/a/b# /a/b/c#"};
  auto first = core::Prefilter::Compile(dtd, MustParse(mix[0]));
  auto second = core::Prefilter::Compile(dtd, MustParse(mix[1]));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->tables().Fingerprint(), second->tables().Fingerprint());

  MultiQuery mq = CompileMix(dtd, mix);
  EXPECT_EQ(mq.num_queries(), 2);
  EXPECT_EQ(mq.num_unique(), 1);

  const std::string doc =
      "<a><b>x</b><c><b>deep</b><b>er</b></c><b>y</b></a>";
  std::vector<core::RunStats> ref_stats;
  std::vector<std::string> expected =
      IndependentRuns(dtd, mix, doc, &ref_stats);
  EXPECT_EQ(expected[0], expected[1]);
  ExpectAllDriversIdentical(mq, doc, expected, ref_stats);
}

TEST(MultiQueryTest, AbstractlyEquivalentButDifferentlyCompiledStaySeparate) {
  const dtd::Dtd dtd = MustDtd(kPaperDtd);
  // The flag walk proves "/a//b /a/b" selects the same nodes as "/a//b"
  // (the exact path is subsumed), but the conservative relevance analysis
  // compiles the overlapping pair to a WIDER projection that emits
  // different bytes. Collapsing on abstract equivalence alone would break
  // the per-query byte-identity contract, so the compiler must keep the
  // two queries separate and give each its own single-query bytes.
  const std::vector<std::string> mix = {"/a//b", "/a//b /a/b"};
  MultiQuery mq = CompileMix(dtd, mix);
  EXPECT_EQ(mq.num_unique(), 2);

  const std::string doc = "<a><b>x</b><c><b>deep</b></c><b>y</b></a>";
  std::vector<core::RunStats> ref_stats;
  std::vector<std::string> expected =
      IndependentRuns(dtd, mix, doc, &ref_stats);
  // The engine genuinely emits different bytes for the two queries; that
  // asymmetry is exactly why the collapse must not fire.
  EXPECT_NE(expected[0], expected[1]);
  ExpectAllDriversIdentical(mq, doc, expected, ref_stats);
}

// --- Degenerate and boundary sizes ----------------------------------------

TEST(MultiQueryTest, SingleQueryMatchesSingleQueryEngine) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 48 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  const dtd::Dtd dtd = xmlgen::XmarkDtd();
  const std::string text = "/site/people/person/name#";

  auto pf = core::Prefilter::Compile(dtd, MustParse(text));
  ASSERT_TRUE(pf.ok());
  core::RunStats single_stats;
  auto single = pf->RunOnBuffer(doc, &single_stats);
  ASSERT_TRUE(single.ok());

  MultiQuery mq = CompileMix(dtd, {text});
  ASSERT_EQ(mq.num_queries(), 1);
  ASSERT_EQ(mq.num_unique(), 1);
  StringSink sink;
  std::vector<core::QueryRunStats> qstats;
  core::RunStats stats;
  Status s = mq.RunOnBuffer(doc, {&sink}, &qstats, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.str(), *single);
  EXPECT_EQ(stats.matches, single_stats.matches);
  EXPECT_EQ(stats.output_bytes, single_stats.output_bytes);
  EXPECT_EQ(stats.input_bytes, single_stats.input_bytes);
  EXPECT_EQ(qstats[0].matches, single_stats.matches);
  EXPECT_EQ(qstats[0].output_bytes, single_stats.output_bytes);
}

TEST(MultiQueryTest, SixtyFiveQueriesSpillIntoSecondMaskWord) {
  // 70 child kinds, 65 distinct queries: per-state masks need two
  // uint64_t words, and query 64 lives entirely in the second word.
  std::string dtd_text = "<!DOCTYPE root [ <!ELEMENT root (";
  for (int k = 0; k < 70; ++k) {
    if (k > 0) dtd_text += "|";
    dtd_text += "a" + std::to_string(k);
  }
  dtd_text += ")*>";
  for (int k = 0; k < 70; ++k) {
    dtd_text += " <!ELEMENT a" + std::to_string(k) + " (#PCDATA)>";
  }
  dtd_text += " ]>";
  const dtd::Dtd dtd = MustDtd(dtd_text);

  std::string doc = "<root>";
  for (int rep = 0; rep < 3; ++rep) {
    for (int k = 0; k < 70; ++k) {
      const std::string t = "a" + std::to_string(k);
      doc += "<" + t + ">v" + std::to_string(rep) + "</" + t + ">";
    }
  }
  doc += "</root>";

  std::vector<std::string> mix;
  for (int k = 0; k < 65; ++k) {
    mix.push_back("/root/a" + std::to_string(k) + "#");
  }
  MultiQuery mq = CompileMix(dtd, mix);
  ASSERT_EQ(mq.num_unique(), 65);
  ASSERT_NE(mq.tables().multi, nullptr);
  EXPECT_EQ(mq.tables().multi->words, 2);

  std::vector<core::RunStats> ref_stats;
  std::vector<std::string> expected =
      IndependentRuns(dtd, mix, doc, &ref_stats);
  for (int k = 0; k < 65; ++k) {
    EXPECT_NE(expected[static_cast<size_t>(k)].find(
                  "<a" + std::to_string(k) + ">"),
              std::string::npos);
  }
  ExpectAllDriversIdentical(mq, doc, expected, ref_stats);
}

// --- Fused superset -------------------------------------------------------

TEST(MultiQueryTest, FusedSupersetIsProjectionSafeForEveryQuery) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 32 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  const dtd::Dtd dtd = xmlgen::XmarkDtd();
  const std::vector<std::string> mix = {
      "/site/people/person/name#",
      "/site/open_auctions/open_auction/initial",
      "/site/regions//item/name#",
  };
  std::vector<std::vector<paths::ProjectionPath>> queries;
  for (const std::string& text : mix) queries.push_back(MustParse(text));
  auto fused = MultiQuery::CompileFused(dtd, queries);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  auto out = fused->RunOnBuffer(doc);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Definition 2: every query evaluates top-level-equal on the original
  // document and the fused projection.
  for (const std::string& text : mix) {
    SCOPED_TRACE(text);
    auto report = CheckProjectionSafety(doc, *out, MustParse(text));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->safe) << report->first_violation;
  }
}

// --- Rejection surface ----------------------------------------------------

TEST(MultiQueryTest, RejectsUnsupportedModesAndInputs) {
  const dtd::Dtd dtd = MustDtd(kPaperDtd);
  std::vector<std::vector<paths::ProjectionPath>> one = {MustParse("/a/b")};

  {  // Empty mix.
    auto mq = MultiQuery::Compile(dtd, {});
    EXPECT_FALSE(mq.ok());
  }
  {  // Opaque-recursion mode: per-query bitmask actions cannot tunnel.
    core::CompileOptions opts;
    opts.allow_recursion = true;
    auto mq = MultiQuery::Compile(dtd, one, opts);
    EXPECT_FALSE(mq.ok());
  }
  {  // Legacy map dispatch: the product needs interned transition arrays.
    core::CompileOptions opts;
    opts.tables.use_map_dispatch = true;
    auto mq = MultiQuery::Compile(dtd, one, opts);
    EXPECT_FALSE(mq.ok());
  }
}

TEST(MultiQueryTest, SingleQueryDriversRejectProductTables) {
  const dtd::Dtd dtd = MustDtd(kPaperDtd);
  MultiQuery mq = CompileMix(dtd, {"/a/b", "/a/c#"});
  const std::string doc = "<a><b>x</b><c><b>y</b></c></a>";

  {  // The single-sink ShardedRun writes ONE output; product tables have N.
    parallel::ThreadPool pool(2);
    StringSink sink;
    Status s =
        parallel::ShardedRun(mq.tables(), doc, &sink, nullptr, &pool, {});
    EXPECT_FALSE(s.ok());
  }
  {  // Boundary indexing over product tables is unsupported.
    auto idx = index::BoundaryIndex::Build(mq.tables(), MemorySource(doc));
    EXPECT_FALSE(idx.ok());
  }
  {  // Wrong sink count fails closed, sharded and streaming alike.
    parallel::ThreadPool pool(2);
    StringSink sink;
    std::vector<OutputSink*> sinks = {&sink};
    Status s = parallel::ShardedRun(mq.tables(), doc, sinks, nullptr, nullptr,
                                    &pool, {});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    MemorySource src(doc);
    s = parallel::StreamRun(mq.tables(), src, sinks, nullptr, nullptr, {});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(sink.str().empty());
  }
}

TEST(MultiQueryTest, OneSinkOnSingleQueryTablesMatchesTheSingleSinkPath) {
  // The N-sink drivers degenerate to N=1 on ordinary single-query tables:
  // StreamRun, the N-sink ShardedRun and the batch driver, each given one
  // sink, must emit the serial engine's bytes and RunStats, and the
  // N-sink ShardedRun must equal the single-sink overload.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 48 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(),
                                     MustParse("/site/people/person/name#"));
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  core::RunStats serial_stats;
  auto serial = pf->RunOnBuffer(doc, &serial_stats);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  auto expect_serial = [&](const std::string& out,
                           const core::RunStats& stats,
                           const std::vector<core::QueryRunStats>& qstats,
                           const char* driver) {
    SCOPED_TRACE(driver);
    EXPECT_EQ(out, *serial);
    EXPECT_EQ(stats.input_bytes, serial_stats.input_bytes);
    EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
    EXPECT_EQ(stats.matches, serial_stats.matches);
    EXPECT_EQ(stats.false_matches, serial_stats.false_matches);
    EXPECT_EQ(stats.states_visited, serial_stats.states_visited);
    ASSERT_EQ(qstats.size(), 1u);
    EXPECT_EQ(qstats[0].matches, serial_stats.matches);
    EXPECT_EQ(qstats[0].output_bytes, serial_stats.output_bytes);
  };

  MemorySource src(doc);
  {
    parallel::StreamOptions sopts;
    sopts.chunk_bytes = 333;
    StringSink sink;
    core::RunStats stats;
    std::vector<core::QueryRunStats> qstats;
    Status s =
        parallel::StreamRun(pf->tables(), src, {&sink}, &qstats, &stats, sopts);
    ASSERT_TRUE(s.ok()) << s.ToString();
    expect_serial(sink.str(), stats, qstats, "StreamRun");
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    parallel::ThreadPool pool(threads);
    parallel::ShardOptions popts;
    popts.max_buffer_bytes = 512;
    StringSink one, many;
    core::RunStats one_stats, many_stats;
    parallel::ShardReport one_report, many_report;
    std::vector<core::QueryRunStats> qstats;
    Status s = parallel::ShardedRun(pf->tables(), doc, &one, &one_stats,
                                    &pool, popts, &one_report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    s = parallel::ShardedRun(pf->tables(), doc, {&many}, &qstats, &many_stats,
                             &pool, popts, &many_report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    expect_serial(many.str(), many_stats, qstats, "ShardedRun");
    EXPECT_EQ(many.str(), one.str());
    EXPECT_EQ(many_stats.input_bytes, one_stats.input_bytes);
    EXPECT_EQ(many_stats.output_bytes, one_stats.output_bytes);
    EXPECT_EQ(many_stats.matches, one_stats.matches);
    EXPECT_EQ(many_stats.states_visited, one_stats.states_visited);
    EXPECT_EQ(many_report.shards, one_report.shards);
    EXPECT_EQ(many_report.accepted, one_report.accepted);
    EXPECT_EQ(many_report.reruns, one_report.reruns);
  }
  {
    parallel::ThreadPool pool(3);
    parallel::StreamOptions sopts;
    sopts.chunk_bytes = 1000;
    sopts.max_buffer_bytes = 64;
    std::vector<const InputSource*> docs = {&src, &src, &src};
    std::vector<StringSink> sinks(docs.size());
    std::vector<std::vector<core::QueryRunStats>> qstats;
    std::vector<core::RunStats> stats;
    std::vector<Status> statuses = parallel::BatchRunStreaming(
        pf->tables(), docs,
        [&sinks](size_t d, size_t u, SpillSink* seg) {
          EXPECT_EQ(u, 0u);
          return seg != nullptr ? seg->CopyTo(&sinks[d]) : Status::Ok();
        },
        &qstats, &stats, &pool, sopts);
    for (size_t d = 0; d < docs.size(); ++d) {
      ASSERT_TRUE(statuses[d].ok()) << statuses[d].ToString();
      expect_serial(sinks[d].str(), stats[d], qstats[d], "BatchRunStreaming");
    }
  }
}

}  // namespace
}  // namespace smpx::query
