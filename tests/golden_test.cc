// Golden-corpus regression tests: tiny XMark/MEDLINE/protein documents,
// their DTDs, and their expected projections are CHECKED IN under
// tests/data/ and compared byte-for-byte. Unlike the generator-driven
// suites, nothing here is recomputed from src/xmlgen at test time, so an
// engine regression is caught even if the generators (or their seeds)
// drift in the same commit. The corpus also exercises the boundary index
// against frozen inputs: every projection suffix served by a cursor must
// match a substring of the checked-in projection.
//
// Regenerating the corpus (only when the projection SEMANTICS change
// intentionally): rebuild the three documents with xmlgen seed 42 at
// target_bytes 4096, re-run the serial engine, and replace the files --
// then justify the diff in review like any other golden-file change.
//
// The compiled tables' fingerprints are pinned too. Index files and cursor
// tokens record RuntimeTables::Fingerprint() and fail closed on a
// mismatch, so a table change that still projects the same bytes would
// nonetheless invalidate every saved index. Change a pinned value only
// for an intentional table change, and say so in review.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "query/multiquery.h"

namespace smpx {
namespace {

#ifndef SMPX_TEST_DATA_DIR
#define SMPX_TEST_DATA_DIR "tests/data"
#endif

struct GoldenCase {
  const char* name;
  const char* paths;
  uint64_t fingerprint;  ///< of the compiled tables, in either dispatch mode
};

const GoldenCase kCases[] = {
    {"xmark", "/site/people/person@ /site/people/person/name#",
     0x03cbdc6f5a56c477u},
    {"medline",
     "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
     "/MedlineCitationSet/MedlineCitation/DateCompleted#",
     0xe4c9651eac435f3au},
    {"protein",
     "/ProteinDatabase/ProteinEntry/protein/name# "
     "/ProteinDatabase/ProteinEntry/header@",
     0xb7ab14a0fca9fd41u},
};

/// Fingerprint of the product tables of tests/data/xmark_mix.queries.
constexpr uint64_t kMixFingerprint = 0xdbf0d27bd4118292u;

std::string DataFile(const std::string& name) {
  auto content = ReadFileToString(std::string(SMPX_TEST_DATA_DIR) + "/" +
                                  name);
  EXPECT_TRUE(content.ok()) << "missing corpus file " << name << ": "
                            << content.status().ToString();
  return content.ok() ? *content : std::string();
}

core::Prefilter CompileGolden(const GoldenCase& c,
                              const core::CompileOptions& opts = {}) {
  auto dtd = dtd::Dtd::Parse(DataFile(std::string(c.name) + ".dtd"));
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto paths = paths::ProjectionPath::ParseList(c.paths);
  EXPECT_TRUE(paths.ok());
  auto pf =
      core::Prefilter::Compile(std::move(*dtd), std::move(*paths), opts);
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

TEST(GoldenCorpusTest, TableFingerprintsArePinned) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    for (bool map_dispatch : {false, true}) {
      core::CompileOptions opts;
      opts.tables.use_map_dispatch = map_dispatch;
      core::Prefilter pf = CompileGolden(c, opts);
      EXPECT_EQ(pf.tables().Fingerprint(), c.fingerprint)
          << "map_dispatch=" << map_dispatch;
    }
  }
}

TEST(GoldenCorpusTest, SerialProjectionsMatchCheckedInFiles) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    core::Prefilter pf = CompileGolden(c);
    std::string doc = DataFile(std::string(c.name) + "_tiny.xml");
    std::string expected = DataFile(std::string(c.name) + "_tiny.proj.xml");
    ASSERT_FALSE(doc.empty());
    auto out = pf.RunOnBuffer(doc);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, expected)
        << "projection of the frozen " << c.name
        << " document changed -- engine regression, or an intentional "
           "semantics change that must regenerate tests/data/";
  }
}

TEST(GoldenCorpusTest, ShardedRunsMatchCheckedInFiles) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    core::Prefilter pf = CompileGolden(c);
    std::string doc = DataFile(std::string(c.name) + "_tiny.xml");
    std::string expected = DataFile(std::string(c.name) + "_tiny.proj.xml");
    for (int threads : {2, 4}) {
      parallel::ThreadPool pool(threads);
      StringSink sink;
      Status s = parallel::ShardedRun(pf.tables(), doc, &sink, nullptr,
                                      &pool);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(sink.str(), expected) << "threads=" << threads;
    }
  }
}

TEST(GoldenCorpusTest, IndexedCursorsServeCheckedInSuffixes) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    core::Prefilter pf = CompileGolden(c);
    std::string doc = DataFile(std::string(c.name) + "_tiny.xml");
    std::string expected = DataFile(std::string(c.name) + "_tiny.proj.xml");
    index::BoundaryIndexOptions opts;
    opts.granularity_bytes = 1;
    auto idx =
        index::BoundaryIndex::Build(pf.tables(), MemorySource(doc), opts);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    for (const index::IndexEntry& e : idx->entries()) {
      auto cur = index::Cursor::OpenAt(*idx, pf.tables(), doc, e.offset);
      ASSERT_TRUE(cur.ok()) << cur.status().ToString();
      ASSERT_LE(e.out_offset, expected.size());
      StringSink sink;
      ASSERT_TRUE(cur->Drain(&sink).ok());
      EXPECT_EQ(sink.str(),
                expected.substr(static_cast<size_t>(e.out_offset)))
          << "cursor at frozen boundary " << e.offset << " diverged";
    }
  }
}

// The multi-query corpus: tests/data/xmark_mix.queries holds a frozen
// 4-query mix (one exact duplicate), and xmark_tiny.mqN.proj.xml holds
// query N's expected projection as produced by an INDEPENDENT single-query
// serial run -- so this test pins the product engine's differential
// contract against frozen bytes, not against the current engine.
// Regenerate with `smpx --dtd xmark.dtd --paths "<line N>" --out
// xmark_tiny.mqN.proj.xml xmark_tiny.xml` per non-comment line.
TEST(GoldenCorpusTest, MultiQueryMixMatchesCheckedInProjections) {
  std::string mix = DataFile("xmark_mix.queries");
  ASSERT_FALSE(mix.empty());
  std::vector<std::vector<paths::ProjectionPath>> queries;
  for (size_t pos = 0; pos < mix.size();) {
    size_t eol = mix.find('\n', pos);
    if (eol == std::string::npos) eol = mix.size();
    std::string line = mix.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    auto paths = paths::ProjectionPath::ParseList(line);
    ASSERT_TRUE(paths.ok()) << line;
    queries.push_back(std::move(*paths));
  }
  ASSERT_EQ(queries.size(), 4u);

  std::vector<std::string> expected;
  for (size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(
        DataFile("xmark_tiny.mq" + std::to_string(q + 1) + ".proj.xml"));
  }

  auto dtd = dtd::Dtd::Parse(DataFile("xmark.dtd"));
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto mq = query::MultiQuery::Compile(std::move(*dtd), queries);
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  EXPECT_EQ(mq->num_queries(), 4);
  EXPECT_EQ(mq->num_unique(), 3);  // the duplicate collapses
  EXPECT_EQ(mq->tables().Fingerprint(), kMixFingerprint);

  std::string doc = DataFile("xmark_tiny.xml");
  ASSERT_FALSE(doc.empty());

  {
    std::vector<StringSink> sinks(queries.size());
    std::vector<OutputSink*> ptrs;
    for (StringSink& s : sinks) ptrs.push_back(&s);
    std::vector<core::QueryRunStats> qstats;
    Status s = mq->RunOnBuffer(doc, ptrs, &qstats, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(sinks[q].str(), expected[q])
          << "one-pass projection of frozen query " << (q + 1)
          << " diverged from its independent single-query golden";
    }
  }

  for (int threads : {2, 4}) {
    parallel::ThreadPool pool(threads);
    std::vector<StringSink> sinks(queries.size());
    std::vector<OutputSink*> ptrs;
    for (StringSink& s : sinks) ptrs.push_back(&s);
    std::vector<std::unique_ptr<FanoutSink>> owned;
    std::vector<OutputSink*> unique_sinks;
    mq->RouteSinks(ptrs, &owned, &unique_sinks);
    Status s = parallel::ShardedRun(*mq->shared_tables(), doc, unique_sinks,
                                    nullptr, nullptr, &pool);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(sinks[q].str(), expected[q])
          << "sharded (threads=" << threads << ") projection of frozen query "
          << (q + 1) << " diverged";
    }
  }
}

}  // namespace
}  // namespace smpx
