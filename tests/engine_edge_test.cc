// Edge-case and robustness tests for the runtime engine beyond the happy
// paths of core_test: markup oddities, file-based streaming, deep nesting,
// truncation fuzzing, pushed chunks that do not outlive Resume, and
// cross-API property checks.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/engine.h"
#include "core/prefilter.h"
#include "paths/relevance.h"
#include "paths/xquery_extract.h"
#include "query/equivalence.h"
#include "xml/tokenizer.h"
#include "xmlgen/dtd_sampler.h"
#include "xmlgen/xmark.h"

namespace smpx {
namespace {

constexpr char kPaperDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";

core::Prefilter Compile(std::string_view dtd_text, std::string_view paths) {
  auto dtd = dtd::Dtd::Parse(dtd_text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto parsed = paths::ProjectionPath::ParseList(paths);
  EXPECT_TRUE(parsed.ok());
  auto pf = core::Prefilter::Compile(std::move(*dtd), std::move(*parsed));
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

TEST(EngineEdgeTest, CommentsInsideCopiedRegionsPassThrough) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  auto out = pf.RunOnBuffer("<a><b>x<!-- keep me -->y</b></a>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b>x<!-- keep me -->y</b></a>");
}

TEST(EngineEdgeTest, EntitiesInCopiedTextPassThroughVerbatim) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  auto out = pf.RunOnBuffer("<a><b>x &amp; y &lt; z</b></a>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b>x &amp; y &lt; z</b></a>");
}

TEST(EngineEdgeTest, GtInsideAttributeValues) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>"
      " <!ATTLIST b note CDATA #IMPLIED> ]>";
  core::Prefilter pf = Compile(dtd, "/a/b#@");
  auto out = pf.RunOnBuffer("<a><b note='x>y'>t</b></a>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b note='x>y'>t</b></a>")
      << "the tag-end scan must respect quoted values";
}

TEST(EngineEdgeTest, WhitespaceInClosingTags) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  auto out = pf.RunOnBuffer("<a><b >x</b ></a >");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b >x</b ></a>")
      << "copied regions keep raw bytes; reconstructed tags are canonical";
}

TEST(EngineEdgeTest, SingleCharacterTagNames) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b");
  auto out = pf.RunOnBuffer("<a><b></b><c><b></b></c></a>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b></b></a>");
}

TEST(EngineEdgeTest, DeeplyNestedDtdChain) {
  // e0 > e1 > ... > e29, project the innermost.
  std::string dtd = "<!DOCTYPE e0 [";
  std::string doc;
  std::string close;
  std::string path = "/";
  for (int i = 0; i < 30; ++i) {
    std::string name = "e" + std::to_string(i);
    if (i < 29) {
      dtd += "<!ELEMENT " + name + " (e" + std::to_string(i + 1) + ")>";
    } else {
      dtd += "<!ELEMENT " + name + " (#PCDATA)>";
    }
    doc += "<" + name + ">";
    close = "</" + name + ">" + close;
    path += (i ? "/" : "") + name;
  }
  dtd += "]>";
  doc += "payload" + close;
  core::Prefilter pf = Compile(dtd, path + "#");
  auto out = pf.RunOnBuffer(doc);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, doc) << "whole chain is relevant (prefix paths)";
}

TEST(EngineEdgeTest, FileBasedStreamingRun) {
  std::string in_path = testing::TempDir() + "/smpx_edge_in.xml";
  std::string doc = "<a><b>file payload</b><c><b>no</b></c></a>";
  ASSERT_TRUE(WriteStringToFile(in_path, doc).ok());
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");

  auto in = FileSource::Open(in_path);
  ASSERT_TRUE(in.ok());
  StringSink out;
  ASSERT_TRUE(pf.Run(in->get(), &out).ok());
  EXPECT_EQ(out.str(), "<a><b>file payload</b></a>");
  std::remove(in_path.c_str());
}

/// Serves `data` through ReadAt only (no Contiguous()) and fails every
/// read at or past byte `fail_at` with an I/O error.
class FailingSource : public InputSource {
 public:
  FailingSource(std::string_view data, size_t fail_at)
      : data_(data), fail_at_(fail_at) {}
  uint64_t size() const override { return data_.size(); }
  Result<size_t> ReadAt(uint64_t offset, char* buf,
                        size_t len) const override {
    if (offset >= fail_at_) return Status::IoError("injected read failure");
    const std::string_view piece = data_.substr(
        offset, std::min<uint64_t>(len, fail_at_ - offset));
    std::copy(piece.begin(), piece.end(), buf);
    return piece.size();
  }

 private:
  std::string_view data_;
  size_t fail_at_;
};

TEST(EngineEdgeTest, FailedReadReturnsItsStatus) {
  // A read error is not the end of the document: the run must report the
  // source's error, not a parse error about the bytes it never got.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 580 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  core::Prefilter pf =
      Compile(xmlgen::XmarkDtdText(), "/site/regions//item/name#");
  ASSERT_TRUE(pf.RunOnBuffer(doc).ok());
  for (size_t fail_at : {size_t{100} << 10, doc.size() - 2}) {
    SCOPED_TRACE(fail_at);
    const FailingSource in(doc, fail_at);
    CountingSink out;
    const Status s = pf.Run(&in, &out);
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
    EXPECT_NE(s.ToString().find("injected read failure"), std::string::npos)
        << s.ToString();
  }
}

TEST(EngineEdgeTest, TruncationFuzzNeverCrashes) {
  // Every prefix of a valid document must either project fine (if the
  // relevant part survived) or fail cleanly with ParseError.
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a><b>one</b><c><b>x</b><b>y</b></c><b>two</b></a>";
  for (size_t cut = 0; cut <= doc.size(); ++cut) {
    auto out = pf.RunOnBuffer(doc.substr(0, cut));
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kParseError) << cut;
    }
  }
}

TEST(EngineEdgeTest, GarbageFuzzNeverCrashes) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  xmlgen::Rng rng(99);
  std::string doc = "<a><b>one</b><c><b>x</b></c></a>";
  for (int round = 0; round < 300; ++round) {
    std::string mutated = doc;
    size_t pos = static_cast<size_t>(xmlgen::Uniform(
        &rng, 0, static_cast<int64_t>(doc.size()) - 1));
    mutated[pos] = static_cast<char>(xmlgen::Uniform(&rng, 32, 126));
    auto out = pf.RunOnBuffer(mutated);  // must not crash or hang
    (void)out;
  }
}

TEST(EngineEdgeTest, RunIsReusableAndDeterministic) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a><b>v</b></a>";
  auto a = pf.RunOnBuffer(doc);
  auto b = pf.RunOnBuffer(doc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  // And the same compiled prefilter works on a different document.
  auto c = pf.RunOnBuffer("<a><c><b>skip</b></c></a>");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, "<a></a>");
}

TEST(EngineEdgeTest, ChunksNeedNotOutliveResume) {
  // Resume's contract: the caller may reuse a chunk's memory as soon as
  // the call returns. Every chunk here lives in its own heap buffer that
  // is overwritten and freed right after Resume, so a session still
  // pointing into it reads garbage (or, under ASan, fails hard).
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 160 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  const char* queries[] = {
      "/site/people/person@ /site/people/person/name#",  // XM1
      "/site/regions//item@",                             // XM6
      "//description //annotation //emailaddress",        // XM7
      "/site/regions/australia/item/name# "
      "/site/regions/australia/item/description#",        // XM13
  };
  for (const char* paths : queries) {
    core::Prefilter pf = Compile(xmlgen::XmarkDtdText(), paths);
    for (size_t window : {64u, 1000u, 32768u}) {
      core::EngineOptions opts;
      opts.window_capacity = window;
      auto expected = pf.RunOnBuffer(doc, nullptr, opts);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (size_t chunk : {1u, 7u, 97u, 4096u, 100000u}) {
        SCOPED_TRACE(testing::Message() << paths << " window=" << window
                                        << " chunk=" << chunk);
        StringSink sink;
        core::PrefilterSession session(pf.tables(), &sink, nullptr, opts);
        for (size_t off = 0; off < doc.size(); off += chunk) {
          const size_t n = std::min(chunk, doc.size() - off);
          std::unique_ptr<char[]> buf(new char[n]);
          std::copy(doc.data() + off, doc.data() + off + n, buf.get());
          Status s = session.Resume(std::string_view(buf.get(), n));
          std::fill(buf.get(), buf.get() + n, '<');
          buf.reset();
          ASSERT_TRUE(s.ok()) << s.ToString();
        }
        ASSERT_TRUE(session.Finish().ok());
        EXPECT_EQ(sink.str(), *expected);
      }
    }
  }
}

// --- cross-API property tests ----------------------------------------------

TEST(RelevancePropertyTest, IncrementalMatchesBatchAnalyze) {
  xmlgen::Rng rng(31);
  for (int round = 0; round < 30; ++round) {
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::vector<paths::ProjectionPath> ps = xmlgen::RandomPaths(dtd, &rng);
    std::vector<std::string> alphabet;
    for (const auto& d : dtd.elements()) alphabet.push_back(d.name);
    paths::RelevanceAnalyzer analyzer(ps, alphabet);
    paths::IncrementalRelevance inc(&analyzer);

    // Walk a random document, comparing verdicts at every element.
    std::string doc = xmlgen::RandomDocument(dtd, &rng);
    auto tokens = xml::TokenizeAll(doc);
    ASSERT_TRUE(tokens.ok());
    std::vector<std::string> branch;
    for (const xml::Token& t : *tokens) {
      if (t.type == xml::TokenType::kStartTag ||
          t.type == xml::TokenType::kEmptyTag) {
        branch.emplace_back(t.name);
        inc.Push(t.name);
        paths::BranchRelevance batch = analyzer.Analyze(branch);
        paths::BranchRelevance fast = inc.Current();
        ASSERT_EQ(batch.relevant(), fast.relevant()) << doc;
        ASSERT_EQ(batch.leaf_hash, fast.leaf_hash) << doc;
        ASSERT_EQ(batch.leaf_attrs, fast.leaf_attrs) << doc;
        ASSERT_EQ(analyzer.TextRelevant(branch), inc.TextRelevantHere());
        if (t.type == xml::TokenType::kEmptyTag) {
          branch.pop_back();
          inc.Pop();
        }
      } else if (t.type == xml::TokenType::kEndTag) {
        branch.pop_back();
        inc.Pop();
      }
    }
  }
}

TEST(EnginePropertyTest, WindowSizeNeverChangesOutput) {
  xmlgen::Rng rng(47);
  for (int round = 0; round < 15; ++round) {
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::vector<paths::ProjectionPath> ps = xmlgen::RandomPaths(dtd, &rng);
    auto pf = core::Prefilter::Compile(dtd, ps);
    ASSERT_TRUE(pf.ok());
    std::string doc = xmlgen::RandomDocument(dtd, &rng);
    std::string reference;
    for (size_t window : {64u, 256u, 4096u, 1u << 20}) {
      core::EngineOptions opts;
      opts.window_capacity = window;
      auto out = pf->RunOnBuffer(doc, nullptr, opts);
      ASSERT_TRUE(out.ok()) << out.status().ToString() << " window "
                            << window << "\n" << dtd.ToString() << "\n"
                            << doc;
      if (reference.empty()) {
        reference = *out;
      } else {
        ASSERT_EQ(*out, reference) << "window " << window;
      }
    }
  }
}

TEST(XQueryEndToEndTest, ExtractCompileRun) {
  // Full pipeline: XQuery text -> projection paths -> prefilter -> output,
  // then verify the query result is preserved (projection safety).
  const char* query =
      "for $i in /site/regions/australia/item "
      "return <r>{$i/name/text()}</r>";
  auto extracted = paths::ExtractProjectionPaths(query);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();

  xmlgen::XmarkOptions gen;
  gen.target_bytes = 256 << 10;
  std::string doc = xmlgen::GenerateXmark(gen);

  auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(), *extracted);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  auto out = pf->RunOnBuffer(doc);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out->size(), doc.size() / 4) << "projection should shrink a lot";

  auto report = query::CheckProjectionSafety(doc, *out, pf->paths());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->safe) << report->first_violation;
}

}  // namespace
}  // namespace smpx
