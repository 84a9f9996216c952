// Differential tests for the interned-dispatch/span-scanning fast path
// against the legacy map-dispatch/per-byte baseline
// (TableOptions::use_map_dispatch): over generator output and hand-built
// edge documents, both engine paths must produce byte-identical
// projections and identical match/jump statistics. The small-window sweep
// also runs both paths over a source that is read, not lent.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/prefilter.h"
#include "simd/simd.h"
#include "xml/tokenizer.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx::core {
namespace {

struct DualPrefilter {
  Prefilter interned;
  Prefilter map_based;
};

DualPrefilter CompileBoth(dtd::Dtd dtd, std::string_view path_list,
                          bool allow_recursion = false) {
  auto paths = paths::ProjectionPath::ParseList(path_list);
  EXPECT_TRUE(paths.ok()) << paths.status().ToString();

  CompileOptions interned_opts;
  interned_opts.allow_recursion = allow_recursion;
  CompileOptions map_opts = interned_opts;
  map_opts.tables.use_map_dispatch = true;

  auto a = Prefilter::Compile(dtd, *paths, interned_opts);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  auto b = Prefilter::Compile(std::move(dtd), *paths, map_opts);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->interned_dispatch());
  EXPECT_FALSE(b->interned_dispatch());
  return {std::move(*a), std::move(*b)};
}

/// Runs both paths over `doc` and asserts byte-identical output plus
/// identical semantic counters (matches, false matches, jumps).
void ExpectIdentical(const DualPrefilter& pf, std::string_view doc,
                     const EngineOptions& opts = {}) {
  RunStats interned_stats;
  RunStats map_stats;
  auto out_interned = pf.interned.RunOnBuffer(doc, &interned_stats, opts);
  auto out_map = pf.map_based.RunOnBuffer(doc, &map_stats, opts);
  ASSERT_TRUE(out_interned.ok()) << out_interned.status().ToString();
  ASSERT_TRUE(out_map.ok()) << out_map.status().ToString();
  ASSERT_EQ(*out_interned, *out_map);
  EXPECT_EQ(interned_stats.matches, map_stats.matches);
  EXPECT_EQ(interned_stats.false_matches, map_stats.false_matches);
  EXPECT_EQ(interned_stats.initial_jump_chars, map_stats.initial_jump_chars);
  EXPECT_EQ(interned_stats.input_bytes, map_stats.input_bytes);
}

TEST(DispatchDiffTest, XmarkGeneratorOutputIsByteIdentical) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 1 << 20;
  std::string doc = xmlgen::GenerateXmark(gen);
  const char* workloads[] = {
      "/site/people/person@ /site/people/person/name#",
      "/site/open_auctions/open_auction/bidder/increase#",
      "/site/regions//item@",
      "//description //annotation //emailaddress",
      "/site/closed_auctions/closed_auction/price#",
  };
  for (const char* paths : workloads) {
    SCOPED_TRACE(paths);
    DualPrefilter pf = CompileBoth(xmlgen::XmarkDtd(), paths);
    ExpectIdentical(pf, doc);
  }
}

TEST(DispatchDiffTest, MedlineGeneratorOutputIsByteIdentical) {
  xmlgen::MedlineOptions gen;
  gen.target_bytes = 1 << 20;
  std::string doc = xmlgen::GenerateMedline(gen);
  const char* workloads[] = {
      "/MedlineCitationSet//CollectionTitle#",
      "/MedlineCitationSet//DataBank/DataBankName# "
      "/MedlineCitationSet//DataBank/AccessionNumberList#",
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
      "/MedlineCitationSet/MedlineCitation/DateCompleted#",
  };
  for (const char* paths : workloads) {
    SCOPED_TRACE(paths);
    DualPrefilter pf = CompileBoth(xmlgen::MedlineDtd(), paths);
    ExpectIdentical(pf, doc);
  }
}

/// A source that hides its contiguity: RunEngine reads it through ReadAt
/// into its own buffer instead of scanning the caller's memory in place.
class RollingSource : public MemorySource {
 public:
  using MemorySource::MemorySource;
  std::string_view Contiguous() const override { return {}; }
};

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

/// A run over a source that is read, not lent, must equal the in-place run
/// over the caller's buffer: same bytes, every RunStats field equal.
void ExpectRollingIdentical(const Prefilter& pf, std::string_view doc,
                            const EngineOptions& opts) {
  RunStats lent_stats;
  auto lent = pf.RunOnBuffer(doc, &lent_stats, opts);
  ASSERT_TRUE(lent.ok()) << lent.status().ToString();
  const RollingSource in(doc);
  StringSink sink;
  RunStats read_stats;
  ASSERT_TRUE(pf.Run(&in, &sink, &read_stats, opts).ok());
  ASSERT_EQ(sink.str(), *lent);
  ExpectSameRunStats(read_stats, lent_stats);
}

TEST(DispatchDiffTest, RollingSourceAcrossSeveralReadsStaysIdentical) {
  // RunEngine reads a source that is not resident in 1 MiB pieces, one
  // Resume each: a document of several MiB crosses read cuts, where a
  // keyword search restarts. The bytes and the match counts must not
  // change.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 3 << 20;
  const std::string doc = xmlgen::GenerateXmark(gen);
  ASSERT_GE(doc.size(), size_t{3} << 20);
  for (const char* paths :
       {"/site/regions//item/name#", "/site/people/person/name#",
        "/site/closed_auctions/closed_auction/price#"}) {
    SCOPED_TRACE(paths);
    DualPrefilter pf = CompileBoth(xmlgen::XmarkDtd(), paths);
    for (const Prefilter* p : {&pf.interned, &pf.map_based}) {
      RunStats lent_stats;
      auto lent = p->RunOnBuffer(doc, &lent_stats);
      ASSERT_TRUE(lent.ok()) << lent.status().ToString();
      const RollingSource in(doc);
      StringSink sink;
      RunStats read_stats;
      ASSERT_TRUE(p->Run(&in, &sink, &read_stats).ok());
      ASSERT_EQ(sink.str(), *lent);
      EXPECT_EQ(read_stats.matches, lent_stats.matches);
      EXPECT_EQ(read_stats.false_matches, lent_stats.false_matches);
      EXPECT_EQ(read_stats.output_bytes, lent_stats.output_bytes);
    }
  }
}

TEST(DispatchDiffTest, SmallWindowStreamingStaysIdentical) {
  // Window refills hit the span-boundary fallbacks of the bulk scanner;
  // a tiny window forces them constantly. Each window also runs over a
  // source that is read into a buffer, which must not change a byte or a
  // counter.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 200 << 10;
  std::string doc = xmlgen::GenerateXmark(gen);
  DualPrefilter pf =
      CompileBoth(xmlgen::XmarkDtd(), "/site/regions//item/name#");
  for (size_t window : {64u, 256u, 4096u}) {
    SCOPED_TRACE(window);
    EngineOptions opts;
    opts.window_capacity = window;
    ExpectIdentical(pf, doc, opts);
    ExpectRollingIdentical(pf.interned, doc, opts);
    ExpectRollingIdentical(pf.map_based, doc, opts);
  }
}

constexpr char kBachelorDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";

TEST(DispatchDiffTest, BachelorTagsUnderSpanScanner) {
  DualPrefilter pf = CompileBoth(
      *dtd::Dtd::Parse(kBachelorDtd), "/a/b#");
  // Bachelor forms in every position the Fig. 4 bachelor case covers:
  // entry tag, shielded region, whitespace before the slash, attributes.
  for (const char* doc : {
           "<a><b/><c><b/></c></a>",
           "<a/>",
           "<a><b    /><b>x</b></a>",
           "<a><c><b/><b/></c><b/></a>",
       }) {
    SCOPED_TRACE(doc);
    ExpectIdentical(pf, doc);
  }
}

TEST(DispatchDiffTest, QuotedAttributeEdgeCases) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>"
      " <!ATTLIST b note CDATA #IMPLIED other CDATA #IMPLIED> ]>";
  DualPrefilter pf = CompileBoth(*dtd::Dtd::Parse(dtd), "/a/b#@");
  for (const char* doc : {
           "<a><b note='x>y'>t</b></a>",
           "<a><b note=\"a'b>c\" other='d\"e>f'>t</b></a>",
           "<a><b note='' other=\"\">t</b></a>",
           "<a><b note='>>>/>'/></a>",
       }) {
    SCOPED_TRACE(doc);
    ExpectIdentical(pf, doc);
    auto out = pf.interned.RunOnBuffer(doc);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(xml::CheckWellFormed(*out).ok()) << *out;
  }
}

constexpr char kRecursiveDtd[] = R"(<!DOCTYPE site [
<!ELEMENT site (regions)>
<!ELEMENT regions (australia)>
<!ELEMENT australia (item*)>
<!ELEMENT item (name, description, shipping)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT description (text | parlist)>
<!ELEMENT text (#PCDATA)>
<!ELEMENT parlist (listitem*)>
<!ELEMENT listitem (text | parlist)>
<!ELEMENT shipping (#PCDATA)>
]>)";

constexpr char kRecursiveDoc[] =
    "<site><regions><australia>"
    "<item><name>alpha</name><description><parlist>"
    "<listitem><text>a1</text></listitem>"
    "<listitem><parlist><listitem><text>deep</text></listitem></parlist>"
    "</listitem></parlist></description><shipping>fast</shipping></item>"
    "<item><name>beta</name><description><text>flat</text></description>"
    "<shipping>slow</shipping></item>"
    "</australia></regions></site>";

TEST(DispatchDiffTest, CountNestingRecursionUnderSpanScanner) {
  // Opaque recursive regions: the balance counter must see nested opening
  // tags through the interned id comparison exactly as through the string
  // comparison of the legacy path.
  for (const char* paths : {"//description#", "//shipping#", "//name#"}) {
    SCOPED_TRACE(paths);
    DualPrefilter pf = CompileBoth(*dtd::Dtd::Parse(kRecursiveDtd), paths,
                                   /*allow_recursion=*/true);
    ExpectIdentical(pf, kRecursiveDoc);
  }
  // And through a tiny window, where the balance spans many refills.
  DualPrefilter pf = CompileBoth(*dtd::Dtd::Parse(kRecursiveDtd),
                                 "//shipping#", /*allow_recursion=*/true);
  EngineOptions opts;
  opts.window_capacity = 64;
  ExpectIdentical(pf, kRecursiveDoc, opts);
}

// --- SIMD tier replay --------------------------------------------------------
// The same compiled prefilter replayed under every available dispatch tier
// (SetIsa) must produce byte-identical output AND identical statistics --
// including matcher comparisons/shifts and scan_chars -- with the scalar
// tier as the oracle. Tiers only change how fast structural bytes are
// found, never which bytes are found.

TEST(DispatchDiffTest, EveryIsaTierMatchesScalarByteForByte) {
  const simd::Isa saved = simd::ActiveIsa();
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 512 << 10;
  std::string doc = xmlgen::GenerateXmark(gen);
  auto paths = paths::ProjectionPath::ParseList(
      "/site/people/person@ /site/people/person/name# //description");
  ASSERT_TRUE(paths.ok());
  auto pf = Prefilter::Compile(xmlgen::XmarkDtd(), *paths, {});
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();

  simd::SetIsa(simd::Isa::kScalar);
  RunStats ref_stats;
  auto ref = pf->RunOnBuffer(doc, &ref_stats);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (simd::Isa isa : simd::AvailableIsas()) {
    SCOPED_TRACE(simd::IsaName(isa));
    ASSERT_EQ(simd::SetIsa(isa), isa);
    RunStats stats;
    auto out = pf->RunOnBuffer(doc, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(*out, *ref);
    EXPECT_EQ(stats.matches, ref_stats.matches);
    EXPECT_EQ(stats.false_matches, ref_stats.false_matches);
    EXPECT_EQ(stats.scan_chars, ref_stats.scan_chars);
    EXPECT_EQ(stats.search.comparisons, ref_stats.search.comparisons);
    EXPECT_EQ(stats.search.shifts, ref_stats.search.shifts);
    EXPECT_EQ(stats.search.shift_chars, ref_stats.search.shift_chars);
    EXPECT_EQ(stats.bm_searches, ref_stats.bm_searches);
    EXPECT_EQ(stats.cw_searches, ref_stats.cw_searches);
    EXPECT_EQ(stats.initial_jump_chars, ref_stats.initial_jump_chars);
  }
  simd::SetIsa(saved);
}

// The classical matcher loops (skip loops disabled) must agree with the
// SIMD skip loops on output and semantic counters (their shift accounting
// legitimately differs). The SWAR probes are covered through the SWAR
// ISA tier by EveryIsaTierMatchesScalarByteForByte.
TEST(DispatchDiffTest, MatcherSkipModeTiersAgree) {
  xmlgen::MedlineOptions gen;
  gen.target_bytes = 512 << 10;
  std::string doc = xmlgen::GenerateMedline(gen);
  auto paths = paths::ProjectionPath::ParseList(
      "/MedlineCitationSet//DataBank/DataBankName# "
      "/MedlineCitationSet/MedlineCitation/DateCompleted#");
  ASSERT_TRUE(paths.ok());

  auto compile = [&](bool disable) {
    CompileOptions opts;
    opts.tables.disable_matcher_skip_loops = disable;
    auto pf = Prefilter::Compile(xmlgen::MedlineDtd(), *paths, opts);
    EXPECT_TRUE(pf.ok()) << pf.status().ToString();
    return std::move(*pf);
  };
  Prefilter simd_pf = compile(false);
  Prefilter classic_pf = compile(true);

  RunStats simd_stats, classic_stats;
  auto out_simd = simd_pf.RunOnBuffer(doc, &simd_stats);
  auto out_classic = classic_pf.RunOnBuffer(doc, &classic_stats);
  ASSERT_TRUE(out_simd.ok() && out_classic.ok());
  ASSERT_EQ(*out_simd, *out_classic);
  EXPECT_EQ(simd_stats.matches, classic_stats.matches);
  EXPECT_EQ(simd_stats.false_matches, classic_stats.false_matches);
}

TEST(DispatchDiffTest, PrologAndDoctypeUnderSpanScanner) {
  DualPrefilter pf = CompileBoth(*dtd::Dtd::Parse(kBachelorDtd), "/a/b#");
  std::string long_comment(5000, 'x');
  for (const std::string& prolog : {
           std::string("<?xml version=\"1.0\"?>\n"),
           std::string("<?xml version=\"1.0\"?>\n<!-- c --->\n"),
           std::string("<!-- ") + long_comment + " -->\n",
           std::string("<!DOCTYPE a [ <!ELEMENT a (b|c)*> ]>\n"),
           std::string("<?pi data?><!-- x --><!DOCTYPE a []>"),
       }) {
    SCOPED_TRACE(prolog);
    std::string doc = prolog + "<a><b>x</b></a>";
    ExpectIdentical(pf, doc);
    auto out = pf.interned.RunOnBuffer(doc);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, "<a><b>x</b></a>");
  }
}

}  // namespace
}  // namespace smpx::core
