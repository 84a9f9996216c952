// Tests for the static analysis (Fig. 6) and runtime engine (Fig. 4),
// anchored on the paper's running examples:
//  - Examples 2/11 + Fig. 3: runtime automaton for /a/b over (b|c)*,
//  - Example 12: subtree collapse for //c#,
//  - Example 3: initial jump J = 4 for state q3,
//  - Example 1: end-to-end prefiltering of the Fig. 2 document.

#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/prefilter.h"
#include "core/selection.h"
#include "core/tables.h"
#include "dtd/dtd.h"
#include "dtd/dtd_automaton.h"
#include "paths/projection_path.h"
#include "paths/relevance.h"
#include "xml/tokenizer.h"

namespace smpx::core {
namespace {

constexpr char kPaperDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";

constexpr char kXmarkExcerpt[] = R"(<!DOCTYPE site [
<!ELEMENT site (regions)>
<!ELEMENT regions (africa, asia, australia)>
<!ELEMENT africa (item*)>
<!ELEMENT asia (item*)>
<!ELEMENT australia (item*)>
<!ELEMENT item (location,name,payment,description,shipping,incategory+)>
<!ELEMENT location (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT shipping (#PCDATA)>
<!ELEMENT incategory EMPTY>
<!ATTLIST incategory category CDATA #REQUIRED>
]>)";

// The document of Fig. 2 (single line, no whitespace between tags).
constexpr char kFig2Document[] =
    "<site><regions><africa><item><location>United States</location>"
    "<name>T V</name><payment>Creditcard</payment>"
    "<description>15''LCD-FlatPanel</description>"
    "<shipping>Within country</shipping><incategory category=\"3\"/>"
    "</item></africa><asia/><australia><item ><location>Egypt</location>"
    "<name>PDA</name><payment>Check</payment>"
    "<description>Palm Zire 71</description><shipping/>"
    "<incategory category=\"3\"/></item></australia></regions></site>";

dtd::Dtd D(std::string_view text) {
  auto r = dtd::Dtd::Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(*r);
}

std::vector<paths::ProjectionPath> P(std::string_view list) {
  auto r = paths::ProjectionPath::ParseList(list);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

Prefilter Compile(std::string_view dtd_text, std::string_view paths,
                  const CompileOptions& opts = {}) {
  auto pf = Prefilter::Compile(D(dtd_text), P(paths), opts);
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

std::string Filter(const Prefilter& pf, std::string_view doc,
                   RunStats* stats = nullptr,
                   const EngineOptions& opts = {}) {
  auto out = pf.RunOnBuffer(doc, stats, opts);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::string();
}

/// NextState that fails the test (instead of handing back -1, which would
/// index out of bounds) when the transition is missing.
int MustNext(const RuntimeTables& t, int from, std::string_view name,
             bool closing) {
  int to = t.NextState(from, name, closing);
  EXPECT_GE(to, 0) << "no transition on " << (closing ? "</" : "<") << name
                   << "> from q" << from;
  return to >= 0 ? to : 0;
}

// --- Selection: Fig. 6 step 1 on the paper's examples ---------------------

TEST(SelectionTest, Example11SelectsStopOverStates) {
  // P = {/*, /a/b#}: S must contain q0, a, b-under-a (relevant) plus
  // c-under-a (stop-over added by step (c)), but not the b's under c.
  dtd::Dtd dtd = D(kPaperDtd);
  auto aut = dtd::DtdAutomaton::Build(dtd);
  ASSERT_TRUE(aut.ok());
  paths::RelevanceAnalyzer analyzer(P("/* /a/b#"), {"a", "b", "c"});
  Selection sel = SelectStates(*aut, analyzer);

  int in_s = 0;
  for (bool b : sel.in_s) in_s += b ? 1 : 0;
  EXPECT_EQ(in_s, 7) << "q0 + dual pairs for a, b-under-a, c-under-a";
  EXPECT_EQ(sel.stopover_states, 2u) << "the c pair is a stop-over";

  // c-under-a is instance 2 (BFS order: a, b, c).
  int c_open = dtd::DtdAutomaton::OpenState(2);
  EXPECT_TRUE(sel.in_s[static_cast<size_t>(c_open)]);
  EXPECT_EQ(sel.action[static_cast<size_t>(c_open)], Action::kNop);
  // b-under-a is instance 1: copy on / copy off.
  int b_open = dtd::DtdAutomaton::OpenState(1);
  EXPECT_EQ(sel.action[static_cast<size_t>(b_open)], Action::kCopyOn);
  EXPECT_EQ(sel.action[static_cast<size_t>(b_open) + 1], Action::kCopyOff);
  // a is instance 0: copy tag on both states.
  int a_open = dtd::DtdAutomaton::OpenState(0);
  EXPECT_EQ(sel.action[static_cast<size_t>(a_open)], Action::kCopyTag);
}

TEST(SelectionTest, Example12CollapsesRelevantSubtree) {
  // P = {/*, //c#}: the b's under c are all relevant (C2), so step (b)
  // prunes them and c becomes a wholesale subtree copy.
  dtd::Dtd dtd = D(kPaperDtd);
  auto aut = dtd::DtdAutomaton::Build(dtd);
  ASSERT_TRUE(aut.ok());
  paths::RelevanceAnalyzer analyzer(P("/* //c#"), {"a", "b", "c"});
  Selection sel = SelectStates(*aut, analyzer);

  EXPECT_EQ(sel.collapsed_pairs, 1u);
  int in_s = 0;
  for (bool b : sel.in_s) in_s += b ? 1 : 0;
  // Paper Example 12: S = {q0, q1, q-hat1, q3, q-hat3} -- but b-under-a is
  // also a C3 shield candidate? No: P+ = {/, /*, //c#, //c}; t=c gives only
  // a descendant-form match, so b-under-a stays out. S has 5 states.
  EXPECT_EQ(in_s, 5);
  int c_open = dtd::DtdAutomaton::OpenState(2);
  EXPECT_EQ(sel.action[static_cast<size_t>(c_open)], Action::kCopyOn);
  // The b-instances under c (instances 3 and 4) left S.
  EXPECT_FALSE(sel.in_s[static_cast<size_t>(dtd::DtdAutomaton::OpenState(3))]);
  EXPECT_FALSE(sel.in_s[static_cast<size_t>(dtd::DtdAutomaton::OpenState(4))]);
}

// --- Tables: Fig. 3 --------------------------------------------------------

class Fig3Tables : public ::testing::Test {
 protected:
  void SetUp() override {
    pf_ = std::make_unique<Prefilter>(Compile(kPaperDtd, "/a/b#"));
  }
  std::unique_ptr<Prefilter> pf_;
};

TEST_F(Fig3Tables, SevenStatesLikeFig3) {
  EXPECT_EQ(pf_->num_states(), 7u) << pf_->tables().DebugString();
}

TEST_F(Fig3Tables, VocabulariesMatchFig3) {
  const RuntimeTables& t = pf_->tables();
  // Initial state: V = {"<a"}.
  const DfaState& q0 = t.states[static_cast<size_t>(t.initial)];
  EXPECT_EQ(q0.keywords, (std::vector<std::string>{"<a"}));
  // After <a>: V = {"</a", "<b", "<c"}.
  int q1 = MustNext(t, t.initial, "a", false);
  const DfaState& s1 = t.states[static_cast<size_t>(q1)];
  EXPECT_EQ(s1.keywords, (std::vector<std::string>{"</a", "<b", "<c"}));
  // After <b>: V = {"</b"}; after <c>: V = {"</c"}.
  EXPECT_EQ(
      t.states[static_cast<size_t>(MustNext(t, q1, "b", false))].keywords,
      (std::vector<std::string>{"</b"}));
  EXPECT_EQ(
      t.states[static_cast<size_t>(MustNext(t, q1, "c", false))].keywords,
      (std::vector<std::string>{"</c"}));
}

TEST_F(Fig3Tables, ActionsMatchFig3) {
  const RuntimeTables& t = pf_->tables();
  const DfaState& q0 = t.states[static_cast<size_t>(t.initial)];
  EXPECT_EQ(q0.action, Action::kNop);
  int q1 = MustNext(t, t.initial, "a", false);
  const DfaState& s1 = t.states[static_cast<size_t>(q1)];
  EXPECT_EQ(s1.action, Action::kCopyTag);
  int q2 = MustNext(t, q1, "b", false);
  EXPECT_EQ(t.states[static_cast<size_t>(q2)].action, Action::kCopyOn);
  int q2h = MustNext(t, q2, "b", true);
  EXPECT_EQ(t.states[static_cast<size_t>(q2h)].action, Action::kCopyOff);
  int q3 = MustNext(t, q1, "c", false);
  EXPECT_EQ(t.states[static_cast<size_t>(q3)].action, Action::kNop);
  int q1h = MustNext(t, q1, "a", true);
  const DfaState& s1h = t.states[static_cast<size_t>(q1h)];
  EXPECT_EQ(s1h.action, Action::kCopyTag);
  EXPECT_TRUE(s1h.is_final);
}

TEST_F(Fig3Tables, JumpOffsetsMatchFig3AndExample3) {
  const RuntimeTables& t = pf_->tables();
  const DfaState& q0 = t.states[static_cast<size_t>(t.initial)];
  EXPECT_EQ(q0.jump, 0u);
  int q1 = MustNext(t, t.initial, "a", false);
  const DfaState& s1 = t.states[static_cast<size_t>(q1)];
  EXPECT_EQ(s1.jump, 0u);
  // Example 3: J[q3] = 4 -- c must contain at least one b, minimally <b/>.
  int q3 = MustNext(t, q1, "c", false);
  EXPECT_EQ(t.states[static_cast<size_t>(q3)].jump, 4u);
  int q2 = MustNext(t, q1, "b", false);
  EXPECT_EQ(t.states[static_cast<size_t>(q2)].jump, 0u);
}

TEST_F(Fig3Tables, CwBmSplitMatchesVocabularySizes) {
  const RuntimeTables& t = pf_->tables();
  // Fig. 3: q1, q-hat2 have 3 keywords (CW); q0, q2, q3 single (BM);
  // q-hat3 has 3 keywords; q-hat1 is final with none.
  EXPECT_EQ(t.num_cw_states + t.num_bm_states, 6u);
  EXPECT_EQ(t.num_cw_states, 3u);
  EXPECT_EQ(t.num_bm_states, 3u);
}

// --- Engine end-to-end -----------------------------------------------------

TEST(EngineTest, PaperExample2Projection) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string out =
      Filter(pf, "<a><b>one</b><c><b>shielded</b></c><b>two</b></a>");
  EXPECT_EQ(out, "<a><b>one</b><b>two</b></a>")
      << "b-children of a are kept with subtrees; b's under c are dropped";
}

TEST(EngineTest, PaperExample1EndToEnd) {
  Prefilter pf = Compile(kXmarkExcerpt, "//australia//description#");
  RunStats stats;
  std::string out = Filter(pf, kFig2Document, &stats);
  EXPECT_EQ(out,
            "<site><australia><description>Palm Zire 71</description>"
            "</australia></site>");
  // "only about 22% of all characters need to be inspected" -- ours may
  // differ slightly, but must stay well below half the input.
  EXPECT_LT(stats.CharCompPct(), 50.0);
  EXPECT_GT(stats.CharCompPct(), 5.0);
  EXPECT_EQ(stats.input_bytes, std::string(kFig2Document).size());
}

TEST(EngineTest, WhitespaceAndAttributesInTags) {
  // "<item >" must match like "<item>"; attributes must not confuse the
  // trailing-bracket scan.
  Prefilter pf = Compile(kXmarkExcerpt, "//item/name#");
  std::string doc =
      "<site><regions><africa><item  ><location>x</location>"
      "<name>N1</name><payment>p</payment><description>d</description>"
      "<shipping>s</shipping><incategory category=\"a&gt;b\"/></item>"
      "</africa><asia/><australia/></regions></site>";
  EXPECT_EQ(Filter(pf, doc),
            "<site><item><name>N1</name></item></site>");
}

TEST(EngineTest, PrefixTagnamesAreDisambiguated) {
  // Medline-style Abstract vs AbstractText (the paper's (¶) special case).
  const char dtd[] =
      "<!DOCTYPE r [ <!ELEMENT r (AbstractText, Abstract)>"
      " <!ELEMENT AbstractText (#PCDATA)> <!ELEMENT Abstract (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/r/Abstract#");
  std::string out =
      Filter(pf, "<r><AbstractText>long text</AbstractText>"
                 "<Abstract>short</Abstract></r>");
  EXPECT_EQ(out, "<r><Abstract>short</Abstract></r>");
}

TEST(EngineTest, BachelorTagsFireBothTransitions) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  EXPECT_EQ(Filter(pf, "<a><b/><c><b/></c></a>"), "<a><b/></a>");
  EXPECT_EQ(Filter(pf, "<a/>"), "<a/>");
}

TEST(EngineTest, AttributesCopiedWhenRequested) {
  Prefilter pf = Compile(kPaperDtd, "/a@ /a/b#");
  std::string out = Filter(pf, "<a><b>x</b></a>");
  EXPECT_EQ(out, "<a><b>x</b></a>");
  // With attributes on the input root. The DTD needs an irrelevant child
  // type (c), otherwise step (b) collapses <a> into a wholesale subtree
  // copy that legitimately keeps the attributes.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ATTLIST a id CDATA #IMPLIED>"
      " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf2 = Compile(dtd, "/a@ /a/b#");
  EXPECT_EQ(Filter(pf2, "<a id=\"7\"><b>x</b><c>z</c></a>"),
            "<a id=\"7\"><b>x</b></a>");
  Prefilter pf3 = Compile(dtd, "/a/b#");
  EXPECT_EQ(Filter(pf3, "<a id=\"7\"><b>x</b><c>z</c></a>"),
            "<a><b>x</b></a>")
      << "without '@' the attribute is dropped";
}

TEST(EngineTest, SkipsPrologAndDoctype) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!-- produced by test -->\n" +
      std::string(kPaperDtd) + "\n<a><b>x</b></a>";
  EXPECT_EQ(Filter(pf, doc), "<a><b>x</b></a>");
}

TEST(EngineTest, SmallWindowStreamsCorrectly) {
  // Force a tiny window; output must be identical to the whole-buffer run.
  Prefilter pf = Compile(kXmarkExcerpt, "//australia//description#");
  EngineOptions opts;
  opts.window_capacity = 64;
  RunStats stats;
  std::string small = Filter(pf, kFig2Document, &stats, opts);
  std::string big = Filter(pf, kFig2Document);
  EXPECT_EQ(small, big);
  EXPECT_LE(stats.window_peak, 1024u) << "window must not balloon";
}

TEST(EngineTest, LargeCopiedRegionStreamsThroughSmallWindow) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string text(100000, 'x');
  std::string doc = "<a><b>" + text + "</b></a>";
  EngineOptions opts;
  opts.window_capacity = 256;
  RunStats stats;
  std::string out = Filter(pf, doc, &stats, opts);
  EXPECT_EQ(out, "<a><b>" + text + "</b></a>");
  EXPECT_LE(stats.window_peak, 4096u)
      << "copy-on regions must flush incrementally, not grow the window";
}

TEST(EngineTest, InvalidDocumentReportsParseError) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  MemorySource in("<a><b>never closed");
  StringSink out;
  Status s = pf.Run(&in, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(EngineTest, StatsAreConsistent) {
  Prefilter pf = Compile(kXmarkExcerpt, "//item/description#");
  RunStats stats;
  std::string out = Filter(pf, kFig2Document, &stats);
  EXPECT_EQ(stats.output_bytes, out.size());
  EXPECT_GT(stats.matches, 0u);
  EXPECT_GT(stats.search.comparisons, 0u);
  EXPECT_GT(stats.states_visited, 2u);
  EXPECT_GT(stats.AvgShift(), 1.0);
}

TEST(EngineTest, InitialJumpsCanBeDisabled) {
  CompileOptions opts;
  opts.tables.enable_initial_jumps = false;
  Prefilter without = Compile(kXmarkExcerpt, "//item/shipping#", opts);
  Prefilter with = Compile(kXmarkExcerpt, "//item/shipping#");
  RunStats s_without, s_with;
  std::string out1 = Filter(without, kFig2Document, &s_without);
  std::string out2 = Filter(with, kFig2Document, &s_with);
  EXPECT_EQ(out1, out2) << "jumps are an optimization, not a semantic change";
  EXPECT_EQ(s_without.initial_jump_chars, 0u);
  EXPECT_GE(s_with.initial_jump_chars, s_without.initial_jump_chars);
}

TEST(EngineTest, SearchCountsIncludeFalseMatchRetries) {
  // Vocabulary keyword "<a" false-matches the undeclared tag <abc; every
  // retry must run (and count) a fresh search, so the per-algorithm search
  // counters can exceed the number of state entries. (Regression: the
  // counters were once incremented outside the retry loop.)
  // The irrelevant sibling type c keeps <r> from collapsing into a
  // wholesale subtree copy, so the engine really dispatches per tag.
  const char dtd[] =
      "<!DOCTYPE r [ <!ELEMENT r (a|c)*> <!ELEMENT a (#PCDATA)>"
      " <!ELEMENT c (#PCDATA)> ]>";
  Prefilter pf = Compile(dtd, "/r/a#");
  RunStats stats;
  std::string out =
      Filter(pf, "<r><abc>x</abc><abc>y</abc><a>k</a></r>", &stats);
  EXPECT_EQ(out, "<r><a>k</a></r>");
  EXPECT_GE(stats.false_matches, 2u);
  EXPECT_GE(stats.bm_searches + stats.cw_searches,
            stats.matches + stats.false_matches)
      << "each accepted or rejected candidate consumes one search";
}

TEST(TagInternerTest, DenseIdsInInsertionOrder) {
  TagInterner interner({"site", "item", "name", "site"});
  EXPECT_EQ(interner.size(), 3);
  EXPECT_EQ(interner.Find("site"), 0);
  EXPECT_EQ(interner.Find("item"), 1);
  EXPECT_EQ(interner.Find("name"), 2);
  EXPECT_EQ(interner.Find("nam"), -1);
  EXPECT_EQ(interner.Find("names"), -1);
  EXPECT_EQ(interner.Find(""), -1);
  EXPECT_EQ(interner.name(1), "item");
}

TEST(TagInternerTest, SurvivesRehashGrowth) {
  std::vector<std::string> names;
  for (int i = 0; i < 500; ++i) names.push_back("tag" + std::to_string(i));
  TagInterner interner(names);
  EXPECT_EQ(interner.size(), 500);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(interner.Find("tag" + std::to_string(i)), i);
  }
  EXPECT_EQ(interner.Find("tag500"), -1);
}

TEST_F(Fig3Tables, InternedDispatchMirrorsMapDispatch) {
  // The default (interned) tables must agree transition-for-transition with
  // a map-dispatch compile of the same inputs -- and must NOT carry the
  // legacy tree maps, which are dead weight on the interned path.
  const RuntimeTables& t = pf_->tables();
  ASSERT_TRUE(t.interned_dispatch);
  EXPECT_GT(t.interner.size(), 0);
  for (const DfaState& s : t.states) {
    EXPECT_TRUE(s.open_next.empty());
    EXPECT_TRUE(s.close_next.empty());
    if (!s.entry_name.empty()) {
      EXPECT_EQ(s.entry_tag_id, t.interner.Find(s.entry_name));
    }
  }

  CompileOptions map_opts;
  map_opts.tables.use_map_dispatch = true;
  Prefilter map_pf = Compile(kPaperDtd, "/a/b#", map_opts);
  const RuntimeTables& m = map_pf.tables();
  ASSERT_EQ(m.states.size(), t.states.size());
  for (size_t q = 0; q < m.states.size(); ++q) {
    int flat_open = 0;
    int flat_close = 0;
    for (int32_t v : t.states[q].open_next_id) flat_open += v >= 0 ? 1 : 0;
    for (int32_t v : t.states[q].close_next_id) {
      flat_close += v >= 0 ? 1 : 0;
    }
    EXPECT_EQ(flat_open, static_cast<int>(m.states[q].open_next.size()));
    EXPECT_EQ(flat_close, static_cast<int>(m.states[q].close_next.size()));
    for (const auto& [name, to] : m.states[q].open_next) {
      EXPECT_EQ(t.NextState(static_cast<int>(q), name, false), to);
    }
    for (const auto& [name, to] : m.states[q].close_next) {
      EXPECT_EQ(t.NextState(static_cast<int>(q), name, true), to);
    }
  }
}

TEST(EngineTest, MapDispatchFlagDisablesInterner) {
  CompileOptions opts;
  opts.tables.use_map_dispatch = true;
  Prefilter pf = Compile(kPaperDtd, "/a/b#", opts);
  EXPECT_FALSE(pf.tables().interned_dispatch);
  EXPECT_TRUE(pf.tables().interner.empty());
  std::string out =
      Filter(pf, "<a><b>one</b><c><b>shielded</b></c><b>two</b></a>");
  EXPECT_EQ(out, "<a><b>one</b><b>two</b></a>");
}

TEST(EngineTest, AlternativeFrontierAlgorithms) {
  for (strmatch::Algorithm algo :
       {strmatch::Algorithm::kAhoCorasick, strmatch::Algorithm::kSetHorspool,
        strmatch::Algorithm::kMemchr, strmatch::Algorithm::kNaive}) {
    CompileOptions opts;
    opts.tables.algorithm = algo;
    Prefilter pf = Compile(kXmarkExcerpt, "//australia//description#", opts);
    EXPECT_EQ(Filter(pf, kFig2Document),
              "<site><australia><description>Palm Zire 71</description>"
              "</australia></site>")
        << strmatch::AlgorithmName(algo);
  }
}

TEST(PrefilterTest, AddsStarPathByDefault) {
  Prefilter pf = Compile(kPaperDtd, "/a/b#");
  bool has_star = false;
  for (const auto& p : pf.paths()) {
    if (p.ToString() == "/*") has_star = true;
  }
  EXPECT_TRUE(has_star);
}

TEST(PrefilterTest, RejectsRecursiveDtd) {
  auto dtd = dtd::Dtd::Parse("<!ELEMENT a (a?)>", "a");
  ASSERT_TRUE(dtd.ok());
  auto pf = Prefilter::Compile(std::move(*dtd), P("/a"));
  ASSERT_FALSE(pf.ok());
  EXPECT_EQ(pf.status().code(), StatusCode::kUnsupported);
}

TEST(PrefilterTest, OutputIsWellFormed) {
  Prefilter pf = Compile(kXmarkExcerpt, "//item/name# //item/payment");
  std::string out = Filter(pf, kFig2Document);
  EXPECT_TRUE(xml::CheckWellFormed(out).ok()) << out;
}

}  // namespace
}  // namespace smpx::core
