// Seeded randomized differential fuzz suite for the parallel subsystem:
// every generated (DTD, document, paths) case is prefiltered by the serial
// engine (ground truth), a session fed in random chunks, ShardedRun at
// 1/2/4/7 threads, the per-document batch driver (BatchRunStreaming, its
// segments copied out through the writer callback, over a resident source
// and one read through ReadAt), the merged batch driver
// (BatchRunStreamingMerged), and an index-resume mode (BoundaryIndex at
// random granularity, built in place and through rolling buffers -- the
// two must agree on every durable field -- then cursors opened at random
// byte targets plus token round-trips, each drained against the serial
// projection's suffix), at randomized window, chunk, shard, and
// output-buffer budget geometries (tiny budgets force the SpillSink
// overflow and ordered-commit paths on nearly every case) -- outputs must
// be byte-identical and the semantic statistics must match. Family 4
// replays cases under every SIMD dispatch tier and over a source read
// through ReadAt; family 5 runs random multi-query mixes through
// ShardedRun and a session fed in random chunks (one sink per unique
// query) against each query's independent run.
// Documents come from the src/xmlgen samplers (random nonrecursive DTDs
// plus XMark/MEDLINE/protein), with an adversarial edge-mix pass injecting
// comments, CDATA sections, processing instructions, and stray closing
// tags that desynchronize the structural boundary scanner without
// changing what the engine projects.
//
// The suite doubles as the property harness for the speculation machinery:
//  - every boundary the structural scan reports coincides with a real
//    top-level element start per the src/xml tokenizer;
//  - the static candidate-state set (RuntimeTables::boundary_states)
//    contains the true entry state at every top-level boundary of a
//    DTD-valid document;
//  - at every element of a DTD-valid document that opens a split keyword
//    (RuntimeTables::split_keywords), outside comments, CDATA sections and
//    PIs, the serial run is outside every copy and opaque region in one of
//    the keyword's member states -- the one fact a keyword-split shard's
//    single attempt relies on;
//  - early-kill speculation is always on: every sharded case resolves
//    incrementally and cancels losing attempts mid-wave (cooperative
//    kCancelled at session safe points), so byte-identity here also
//    proves a killed or stolen attempt never corrupts the committed
//    output or the merged statistics.
//
// SMPX_FUZZ_CASES scales the seeded sweep (default 40 cases per family;
// the ctest registration runs >= 100 cases total).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/engine.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/batch.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "query/multiquery.h"
#include "simd/simd.h"
#include "xml/tokenizer.h"
#include "xmlgen/dtd_sampler.h"
#include "xmlgen/medline.h"
#include "xmlgen/protein.h"
#include "xmlgen/xmark.h"

namespace smpx::core {
namespace {

int FamilyCases() {
  const char* env = std::getenv("SMPX_FUZZ_CASES");
  int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 40;
}

EngineOptions RandomEngineOptions(xmlgen::Rng* rng) {
  EngineOptions opts;
  switch (xmlgen::Uniform(rng, 0, 3)) {
    case 0: opts.window_capacity = 128; break;
    case 1: opts.window_capacity = 1024; break;
    case 2: opts.window_capacity = 4096; break;
    default: break;  // paper default, 8 pages
  }
  return opts;
}

/// Ground truth for the boundary property tests: byte offsets of every
/// top-level element start (child of the root), per the full tokenizer.
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

/// A source that hides its contiguity: the index build reads it through
/// its rolling buffers, RunEngine through ReadAt into its own buffer.
class RollingSource : public MemorySource {
 public:
  using MemorySource::MemorySource;
  std::string_view Contiguous() const override { return {}; }
};

/// Index entries agree on every field that does not depend on where the
/// build cut the engine's input (the search-effort counters do).
void ExpectSameDurableEntries(const index::BoundaryIndex& a,
                              const index::BoundaryIndex& b) {
  EXPECT_EQ(a.doc_digest(), b.doc_digest());
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (size_t i = 0; i < a.entries().size(); ++i) {
    SCOPED_TRACE(i);
    const index::IndexEntry& x = a.entries()[i];
    const index::IndexEntry& y = b.entries()[i];
    EXPECT_EQ(x.offset, y.offset);
    EXPECT_EQ(x.out_offset, y.out_offset);
    EXPECT_EQ(x.record_ordinal, y.record_ordinal);
    EXPECT_EQ(x.checkpoint.state, y.checkpoint.state);
    EXPECT_EQ(x.checkpoint.cursor, y.checkpoint.cursor);
    EXPECT_EQ(x.checkpoint.nesting_depth, y.checkpoint.nesting_depth);
    EXPECT_EQ(x.checkpoint.copy_depth, y.checkpoint.copy_depth);
    EXPECT_EQ(x.checkpoint.copy_flushed, y.checkpoint.copy_flushed);
    EXPECT_EQ(x.checkpoint.prolog_done, y.checkpoint.prolog_done);
    EXPECT_EQ(x.checkpoint.jump_pending, y.checkpoint.jump_pending);
    EXPECT_EQ(x.stats.matches, y.stats.matches);
    EXPECT_EQ(x.stats.false_matches, y.stats.false_matches);
  }
}

/// Runs every execution mode over `doc` and asserts byte-identical output
/// and matching semantic stats against the serial engine.
void ExpectAllModesIdentical(const Prefilter& pf, const std::string& doc,
                             xmlgen::Rng* rng) {
  EngineOptions eopts = RandomEngineOptions(rng);
  RunStats serial_stats;
  auto serial = pf.RunOnBuffer(doc, &serial_stats, eopts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString() << "\n" << doc;

  // Chunked push-mode session at a random granularity.
  {
    size_t chunk = static_cast<size_t>(xmlgen::Uniform(rng, 1, 97));
    StringSink sink;
    RunStats stats;
    PrefilterSession session(pf.tables(), &sink, &stats, eopts);
    for (size_t off = 0; off < doc.size(); off += chunk) {
      ASSERT_TRUE(
          session.Resume(std::string_view(doc).substr(off, chunk)).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
    EXPECT_EQ(sink.str(), *serial) << "chunked diverged, chunk=" << chunk;
    EXPECT_EQ(stats.matches, serial_stats.matches);
    EXPECT_EQ(stats.false_matches, serial_stats.false_matches);
    EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
  }

  // Sharded execution across thread counts and shard geometries. A tiny
  // randomized --max-buffer-style budget forces most cases through the
  // SpillSink overflow + ordered-commit path (budget 0 keeps the legacy
  // unbounded in-memory segments for contrast).
  for (int threads : {1, 2, 4, 7}) {
    parallel::ThreadPool pool(threads);
    parallel::ShardOptions opts;
    opts.max_shards = static_cast<size_t>(
        xmlgen::Uniform(rng, 1, 2 * threads + 1));
    opts.engine = eopts;
    opts.max_buffer_bytes =
        static_cast<size_t>(xmlgen::Uniform(rng, 0, 65));
    parallel::ShardReport report;
    StringSink sink;
    RunStats stats;
    Status s = parallel::ShardedRun(pf.tables(), doc, &sink, &stats, &pool,
                                    opts, &report);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(sink.str(), *serial)
        << "sharded diverged, threads=" << threads
        << " shards=" << report.shards
        << " budget=" << opts.max_buffer_bytes;
    EXPECT_EQ(stats.matches, serial_stats.matches);
    EXPECT_EQ(stats.false_matches, serial_stats.false_matches);
    EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
    EXPECT_EQ(stats.input_bytes, serial_stats.input_bytes);
    EXPECT_EQ(stats.states_visited, serial_stats.states_visited);
    EXPECT_EQ(report.accepted + report.reruns, report.speculated);
  }

  // Batch of the document, resident and read through ReadAt.
  {
    parallel::ThreadPool pool(3);
    parallel::StreamOptions sopts;
    sopts.engine = eopts;
    MemorySource src(doc);
    RollingSource rolled(doc);
    std::vector<const InputSource*> docs = {&src, &rolled};
    StringSink s0, s1;
    std::vector<OutputSink*> sinks = {&s0, &s1};
    std::vector<RunStats> stats;
    std::vector<Status> statuses = parallel::BatchRunStreaming(
        pf.tables(), docs,
        [&sinks](size_t d, size_t, const Status&, SpillSink* seg) {
          return seg != nullptr ? seg->CopyTo(sinks[d]) : Status::Ok();
        },
        nullptr, &stats, &pool, sopts);
    for (size_t i = 0; i < statuses.size(); ++i) {
      ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
      EXPECT_EQ(stats[i].matches, serial_stats.matches);
      EXPECT_EQ(stats[i].output_bytes, serial_stats.output_bytes);
    }
    EXPECT_EQ(s0.str(), *serial) << "batch diverged";
    EXPECT_EQ(s1.str(), *serial) << "batch over a read source diverged";
  }

  // Index-resumed random access: build a boundary index at a random
  // granularity, then enter the document at random byte targets (plus the
  // extremes); the cursor's drained output must be the exact suffix of
  // the serial projection starting at the entry's recorded projection
  // offset, and a token round-trip at the resume point must not change a
  // byte. This is the differential property the skip-index exists for.
  {
    index::BoundaryIndexOptions iopts;
    iopts.granularity_bytes = static_cast<uint64_t>(xmlgen::Uniform(
        rng, 1, std::max<int64_t>(2, static_cast<int64_t>(doc.size() / 3))));
    iopts.engine = eopts;
    auto idx =
        index::BoundaryIndex::Build(pf.tables(), MemorySource(doc), iopts);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    // The same build through rolling buffers, at a chunk derived from the
    // drawn granularity rather than a fresh draw, so every seed still
    // replays the same case.
    iopts.chunk_bytes =
        parallel::kMinScanChunkBytes + iopts.granularity_bytes % 193;
    auto rolled =
        index::BoundaryIndex::Build(pf.tables(), RollingSource(doc), iopts);
    ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
    {
      SCOPED_TRACE(testing::Message()
                   << "rolling build, chunk=" << iopts.chunk_bytes);
      ExpectSameDurableEntries(*idx, *rolled);
    }
    std::vector<uint64_t> targets = {0, doc.size()};
    for (int t = 0; t < 3; ++t) {
      targets.push_back(static_cast<uint64_t>(
          xmlgen::Uniform(rng, 0, static_cast<int64_t>(doc.size()))));
    }
    for (uint64_t target : targets) {
      auto cur = index::Cursor::OpenAt(*idx, pf.tables(), doc, target);
      ASSERT_TRUE(cur.ok()) << cur.status().ToString();
      ASSERT_LE(cur->output_position(), serial->size());
      const std::string expected =
          serial->substr(static_cast<size_t>(cur->output_position()));
      auto restored = index::Cursor::Restore(*idx, pf.tables(), doc,
                                             cur->SaveToken());
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      StringSink direct, via_token;
      ASSERT_TRUE(cur->Drain(&direct).ok());
      EXPECT_EQ(direct.str(), expected)
          << "index resume at target " << target << " (boundary "
          << cur->position() << ", granularity " << iopts.granularity_bytes
          << ") diverged from the serial suffix";
      ASSERT_TRUE(restored->Drain(&via_token).ok());
      EXPECT_EQ(via_token.str(), expected)
          << "token-restored resume at target " << target << " diverged";
    }
  }

  // Merged batch through spill segments and the ordered-commit frontier,
  // at a tiny budget so docs regularly overflow to disk and out-of-order
  // completions park spilled.
  {
    parallel::ThreadPool pool(3);
    parallel::StreamOptions sopts;
    sopts.engine = eopts;
    sopts.max_buffer_bytes =
        static_cast<size_t>(xmlgen::Uniform(rng, 1, 65));
    MemorySource src(doc);
    std::vector<const InputSource*> docs = {&src, &src, &src};
    StringSink merged;
    RunStats stats;
    Status s = parallel::BatchRunStreamingMerged(pf.tables(), docs, &merged,
                                                 &stats, &pool, sopts);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(merged.str(), *serial + *serial + *serial)
        << "merged batch diverged, budget=" << sopts.max_buffer_bytes;
    EXPECT_EQ(stats.matches, 3 * serial_stats.matches);
    EXPECT_EQ(stats.output_bytes, 3 * serial_stats.output_bytes);
  }
}

/// Ground truth for the split-keyword property: byte offsets of every
/// start tag below the root (bachelor tags included) whose name is a split
/// keyword, per the full tokenizer -- so none inside a comment, CDATA
/// section or PI.
std::vector<std::pair<uint64_t, int>> TokenizerSplitKeywordStarts(
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

/// Asserts the boundary-scanner properties and, when `dtd_valid`, the
/// candidate-state containment property and the split-keyword property:
/// at every split-keyword element a serial run stands outside every copy
/// and opaque region in one of the keyword's member states.
void ExpectBoundaryProperties(const Prefilter& pf, const std::string& doc,
                              bool dtd_valid) {
  std::vector<uint64_t> truth = TokenizerTopLevelStarts(doc);
  for (size_t splits : {1u, 3u, 7u}) {
    for (uint64_t b : parallel::FindTopLevelBoundaries(doc, splits)) {
      EXPECT_TRUE(std::find(truth.begin(), truth.end(), b) != truth.end())
          << "boundary " << b << " is not a top-level element start";
    }
  }
  if (!dtd_valid) return;

  // Containment: at every true top-level boundary, the state of a serial
  // run over the prefix must be in the static candidate set.
  const std::vector<int>& candidates = pf.tables().boundary_states;
  for (uint64_t b : truth) {
    StringSink sink;
    RunStats stats;
    PrefilterSession session(pf.tables(), &sink, &stats, {});
    ASSERT_TRUE(
        session.Resume(std::string_view(doc).substr(
                           0, static_cast<size_t>(b)))
            .ok());
    ASSERT_FALSE(session.finished());
    int state = session.checkpoint().state;
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), state) !=
                candidates.end())
        << "true entry state " << state << " at boundary " << b
        << " missing from the candidate set";
  }

  // Split keywords: one session fed up to each occurrence in turn.
  const SplitKeywords& split = pf.tables().split_keywords;
  StringSink sink;
  RunStats stats;
  PrefilterSession session(pf.tables(), &sink, &stats, {});
  uint64_t fed = 0;
  for (const auto& [offset, kw] : TokenizerSplitKeywordStarts(doc, split)) {
    ASSERT_TRUE(session
                    .Resume(std::string_view(doc).substr(
                        static_cast<size_t>(fed),
                        static_cast<size_t>(offset - fed)))
                    .ok());
    fed = offset;
    ASSERT_FALSE(session.finished());
    const SessionCheckpoint cp = session.checkpoint();
    const std::string& name = split.keywords()[static_cast<size_t>(kw)];
    const std::vector<int>& members = split.states(static_cast<size_t>(kw));
    EXPECT_EQ(cp.copy_depth, 0) << name << " at " << offset;
    EXPECT_EQ(cp.nesting_depth, 0u) << name << " at " << offset;
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(), cp.state))
        << "state " << cp.state << " at " << name << " (" << offset
        << ") is not a member";
  }
}

/// Injects well-formed opaque constructs (comments/CDATA/PIs whose fake
/// tags are outside every sampled vocabulary) at random between-token
/// positions; with `stray_closers`, also drops unmatched closing tags into
/// text, which desynchronizes the structural scanner's depth tracking but
/// is invisible to the engine (the names match no keyword).
std::string InjectEdgeMix(const std::string& doc, xmlgen::Rng* rng,
                          bool stray_closers) {
  static const char* kSnippets[] = {
      "<!-- <zz9 a=\"1\">commented</zz9> -->",
      "<![CDATA[ <zz8/> raw <zzq]]>",
      "<?zz7 fake='<b>' ?>",
      "<!--->-->",
  };
  static const char* kStray[] = {"</zz6>", "</zz5></zz5>", "<zz4>"};
  std::string out;
  out.reserve(doc.size() + 256);
  for (size_t i = 0; i < doc.size(); ++i) {
    out.push_back(doc[i]);
    // A '>' followed by '<' separates two constructs: a safe splice point.
    if (doc[i] == '>' && i + 1 < doc.size() && doc[i + 1] == '<') {
      if (xmlgen::Chance(rng, 0.08)) {
        out += kSnippets[static_cast<size_t>(
            xmlgen::Uniform(rng, 0, 3))];
      }
      if (stray_closers && xmlgen::Chance(rng, 0.05)) {
        out += kStray[static_cast<size_t>(xmlgen::Uniform(rng, 0, 2))];
      }
    }
  }
  return out;
}

// --- Family 1: random DTD / document / paths ------------------------------

TEST(FuzzDiffTest, RandomDtdDocumentsAcrossAllModes) {
  const int cases = FamilyCases();
  for (int seed = 0; seed < cases; ++seed) {
    SCOPED_TRACE(seed);
    xmlgen::Rng rng(0x5eed0000u + static_cast<unsigned>(seed));
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::string doc = xmlgen::RandomDocument(dtd, &rng);
    std::vector<paths::ProjectionPath> paths =
        xmlgen::RandomPaths(dtd, &rng);
    auto pf = Prefilter::Compile(dtd, std::move(paths));
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    ExpectAllModesIdentical(*pf, doc, &rng);
    ExpectBoundaryProperties(*pf, doc, /*dtd_valid=*/true);
  }
}

// --- Family 2: adversarial edge mixes -------------------------------------

TEST(FuzzDiffTest, EdgeMixedDocumentsStayByteIdentical) {
  const int cases = FamilyCases();
  for (int seed = 0; seed < cases; ++seed) {
    SCOPED_TRACE(seed);
    xmlgen::Rng rng(0xed6e0000u + static_cast<unsigned>(seed));
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::string doc = xmlgen::RandomDocument(dtd, &rng);
    std::vector<paths::ProjectionPath> paths =
        xmlgen::RandomPaths(dtd, &rng);
    auto pf = Prefilter::Compile(dtd, std::move(paths));
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    // Comments/CDATA/PIs keep the tag stream DTD-valid, so the
    // containment property must still hold...
    std::string mixed = InjectEdgeMix(doc, &rng, /*stray_closers=*/false);
    ExpectAllModesIdentical(*pf, mixed, &rng);
    ExpectBoundaryProperties(*pf, mixed, /*dtd_valid=*/true);
    // ...while stray closing tags may mis-place boundaries: every mode
    // must still be byte-identical (mis-speculation is repaired), but the
    // scanner/tokenizer agreement no longer applies.
    std::string strayed = InjectEdgeMix(doc, &rng, /*stray_closers=*/true);
    ExpectAllModesIdentical(*pf, strayed, &rng);
  }
}

// --- Family 3: dataset samplers (XMark / MEDLINE / protein) ---------------

TEST(FuzzDiffTest, XmarkSampledDocumentsAcrossAllModes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    xmlgen::Rng rng(0xa0c0000u + static_cast<unsigned>(seed));
    xmlgen::XmarkOptions gen;
    gen.target_bytes = 24 << 10;
    gen.seed = seed;
    std::string doc = xmlgen::GenerateXmark(gen);
    auto paths = paths::ProjectionPath::ParseList(
        "/site/people/person@ /site/people/person/name#");
    ASSERT_TRUE(paths.ok());
    auto pf = Prefilter::Compile(xmlgen::XmarkDtd(), std::move(*paths));
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    ExpectAllModesIdentical(*pf, doc, &rng);
    ExpectBoundaryProperties(*pf, doc, /*dtd_valid=*/true);
  }
}

TEST(FuzzDiffTest, MedlineSampledDocumentsAcrossAllModes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    xmlgen::Rng rng(0x3ed0000u + static_cast<unsigned>(seed));
    xmlgen::MedlineOptions gen;
    gen.target_bytes = 24 << 10;
    gen.seed = seed;
    std::string doc = xmlgen::GenerateMedline(gen);
    auto paths = paths::ProjectionPath::ParseList(
        "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
        "/MedlineCitationSet/MedlineCitation/DateCompleted#");
    ASSERT_TRUE(paths.ok());
    auto pf = Prefilter::Compile(xmlgen::MedlineDtd(), std::move(*paths));
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    ExpectAllModesIdentical(*pf, doc, &rng);
    ExpectBoundaryProperties(*pf, doc, /*dtd_valid=*/true);
  }
}

TEST(FuzzDiffTest, ProteinSampledDocumentsAcrossAllModes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    xmlgen::Rng rng(0x9207000u + static_cast<unsigned>(seed));
    xmlgen::ProteinOptions gen;
    gen.target_bytes = 24 << 10;
    gen.seed = seed;
    std::string doc = xmlgen::GenerateProtein(gen);
    auto paths = paths::ProjectionPath::ParseList(
        "/ProteinDatabase/ProteinEntry/protein/name# "
        "/ProteinDatabase/ProteinEntry/header@");
    ASSERT_TRUE(paths.ok());
    auto pf = Prefilter::Compile(xmlgen::ProteinDtd(), std::move(*paths));
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    ExpectAllModesIdentical(*pf, doc, &rng);
    ExpectBoundaryProperties(*pf, doc, /*dtd_valid=*/true);
  }
}

// --- Family 4: SIMD dispatch tier replay ----------------------------------
// Every generated case is prefiltered once per available dispatch tier
// (simd::SetIsa), with the scalar tier as the oracle: outputs must be
// byte-identical and the full statistics -- matcher comparisons, shifts,
// scan_chars -- must match, and the structural boundary scanner must pick
// identical split points. Tiers change how fast structural bytes are
// classified, never which bytes are classified. Each case also runs over a
// source that is read through ReadAt into a buffer instead of scanned in
// place; every RunStats field must still match.

TEST(FuzzDiffTest, EveryDispatchTierReplaysByteIdentical) {
  const simd::Isa saved = simd::ActiveIsa();
  const int cases = FamilyCases();
  for (int seed = 0; seed < cases; ++seed) {
    SCOPED_TRACE(seed);
    xmlgen::Rng rng(0x15a0000u + static_cast<unsigned>(seed));
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::string doc = InjectEdgeMix(xmlgen::RandomDocument(dtd, &rng), &rng,
                                    /*stray_closers=*/true);
    auto pf = Prefilter::Compile(dtd, xmlgen::RandomPaths(dtd, &rng));
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    EngineOptions eopts = RandomEngineOptions(&rng);

    simd::SetIsa(simd::Isa::kScalar);
    RunStats ref_stats;
    auto ref = pf->RunOnBuffer(doc, &ref_stats, eopts);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    std::vector<uint64_t> ref_bounds =
        parallel::FindTopLevelBoundaries(doc, 5);

    for (simd::Isa isa : simd::AvailableIsas()) {
      SCOPED_TRACE(simd::IsaName(isa));
      ASSERT_EQ(simd::SetIsa(isa), isa);
      RunStats stats;
      auto out = pf->RunOnBuffer(doc, &stats, eopts);
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
      EXPECT_EQ(stats.output_bytes, ref_stats.output_bytes);
      EXPECT_EQ(parallel::FindTopLevelBoundaries(doc, 5), ref_bounds);
    }

    // Reading the bytes through ReadAt instead of lending them changes no
    // byte and no counter.
    SCOPED_TRACE("rolling source");
    simd::SetIsa(simd::Isa::kScalar);
    const RollingSource in(doc);
    StringSink sink;
    RunStats stats;
    ASSERT_TRUE(pf->Run(&in, &sink, &stats, eopts).ok());
    ASSERT_EQ(sink.str(), *ref);
    EXPECT_EQ(stats.input_bytes, ref_stats.input_bytes);
    EXPECT_EQ(stats.output_bytes, ref_stats.output_bytes);
    EXPECT_EQ(stats.search.comparisons, ref_stats.search.comparisons);
    EXPECT_EQ(stats.search.shifts, ref_stats.search.shifts);
    EXPECT_EQ(stats.search.shift_chars, ref_stats.search.shift_chars);
    EXPECT_EQ(stats.scan_chars, ref_stats.scan_chars);
    EXPECT_EQ(stats.initial_jumps, ref_stats.initial_jumps);
    EXPECT_EQ(stats.initial_jump_chars, ref_stats.initial_jump_chars);
    EXPECT_EQ(stats.matches, ref_stats.matches);
    EXPECT_EQ(stats.false_matches, ref_stats.false_matches);
    EXPECT_EQ(stats.states_visited, ref_stats.states_visited);
    EXPECT_EQ(stats.bm_searches, ref_stats.bm_searches);
    EXPECT_EQ(stats.cw_searches, ref_stats.cw_searches);
    EXPECT_EQ(stats.window_peak, ref_stats.window_peak);
  }
  simd::SetIsa(saved);
}

// --- Family 5: multi-query product vs independent single-query runs -------
// Random 2-8 query mixes (with occasional exact duplicates) compile into
// one shared product DFA and run serially, sharded at 2 and 4 threads
// with a tiny spill budget, and as a session fed in chunks; every
// ORIGINAL query's bytes and semantic statistics must equal its own
// independent single-query serial run. This is the differential contract
// the multi-query engine ships under: one pass, N projections, each
// byte-identical to what the query would have produced alone.

TEST(FuzzDiffTest, MultiQueryMixesMatchIndependentRuns) {
  const int cases = FamilyCases();
  for (int seed = 0; seed < cases; ++seed) {
    SCOPED_TRACE(seed);
    xmlgen::Rng rng(0x309b0000u + static_cast<unsigned>(seed));
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::string doc = xmlgen::RandomDocument(dtd, &rng);
    const int n = static_cast<int>(xmlgen::Uniform(&rng, 2, 8));
    std::vector<std::vector<paths::ProjectionPath>> queries;
    for (int q = 0; q < n; ++q) {
      if (!queries.empty() && xmlgen::Chance(&rng, 0.2)) {
        // Exact duplicate of an earlier query: must collapse to one
        // component and still fill its own sink and stats.
        queries.push_back(queries[static_cast<size_t>(xmlgen::Uniform(
            &rng, 0, static_cast<int64_t>(queries.size()) - 1))]);
      } else {
        queries.push_back(xmlgen::RandomPaths(dtd, &rng));
      }
    }

    // Ground truth: each original query's own independent serial run.
    std::vector<std::string> expected;
    std::vector<RunStats> expected_stats(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q) {
      auto pf = Prefilter::Compile(dtd, queries[static_cast<size_t>(q)]);
      ASSERT_TRUE(pf.ok()) << pf.status().ToString();
      auto out =
          pf->RunOnBuffer(doc, &expected_stats[static_cast<size_t>(q)]);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      expected.push_back(std::move(*out));
    }

    auto mq = query::MultiQuery::Compile(dtd, queries);
    ASSERT_TRUE(mq.ok()) << mq.status().ToString();
    ASSERT_EQ(mq->num_queries(), n);
    ASSERT_LE(mq->num_unique(), n);

    EngineOptions eopts = RandomEngineOptions(&rng);
    auto check = [&](const std::string& mode,
                     const std::vector<StringSink>& sinks,
                     const std::vector<QueryRunStats>& qstats) {
      ASSERT_EQ(qstats.size(), static_cast<size_t>(n)) << mode;
      for (int q = 0; q < n; ++q) {
        const size_t i = static_cast<size_t>(q);
        EXPECT_EQ(sinks[i].str(), expected[i])
            << mode << " diverged for query " << q;
        EXPECT_EQ(qstats[i].matches, expected_stats[i].matches)
            << mode << " match count diverged for query " << q;
        EXPECT_EQ(qstats[i].output_bytes, expected_stats[i].output_bytes)
            << mode << " output bytes diverged for query " << q;
      }
    };

    // One serial product pass over the buffer.
    {
      std::vector<StringSink> sinks(static_cast<size_t>(n));
      std::vector<OutputSink*> ptrs;
      for (StringSink& s : sinks) ptrs.push_back(&s);
      std::vector<QueryRunStats> qstats;
      RunStats stats;
      Status s = mq->RunOnBuffer(doc, ptrs, &qstats, &stats, eopts);
      ASSERT_TRUE(s.ok()) << s.ToString();
      check("serial", sinks, qstats);
    }

    // Sharded product runs; tiny budgets force the per-query spill +
    // ordered-commit machinery on most cases.
    for (int threads : {2, 4}) {
      parallel::ThreadPool pool(threads);
      parallel::ShardOptions sopts;
      sopts.engine = eopts;
      sopts.max_shards = static_cast<size_t>(
          xmlgen::Uniform(&rng, 1, 2 * threads + 1));
      sopts.max_buffer_bytes =
          static_cast<size_t>(xmlgen::Uniform(&rng, 0, 65));
      std::vector<StringSink> sinks(static_cast<size_t>(n));
      std::vector<OutputSink*> ptrs;
      for (StringSink& s : sinks) ptrs.push_back(&s);
      std::vector<std::unique_ptr<FanoutSink>> owned;
      std::vector<OutputSink*> unique_sinks;
      mq->RouteSinks(ptrs, &owned, &unique_sinks);
      std::vector<QueryRunStats> unique_stats;
      RunStats stats;
      Status s = parallel::ShardedRun(*mq->shared_tables(), doc, unique_sinks,
                                      &unique_stats, &stats, &pool, sopts);
      ASSERT_TRUE(s.ok()) << s.ToString();
      std::vector<QueryRunStats> qstats;
      mq->ExpandStats(unique_stats, &qstats);
      check("sharded t=" + std::to_string(threads), sinks, qstats);
    }

    // A session fed in chunks of a random size.
    {
      const size_t chunk =
          static_cast<size_t>(xmlgen::Uniform(&rng, 1, 4096));
      std::vector<StringSink> sinks(static_cast<size_t>(n));
      std::vector<OutputSink*> ptrs;
      for (StringSink& s : sinks) ptrs.push_back(&s);
      std::vector<std::unique_ptr<FanoutSink>> owned;
      std::vector<OutputSink*> unique_sinks;
      mq->RouteSinks(ptrs, &owned, &unique_sinks);
      std::vector<QueryRunStats> unique_stats;
      RunStats stats;
      PrefilterSession session(*mq->shared_tables(), unique_sinks,
                               &unique_stats, &stats, eopts);
      Status s;
      for (size_t off = 0; off < doc.size() && s.ok(); off += chunk) {
        s = session.Resume(std::string_view(doc).substr(off, chunk));
      }
      if (s.ok()) s = session.Finish();
      ASSERT_TRUE(s.ok()) << s.ToString();
      std::vector<QueryRunStats> qstats;
      mq->ExpandStats(unique_stats, &qstats);
      check("chunked, chunk=" + std::to_string(chunk), sinks, qstats);
    }
  }
}

}  // namespace
}  // namespace smpx::core
