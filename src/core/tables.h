// The four statically compiled runtime lookup tables of the paper (Fig. 3):
//   A -- transition function of the determinized runtime-automaton,
//   V -- frontier vocabulary (keywords "<t" / "</t") per state,
//   J -- initial jump offsets per state,
//   T -- actions per state.
// Packaged per DFA state together with the precompiled string matcher
// (Boyer-Moore for unary vocabularies, Commentz-Walter otherwise).

#ifndef SMPX_CORE_TABLES_H_
#define SMPX_CORE_TABLES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/selection.h"
#include "dtd/dtd_automaton.h"
#include "strmatch/matcher.h"

namespace smpx::core {

/// Maps the tag names of the runtime vocabulary to dense ids via a flat
/// open-addressing hash over string_view (no allocation, no tree walk on
/// lookup). Built once in FinishTables; the engine resolves every matched
/// tag name with one hash and at most a few contiguous probes.
class TagInterner {
 public:
  TagInterner() = default;
  /// Builds the table from `names` (duplicates collapse; insertion order
  /// defines the dense ids).
  explicit TagInterner(const std::vector<std::string>& names);

  /// Dense id of `name`, or -1 if the tag was never interned.
  int32_t Find(std::string_view name) const {
    if (slots_.empty()) return -1;
    size_t h = Hash(name) & mask_;
    for (;;) {
      int32_t s = slots_[h];
      if (s < 0 || names_[static_cast<size_t>(s)] == name) return s;
      h = (h + 1) & mask_;
    }
  }

  int32_t size() const { return static_cast<int32_t>(names_.size()); }
  bool empty() const { return names_.empty(); }
  const std::string& name(int32_t id) const {
    return names_[static_cast<size_t>(id)];
  }
  const std::vector<std::string>& names() const { return names_; }

  /// FNV-1a; short tag names hash in a handful of cycles.
  static size_t Hash(std::string_view s) {
    uint64_t h = 1469598103934665603ull;
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }

 private:
  std::vector<std::string> names_;
  std::vector<int32_t> slots_;  // index into names_, -1 when empty
  size_t mask_ = 0;             // slots_.size() - 1 (power of two)
};

/// One state of the runtime DFA with everything the engine needs.
struct DfaState {
  /// Frontier vocabulary V[q], sorted; keyword i belongs to matcher
  /// pattern i. Deliberately per-state rather than one interner-wide set:
  /// the interner resolves an already-found tag to its transition, while
  /// these vectors decide how far the BM/CW search can SHIFT through raw
  /// bytes -- collapsing them to the global vocabulary cost ~30% geomean
  /// throughput on the XMark sweep when last measured, so both structures
  /// stay.
  std::vector<std::string> keywords;
  /// Compiled search structure over `keywords` (null iff keywords empty).
  std::unique_ptr<strmatch::Matcher> matcher;
  /// A[q, <name>] / A[q, </name>] as tree maps: the transition input of
  /// FinishTables, shipped ONLY under TableOptions::use_map_dispatch (the
  /// legacy engine path); dead weight otherwise, so the default build
  /// empties them. Use RuntimeTables::NextState for mode-independent
  /// lookups.
  std::map<std::string, int, std::less<>> open_next;
  std::map<std::string, int, std::less<>> close_next;
  /// Interned-dispatch transition arrays: indexed by the tag id from
  /// RuntimeTables::interner, -1 = no transition. Sized to the full
  /// interner vocabulary (empty when map dispatch was requested).
  std::vector<int32_t> open_next_id;
  std::vector<int32_t> close_next_id;
  /// J[q]: characters safely skippable on entering this state.
  uint64_t jump = 0;
  /// T[q]: action performed when *entering* this state.
  Action action = Action::kNop;
  bool is_final = false;
  /// Longest keyword length (window overlap requirement).
  size_t max_keyword = 0;

  // Entry token (unique by homogeneity; empty for the initial state) and
  // precomputed emission strings so copy-tag actions are allocation-free.
  std::string entry_name;
  /// Interned id of entry_name (-1 for the initial state / map dispatch).
  int32_t entry_tag_id = -1;
  bool entry_closing = false;
  std::string emit_tag;       ///< "<name>" or "</name>"
  std::string emit_bachelor;  ///< "<name/>" (open-entry states only)

  /// Recursion support: this state is the inside of an opaque recursive
  /// region; the engine balances <entry_name>/</entry_name> occurrences and
  /// only takes the closing transition when the balance returns to zero.
  bool count_nesting = false;

  // Build analysis, both sorted: the DTD-automaton states this state stands
  // for and the token ids whose first occurrence bounds J[q] (FinishTables
  // computes the jump from them). BuildTables derives them from the
  // subset; the multi-query product compiler (query::MultiQuery) takes the
  // UNION of its non-final components' sets -- the min of the component
  // jumps is unsound, since an idle component may have entered its state
  // at an earlier cursor, so its jump window can already be spent.
  std::vector<int> subset_members;
  std::vector<int> vocab_tokens;
};

/// Per-query action data of a multi-query product DFA (attached by
/// query::MultiQuery::Compile): for every product state, bitmasks over the
/// unique queries saying which components moved on the state's entry token
/// and which per-query action fires on entry. Masks are `words` uint64_t
/// each, flattened per state (state q's word w sits at q * words + w), so
/// any number of queries works without per-state allocation. The shared
/// product action (DfaState::action) is always kNop on multi tables; the
/// engine applies the per-query actions from these masks instead.
struct MultiQueryInfo {
  int num_queries = 0;  ///< unique queries after query collapse
  int words = 0;        ///< ceil(num_queries / 64) mask words per state
  std::vector<uint64_t> moved;          ///< components that took the token
  std::vector<uint64_t> copy_tag;      ///< per-query Action::kCopyTag
  std::vector<uint64_t> copy_tag_atts; ///< per-query Action::kCopyTagAtts
  std::vector<uint64_t> copy_on;       ///< per-query Action::kCopyOn
  std::vector<uint64_t> copy_off;      ///< per-query Action::kCopyOff
  /// Product state taken when an open-entry state's tag turns out to be a
  /// bachelor "<t/>": moves EXACTLY the components in `moved` through their
  /// closing transition. Idle components must not move -- their independent
  /// runs never see the synthetic close inside "<t/>" because the keyword
  /// is not in their vocabulary. -1 when some moved component has no
  /// closing transition (a runtime ParseError, mirroring the single-query
  /// engine) or for close-entry / initial states.
  std::vector<int32_t> bachelor_close;

  const uint64_t* MaskAt(const std::vector<uint64_t>& flat, int state) const {
    return flat.data() + static_cast<size_t>(state) * words;
  }
};

/// Split keywords: element names at whose opening tag the runtime state is
/// known statically, so a sharded run can cut a document there and launch
/// each shard once. "<name" is a split keyword when `name` cannot occur
/// inside an opaque (recursive) region -- it is reachable from no opaque
/// instance's label (dtd::Dtd::ReachableFrom), since such a region may hold
/// those names in any balance -- and, over every DTD-valid document, each
/// opening of a `name` element below the root finds the run outside every
/// copy region in one of a set of states that share one behavior class
/// (SameRuntimeBehavior). The boundary-state walk of FinishTables records
/// those states. In a valid document every occurrence of such a keyword
/// followed by whitespace, '>' or '/' outside comments, CDATA sections, PIs
/// and the DOCTYPE declaration opens such an element, wherever in the tree
/// it sits -- root children included, when they qualify.
///
/// The BM/CW matcher over the keywords is built on the first call to
/// matcher(), once per tables, not at compile time: only sharded runs
/// probe for split points, and a CW matcher over a few dozen keywords
/// costs about a millisecond and several hundred KB, which table caches,
/// multi-query mixes and every serial run would otherwise pay.
class SplitKeywords {
 public:
  SplitKeywords() = default;
  /// `keywords` sorted and unique; `states[i]` the sorted member states of
  /// keywords[i].
  SplitKeywords(std::vector<std::string> keywords,
                std::vector<std::vector<int>> states);

  bool empty() const { return keywords_.empty(); }
  size_t size() const { return keywords_.size(); }
  /// "<name" strings, sorted.
  const std::vector<std::string>& keywords() const { return keywords_; }
  /// The DFA states a run can be in on the '<' of keywords()[i], sorted;
  /// all of one behavior class, at copy depth 0.
  const std::vector<int>& states(size_t i) const { return states_[i]; }
  /// Index of the keyword naming element `name` (no '<'), or -1.
  int Find(std::string_view name) const;
  /// The matcher over keywords(), built on first use; safe to call from
  /// several threads at once. Null when there are no keywords.
  const strmatch::Matcher* matcher() const;

 private:
  struct Lazy {
    std::once_flag once;
    std::unique_ptr<strmatch::Matcher> matcher;
  };
  std::vector<std::string> keywords_;
  std::vector<std::vector<int>> states_;
  // Behind a pointer so the tables stay movable; null only when moved from.
  std::unique_ptr<Lazy> lazy_ = std::make_unique<Lazy>();
};

/// The complete set of runtime tables; self-contained (the DTD-automaton
/// can be discarded after construction).
struct RuntimeTables {
  std::vector<DfaState> states;
  int initial = 0;

  /// Tag-name -> dense-id table backing the flat per-state transition
  /// arrays. Empty (and interned_dispatch false) under map dispatch.
  TagInterner interner;
  /// True when the engine should dispatch through interner +
  /// open_next_id/close_next_id instead of the tree maps.
  bool interned_dispatch = false;

  /// Static boundary-state analysis: the DFA states the runtime can be in
  /// when the document cursor rests on the '<' of a top-level element
  /// (a direct child of the root), sorted ascending. Computed at build time
  /// by a product walk of the DTD-automaton and the runtime DFA over every
  /// token sequence of a DTD-valid document, so for valid inputs the true
  /// entry state of any top-level boundary is ALWAYS contained in this set
  /// (fuzz_diff_test checks it). Empty only for hand-built tables or
  /// childless roots.
  ///
  /// A state may appear more than once: candidates are really
  /// (state, copy depth) pairs -- boundary_copy_depths[i] is the number of
  /// active copy regions when the cursor rests on such a boundary in state
  /// boundary_states[i] (a query that copies the whole root puts every
  /// top-level boundary inside one).
  ///
  /// Nothing reads these two fields at run time: the sharder cuts only at
  /// split keywords, whose states the same walk records. They stay because
  /// Fingerprint() hashes them, and dropping them would change every
  /// fingerprint, persisted index and cursor token.
  std::vector<int> boundary_states;
  /// Parallel to boundary_states, always the same length. Depths saturate
  /// at ComputeBoundaryStates' cap (statically unbounded copy recursion).
  std::vector<int> boundary_copy_depths;
  /// Record-level split points for the parallel sharder (see
  /// SplitKeywords). Not part of Fingerprint(): split points are advisory
  /// and a speculation that trusts them is verified exactly, so the field
  /// changes no engine behavior, and hashing it would invalidate every
  /// persisted index and cursor token.
  SplitKeywords split_keywords;

  /// Non-null iff these are multi-query product tables (see MultiQueryInfo).
  /// Shared because RuntimeTables moves/copies around freely and the info
  /// is immutable after construction.
  std::shared_ptr<const MultiQueryInfo> multi;

  /// Inert, always false: kept only because smpx-bench/src reads it.
  static constexpr bool use_bitmap_plane = false;

  // Report metadata (paper Table I "States (CW + BM)").
  size_t num_cw_states = 0;   ///< states with |V| > 1
  size_t num_bm_states = 0;   ///< states with |V| == 1
  size_t nfa_states_selected = 0;  ///< |S| including q0
  size_t stopover_states = 0;
  size_t collapsed_pairs = 0;

  /// A[from, <name>] (closing=false) or A[from, </name>] (closing=true);
  /// -1 when there is no transition. Works in both dispatch modes.
  int NextState(int from, std::string_view name, bool closing) const;

  /// Stable 64-bit fingerprint of the runtime-relevant table content:
  /// state count, initial state, and per state the vocabulary, jump,
  /// action, finality, entry token, recursion flag, and every transition
  /// reachable through the vocabulary -- identical across dispatch modes
  /// and process runs. A serialized SessionCheckpoint (boundary index,
  /// cursor token) names DFA states by number, which only means anything
  /// against the tables it was computed from; persisted artifacts record
  /// this fingerprint and fail closed on mismatch.
  uint64_t Fingerprint() const;

  std::string DebugString() const;
};

/// True when a run resumed in state `a` behaves exactly as one resumed in
/// state `b`: same frontier vocabulary (hence matcher behavior and search
/// counters), same transitions, same opaque-nesting semantics, same
/// finality, same re-entry jump. Entry *actions* are deliberately excluded
/// -- they fire only on transitions, never at a resume point -- so such
/// states (e.g. "after <root>" / "after </record>" in a star root) are one
/// class, and a split keyword's one speculative run in the sharder may
/// stand for several of them.
///
/// The partition is as coarse as exact replay allows. Successors must be
/// the *same states*, not merely equivalent ones: an accepted speculative
/// run stands in for the serial run byte-for-byte, including match
/// counters and the states_visited set, and a run routed through a twin
/// state would already diverge on those. Nor is there slack in the
/// transition domain: a state's keyword vocabulary is derived from its
/// transition function, so `keywords` equality plus per-tag successor
/// equality covers every transition the keyword search can reach.
bool SameRuntimeBehavior(const RuntimeTables& t, int a, int b);

/// Outputs a run over `tables` writes, one sink each: the unique query
/// count of product tables, 1 for single-query tables. Sessions and every
/// src/parallel driver take this many sinks.
inline size_t QueryCount(const RuntimeTables& tables) {
  return tables.multi != nullptr
             ? static_cast<size_t>(tables.multi->num_queries)
             : 1;
}

struct TableOptions {
  /// Algorithm for multi-keyword states (ablation hook); single-keyword
  /// states always honor it too when not kAuto.
  strmatch::Algorithm algorithm = strmatch::Algorithm::kAuto;
  /// Disable J (ablation): all jumps become 0.
  bool enable_initial_jumps = true;
  /// Keep the legacy std::map tag dispatch (and the engine's per-byte tag
  /// scanner) instead of the interned fast path; differential-testing and
  /// benchmarking baseline.
  bool use_map_dispatch = false;
  /// Disable the matchers' candidate skip loops (classical textbook BM/CW
  /// scan loops); together with use_map_dispatch this restores the seed's
  /// matching + tag-resolution hot path (prolog skipping is span-based in
  /// both modes). Differential-testing baseline.
  bool disable_matcher_skip_loops = false;
};

/// Determinizes the subgraph automaton and builds all tables: the subset
/// construction describes each state, FinishTables renders them.
Result<RuntimeTables> BuildTables(const dtd::DtdAutomaton& aut,
                                  const Selection& sel,
                                  const SubgraphAutomaton& sub,
                                  const TableOptions& opts = {});

/// The table renderer shared by one query (BuildTables) and many
/// (query::MultiQuery's product DFA). Every state of `tables` arrives
/// described by its transition maps (open_next / close_next), entry token,
/// is_final, action, count_nesting, subset_members and vocab_tokens. From
/// those it renders the emission strings, keywords V, matchers, jumps J,
/// the dispatch (tree maps kept under use_map_dispatch, interned id arrays
/// otherwise) and the boundary analysis. Report metadata and `multi` are
/// left to the caller.
Status FinishTables(const dtd::DtdAutomaton& aut, const TableOptions& opts,
                    RuntimeTables* tables);

}  // namespace smpx::core

#endif  // SMPX_CORE_TABLES_H_
