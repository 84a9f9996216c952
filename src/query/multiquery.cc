#include "query/multiquery.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "dtd/dtd_automaton.h"
#include "dtd/min_serial.h"
#include "paths/relevance.h"
#include "query/equivalence.h"

namespace smpx::query {
namespace {

using core::Action;
using core::DfaState;
using core::MultiQueryInfo;
using core::RuntimeTables;

/// The implicit "/*" path every compiled query carries (core::Prefilter
/// appends the same one).
paths::ProjectionPath StarPath() {
  paths::ProjectionPath star;
  paths::PathStep step;
  step.axis = paths::PathStep::Axis::kChild;
  step.wildcard = true;
  star.steps.push_back(step);
  return star;
}

std::string SyntacticKey(const std::vector<paths::ProjectionPath>& canon) {
  std::string key;
  for (const paths::ProjectionPath& p : canon) {
    key += p.ToString();
    key.push_back('\n');
  }
  return key;
}

/// Behavioral equality of two compiled component tables: same states (by
/// build order -- determinization is deterministic, so equal inputs number
/// equally), entry metadata, actions, keywords, and transitions. Equal
/// tables emit identical bytes on every input, which is the guarantee the
/// semantic collapse must provide: the abstract flag walk can declare two
/// path sets equivalent while the conservative relevance analysis compiles
/// them differently (e.g. overlapping "//" and exact paths widen to a
/// coarser projection), and collapsing those would break the per-query
/// byte-identity contract. Isomorphic-but-renumbered tables compare
/// unequal, which is merely a missed collapse, never an unsound one.
bool SameComponentBehavior(const RuntimeTables& a, const RuntimeTables& b) {
  if (a.states.size() != b.states.size() || a.initial != b.initial) {
    return false;
  }
  for (size_t q = 0; q < a.states.size(); ++q) {
    const DfaState& x = a.states[q];
    const DfaState& y = b.states[q];
    if (x.is_final != y.is_final || x.entry_closing != y.entry_closing ||
        x.entry_name != y.entry_name || x.action != y.action ||
        x.keywords != y.keywords) {
      return false;
    }
    for (const std::string& kw : x.keywords) {
      const bool closing = kw.size() > 1 && kw[1] == '/';
      const std::string_view name =
          std::string_view(kw).substr(closing ? 2u : 1u);
      if (a.NextState(static_cast<int>(q), name, closing) !=
          b.NextState(static_cast<int>(q), name, closing)) {
        return false;
      }
    }
  }
  return true;
}

/// Moore partition refinement on a component DFA, in place. BuildTables'
/// subset construction distinguishes states by their automaton member
/// sets, which keeps behaviorally identical states apart -- e.g. "inside
/// the root, child k not yet seen" vs "inside the root, child k closed"
/// compile to distinct states with identical keywords, actions, and
/// transitions. A single-query run never notices, but the product over N
/// components multiplies those private distinctions into 2^N tuples.
/// Merging behavior-equivalent states first keeps the product linear.
/// Classes are numbered by first member occurrence, so minimization is
/// deterministic and SameComponentBehavior stays meaningful.
void MinimizeComponent(RuntimeTables* t) {
  const size_t n = t->states.size();
  // Initial partition: everything observable on entry except transitions.
  std::vector<int> cls(n);
  {
    std::map<std::string, int> sig_ids;
    for (size_t q = 0; q < n; ++q) {
      const DfaState& st = t->states[q];
      std::string sig;
      sig.push_back(st.is_final ? 'F' : 'f');
      sig.push_back(st.entry_closing ? '/' : '<');
      sig.push_back(static_cast<char>('0' + static_cast<int>(st.action)));
      sig.push_back(st.count_nesting ? 'N' : 'n');
      sig += st.entry_name;
      for (const std::string& kw : st.keywords) {
        sig.push_back('\0');
        sig += kw;
      }
      auto [it, inserted] =
          sig_ids.emplace(std::move(sig), static_cast<int>(sig_ids.size()));
      (void)inserted;
      cls[q] = it->second;
    }
  }
  // Refine until stable: split a class when members disagree on any
  // keyword's target class (keyword lists are aligned within a class by
  // the initial signature). Classes only ever split, and both numberings
  // are first-occurrence order, so the fixpoint test is plain equality.
  for (;;) {
    std::map<std::vector<int>, int> sig_ids;
    std::vector<int> next(n);
    for (size_t q = 0; q < n; ++q) {
      const DfaState& st = t->states[q];
      std::vector<int> sig;
      sig.reserve(st.keywords.size() + 1);
      sig.push_back(cls[q]);
      for (const std::string& kw : st.keywords) {
        const bool closing = kw.size() > 1 && kw[1] == '/';
        const std::string_view name =
            std::string_view(kw).substr(closing ? 2u : 1u);
        const int to = t->NextState(static_cast<int>(q), name, closing);
        sig.push_back(to < 0 ? -1 : cls[static_cast<size_t>(to)]);
      }
      auto [it, inserted] =
          sig_ids.emplace(std::move(sig), static_cast<int>(sig_ids.size()));
      (void)inserted;
      next[q] = it->second;
    }
    if (next == cls) break;
    cls = std::move(next);
  }
  int num_classes = 0;
  for (int c : cls) num_classes = std::max(num_classes, c + 1);
  if (static_cast<size_t>(num_classes) == n) return;  // already minimal
  std::vector<int> rep(static_cast<size_t>(num_classes), -1);
  for (size_t q = 0; q < n; ++q) {
    if (rep[static_cast<size_t>(cls[q])] < 0) {
      rep[static_cast<size_t>(cls[q])] = static_cast<int>(q);
    }
  }
  std::vector<DfaState> states;
  states.reserve(static_cast<size_t>(num_classes));
  for (int c = 0; c < num_classes; ++c) {
    DfaState st = std::move(t->states[static_cast<size_t>(rep[static_cast<size_t>(c)])]);
    // Merged analysis sets: the members feed the product's jump
    // recomputation, where a superset (and the min jump) is conservative.
    std::set<int> members(st.subset_members.begin(), st.subset_members.end());
    std::set<int> vocab(st.vocab_tokens.begin(), st.vocab_tokens.end());
    uint64_t jump = st.jump;
    for (size_t q = 0; q < n; ++q) {
      if (cls[q] != c || static_cast<int>(q) == rep[static_cast<size_t>(c)]) {
        continue;
      }
      const DfaState& o = t->states[q];
      members.insert(o.subset_members.begin(), o.subset_members.end());
      vocab.insert(o.vocab_tokens.begin(), o.vocab_tokens.end());
      jump = std::min(jump, o.jump);
    }
    st.subset_members.assign(members.begin(), members.end());
    st.vocab_tokens.assign(vocab.begin(), vocab.end());
    st.jump = jump;
    for (int32_t& v : st.open_next_id) {
      if (v >= 0) v = cls[static_cast<size_t>(v)];
    }
    for (int32_t& v : st.close_next_id) {
      if (v >= 0) v = cls[static_cast<size_t>(v)];
    }
    for (auto& [name, v] : st.open_next) v = cls[static_cast<size_t>(v)];
    for (auto& [name, v] : st.close_next) v = cls[static_cast<size_t>(v)];
    states.push_back(std::move(st));
  }
  t->states = std::move(states);
  t->initial = cls[static_cast<size_t>(t->initial)];
}

/// Quotient of a component DFA by FUTURE behavior, for the product tuple.
/// A component state's entry action fires once, on the transition that
/// enters it; afterwards only keywords, finality, and where each keyword
/// leads (and with which entry action) matter. States differing only in
/// how they were entered -- e.g. "inside the root" via the open tag
/// (copy-tag) vs via a matched child's close (copy-off) -- share a class.
/// This is what keeps the product linear: those entry distinctions are
/// private per component, and tuples over raw states would multiply them
/// into 2^N combinations of "which queries matched at least once".
/// Refinement signature: (own class, per keyword: target class + target
/// action), so any member of a class yields the same masks and the same
/// successor classes for every token -- the product reads transitions
/// through a class representative.
struct BehaviorClasses {
  std::vector<int> cls;  ///< state -> class
  std::vector<int> rep;  ///< class -> first member state
};

BehaviorClasses ComputeBehaviorClasses(const RuntimeTables& t) {
  const size_t n = t.states.size();
  std::vector<int> cls(n);
  {
    std::map<std::string, int> sig_ids;
    for (size_t q = 0; q < n; ++q) {
      const DfaState& st = t.states[q];
      std::string sig;
      sig.push_back(st.is_final ? 'F' : 'f');
      sig.push_back(st.count_nesting ? 'N' : 'n');
      for (const std::string& kw : st.keywords) {
        sig.push_back('\0');
        sig += kw;
      }
      auto [it, inserted] =
          sig_ids.emplace(std::move(sig), static_cast<int>(sig_ids.size()));
      (void)inserted;
      cls[q] = it->second;
    }
  }
  for (;;) {
    std::map<std::vector<int>, int> sig_ids;
    std::vector<int> next(n);
    for (size_t q = 0; q < n; ++q) {
      const DfaState& st = t.states[q];
      std::vector<int> sig;
      sig.reserve(2 * st.keywords.size() + 1);
      sig.push_back(cls[q]);
      for (const std::string& kw : st.keywords) {
        const bool closing = kw.size() > 1 && kw[1] == '/';
        const std::string_view name =
            std::string_view(kw).substr(closing ? 2u : 1u);
        const int to = t.NextState(static_cast<int>(q), name, closing);
        sig.push_back(to < 0 ? -1 : cls[static_cast<size_t>(to)]);
        sig.push_back(to < 0 ? -1
                             : static_cast<int>(
                                   t.states[static_cast<size_t>(to)].action));
      }
      auto [it, inserted] =
          sig_ids.emplace(std::move(sig), static_cast<int>(sig_ids.size()));
      (void)inserted;
      next[q] = it->second;
    }
    if (next == cls) break;
    cls = std::move(next);
  }
  BehaviorClasses out;
  out.cls = std::move(cls);
  int num_classes = 0;
  for (int c : out.cls) num_classes = std::max(num_classes, c + 1);
  out.rep.assign(static_cast<size_t>(num_classes), -1);
  for (size_t q = 0; q < n; ++q) {
    if (out.rep[static_cast<size_t>(out.cls[q])] < 0) {
      out.rep[static_cast<size_t>(out.cls[q])] = static_cast<int>(q);
    }
  }
  return out;
}

/// One product-DFA state under construction: the tuple of component states
/// plus the entry token and the set of components that moved on it (the
/// masks and the bachelor-close target derive from these, and the entry is
/// part of the identity -- two predecessors reaching the same tuple through
/// different tokens would otherwise disagree on what to emit).
struct BuildState {
  std::vector<int> tuple;
  std::string entry_name;
  bool entry_closing = false;
  std::vector<uint64_t> moved;
  /// DTD-automaton positions the document can occupy on entry to this
  /// state (before closure over the tokens this state does not search
  /// for). Drives reachability pruning: the blind component product
  /// explores token interleavings no valid document produces, and without
  /// the tracker the state count is exponential in the mix size.
  std::vector<int> positions;
  std::map<std::string, int, std::less<>> open_to;
  std::map<std::string, int, std::less<>> close_to;
  int32_t bachelor_close = -1;
};

std::string TupleKey(const std::vector<int>& tuple,
                     const std::string& entry_name, bool entry_closing,
                     const std::vector<uint64_t>& moved,
                     const std::vector<int>& positions) {
  std::string key;
  key.reserve((tuple.size() + positions.size()) * 4 + moved.size() * 8 +
              entry_name.size() + 2);
  auto put_u32 = [&key](uint32_t v) {
    for (int i = 0; i < 4; ++i) key.push_back(static_cast<char>(v >> (8 * i)));
  };
  for (int s : tuple) put_u32(static_cast<uint32_t>(s));
  put_u32(0xffffffffu);  // separator: tuple and positions are both id lists
  for (int p : positions) put_u32(static_cast<uint32_t>(p));
  for (uint64_t w : moved) {
    put_u32(static_cast<uint32_t>(w));
    put_u32(static_cast<uint32_t>(w >> 32));
  }
  key.push_back(entry_closing ? '/' : '<');
  key += entry_name;
  return key;
}

Status BuildMatcher(DfaState* state, const core::TableOptions& topts) {
  state->matcher = strmatch::MakeMatcher(state->keywords, topts.algorithm);
  if (state->matcher == nullptr) {
    state->matcher =
        strmatch::MakeMatcher(state->keywords, strmatch::Algorithm::kAuto);
  }
  if (state->matcher == nullptr) {
    return Status::Internal("failed to build matcher for product state");
  }
  state->matcher->set_skip_loops(!topts.disable_matcher_skip_loops);
  return Status::Ok();
}

}  // namespace

Result<MultiQuery> MultiQuery::Compile(
    dtd::Dtd dtd, std::vector<std::vector<paths::ProjectionPath>> queries,
    const MultiQueryOptions& opts) {
  if (queries.empty()) {
    return Status::InvalidArgument("multi-query mix has no queries");
  }
  if (opts.compile.allow_recursion) {
    return Status::Unsupported(
        "multi-query compilation does not support recursive DTDs (opaque "
        "regions need per-component nesting counters the shared product "
        "cannot carry)");
  }
  if (opts.compile.tables.use_map_dispatch) {
    return Status::InvalidArgument(
        "multi-query tables require interned dispatch "
        "(TableOptions::use_map_dispatch must be false)");
  }

  MultiQuery mq;
  mq.dtd_ = std::make_shared<const dtd::Dtd>(std::move(dtd));
  mq.original_queries_ = queries;
  mq.compile_opts_ = opts.compile;

  std::vector<std::string> alphabet;
  for (const dtd::ElementDecl& decl : mq.dtd_->elements()) {
    alphabet.push_back(decl.name);
  }

  // One DTD-automaton shared by every component build (the unfolding
  // depends only on the DTD) and by the product's jump / boundary analyses.
  SMPX_ASSIGN_OR_RETURN(dtd::DtdAutomaton aut,
                        dtd::DtdAutomaton::Build(*mq.dtd_, opts.compile.max_instances,
                                                 /*allow_recursion=*/false));

  // Component tables for one canonical query through the standard pipeline
  // (select, subgraph, determinize). No opaque instances exist with
  // recursion rejected, so the prefilter's recursion-soundness pass is
  // vacuous here.
  auto build_component =
      [&](const std::vector<paths::ProjectionPath>& canon)
      -> Result<RuntimeTables> {
    std::vector<paths::ProjectionPath> paths = canon;
    paths::ProjectionPath star = StarPath();
    if (std::find(paths.begin(), paths.end(), star) == paths.end()) {
      paths.push_back(star);
    }
    paths::RelevanceAnalyzer analyzer(std::move(paths), alphabet);
    core::Selection sel = core::SelectStates(aut, analyzer);
    core::SubgraphAutomaton sub = core::BuildSubgraph(aut, sel);
    SMPX_ASSIGN_OR_RETURN(RuntimeTables component,
                          core::BuildTables(aut, sel, sub, opts.compile.tables));
    for (const DfaState& st : component.states) {
      if (st.count_nesting) {
        return Status::Unsupported(
            "multi-query component contains a nesting-counting state");
      }
    }
    MinimizeComponent(&component);
    return component;
  };

  // Equivalence collapse: syntactic canonical forms first (free), then the
  // semantic product walk against each existing representative. A semantic
  // merge is only taken when the candidate's COMPILED tables behave
  // identically to the representative's: the differential contract is
  // byte-identity with the query's own single-query run, and the engine --
  // not the abstract semantics -- defines those bytes.
  std::map<std::string, int> by_key;
  std::vector<RuntimeTables> components;
  for (std::vector<paths::ProjectionPath>& q : queries) {
    std::vector<paths::ProjectionPath> canon =
        CanonicalizePathSet(std::move(q));
    std::string key = SyntacticKey(canon);
    auto it = by_key.find(key);
    if (it != by_key.end()) {
      mq.unique_of_.push_back(it->second);
      continue;
    }
    SMPX_ASSIGN_OR_RETURN(RuntimeTables component, build_component(canon));
    int unique = -1;
    if (opts.semantic_collapse) {
      for (size_t u = 0; u < mq.unique_queries_.size(); ++u) {
        if (EquivalentProjectionQueries(canon, mq.unique_queries_[u], alphabet,
                                        opts.equivalence_budget) &&
            SameComponentBehavior(component, components[u])) {
          unique = static_cast<int>(u);
          break;
        }
      }
    }
    if (unique < 0) {
      unique = static_cast<int>(mq.unique_queries_.size());
      mq.unique_queries_.push_back(std::move(canon));
      components.push_back(std::move(component));
    }
    by_key[std::move(key)] = unique;
    mq.unique_of_.push_back(unique);
  }

  const int num_unique = static_cast<int>(mq.unique_queries_.size());

  const int words = (num_unique + 63) / 64;

  // Future-behavior quotient per component (see ComputeBehaviorClasses):
  // product tuples hold class REPRESENTATIVE states, and each mover's
  // entry action is captured on the transition that moves it. Merge every
  // class's retained analysis sets into its representative so the
  // product's jump recomputation stays sound for any member's context.
  std::vector<BehaviorClasses> beh;
  beh.reserve(components.size());
  for (RuntimeTables& c : components) {
    BehaviorClasses bc = ComputeBehaviorClasses(c);
    for (size_t q = 0; q < c.states.size(); ++q) {
      const int r = bc.rep[static_cast<size_t>(bc.cls[q])];
      if (r == static_cast<int>(q)) continue;
      DfaState& rs = c.states[static_cast<size_t>(r)];
      const DfaState& os = c.states[q];
      std::set<int> members(rs.subset_members.begin(),
                            rs.subset_members.end());
      members.insert(os.subset_members.begin(), os.subset_members.end());
      rs.subset_members.assign(members.begin(), members.end());
      std::set<int> vocab(rs.vocab_tokens.begin(), rs.vocab_tokens.end());
      vocab.insert(os.vocab_tokens.begin(), os.vocab_tokens.end());
      rs.vocab_tokens.assign(vocab.begin(), vocab.end());
    }
    beh.push_back(std::move(bc));
  }
  auto canon_state = [&beh](int u, int s) {
    const BehaviorClasses& bc = beh[static_cast<size_t>(u)];
    return bc.rep[static_cast<size_t>(bc.cls[static_cast<size_t>(s)])];
  };

  // Product subset construction. A component that has reached a final
  // state is FROZEN: its independent run would have stopped there and
  // ignored the rest of the document, so it contributes no keywords, no
  // transitions, and no further output.
  std::map<std::string, int> ids;
  std::vector<BuildState> product;
  std::vector<std::vector<uint64_t>> mask_copy_tag, mask_copy_tag_atts,
      mask_copy_on, mask_copy_off;
  // Per-query entry actions arrive WITH the transition (one (query,
  // action) pair per moved component): the tuple stores behavior-class
  // representatives, whose own entry action may differ from the action of
  // the concrete state the component really entered.
  auto intern = [&](std::vector<int> tuple, const std::string& entry_name,
                    bool entry_closing, const std::vector<uint64_t>& moved,
                    std::vector<int> positions,
                    const std::vector<std::pair<int, Action>>& actions) -> int {
    std::string key =
        TupleKey(tuple, entry_name, entry_closing, moved, positions);
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    int id = static_cast<int>(product.size());
    ids.emplace(std::move(key), id);
    std::vector<uint64_t> tag(static_cast<size_t>(words), 0);
    std::vector<uint64_t> tag_atts(static_cast<size_t>(words), 0);
    std::vector<uint64_t> on(static_cast<size_t>(words), 0);
    std::vector<uint64_t> off(static_cast<size_t>(words), 0);
    for (const auto& [u, action] : actions) {
      uint64_t bit = uint64_t{1} << (u % 64);
      size_t w = static_cast<size_t>(u / 64);
      switch (action) {
        case Action::kNop:
          break;
        case Action::kCopyTag:
          tag[w] |= bit;
          break;
        case Action::kCopyTagAtts:
          tag_atts[w] |= bit;
          break;
        case Action::kCopyOn:
          on[w] |= bit;
          break;
        case Action::kCopyOff:
          off[w] |= bit;
          break;
      }
    }
    mask_copy_tag.push_back(std::move(tag));
    mask_copy_tag_atts.push_back(std::move(tag_atts));
    mask_copy_on.push_back(std::move(on));
    mask_copy_off.push_back(std::move(off));
    BuildState bs;
    bs.tuple = std::move(tuple);
    bs.entry_name = entry_name;
    bs.entry_closing = entry_closing;
    bs.moved = moved;
    bs.positions = std::move(positions);
    product.push_back(std::move(bs));
    return id;
  };

  {
    std::vector<int> initial_tuple;
    for (int u = 0; u < num_unique; ++u) {
      initial_tuple.push_back(
          canon_state(u, components[static_cast<size_t>(u)].initial));
    }
    intern(std::move(initial_tuple), "", false,
           std::vector<uint64_t>(static_cast<size_t>(words), 0),
           std::vector<int>{0}, {});
  }

  for (size_t cur = 0; cur < product.size(); ++cur) {
    if (product.size() > opts.max_product_states) {
      return Status::Unsupported(
          "multi-query product DFA exceeds " +
          std::to_string(opts.max_product_states) +
          " states; split the mix or raise max_product_states");
    }
    // Group the non-frozen components' transitions by token.
    struct Movers {
      std::vector<std::pair<int, int>> list;  // (component, target state)
    };
    std::map<std::pair<std::string, bool>, Movers> by_token;
    const std::vector<int> tuple = product[cur].tuple;  // copy: intern grows
    const std::vector<int> entry_positions = product[cur].positions;
    for (int u = 0; u < num_unique; ++u) {
      const RuntimeTables& c = components[static_cast<size_t>(u)];
      const DfaState& cs = c.states[static_cast<size_t>(tuple[static_cast<size_t>(u)])];
      if (cs.is_final) continue;
      for (const std::string& kw : cs.keywords) {
        bool closing = kw.size() > 1 && kw[1] == '/';
        std::string name = kw.substr(closing ? 2 : 1);
        int to = c.NextState(tuple[static_cast<size_t>(u)], name, closing);
        if (to < 0) {
          return Status::Internal(
              "component keyword without transition in product build");
        }
        by_token[{std::move(name), closing}].list.emplace_back(u, to);
      }
    }
    // Position tracker: close the entry positions over every token this
    // state does NOT search for -- the engine skips those tags, but a valid
    // document still moves through them. A candidate token with no edge out
    // of the closure cannot be the next match on any valid input, so its
    // transition (and keyword) is pruned. This is what keeps the product
    // linear in practice: the blind component product explores token
    // interleavings (e.g. two still-open siblings) the DTD forbids, and
    // without the tracker the state count is exponential in the mix size.
    std::set<int> visible_ids;
    for (const auto& [token, movers] : by_token) {
      (void)movers;
      const int id = aut.FindToken(token.first, token.second);
      if (id >= 0) visible_ids.insert(id);
    }
    std::vector<int> closure = entry_positions;
    {
      std::set<int> seen(closure.begin(), closure.end());
      for (size_t i = 0; i < closure.size(); ++i) {
        for (const dtd::DtdAutomaton::Transition& tr : aut.Out(closure[i])) {
          if (visible_ids.count(tr.token) != 0) continue;
          if (seen.insert(tr.to).second) closure.push_back(tr.to);
        }
      }
    }
    for (const auto& [token, movers] : by_token) {
      const auto& [name, closing] = token;
      const int token_id = aut.FindToken(name, closing);
      std::set<int> targets;
      if (token_id >= 0) {
        for (int p : closure) {
          for (const dtd::DtdAutomaton::Transition& tr : aut.Out(p)) {
            if (tr.token == token_id) targets.insert(tr.to);
          }
        }
      }
      if (targets.empty()) continue;  // infeasible on any valid document
      std::vector<int> next_tuple = tuple;
      std::vector<uint64_t> moved(static_cast<size_t>(words), 0);
      std::vector<std::pair<int, Action>> actions;
      actions.reserve(movers.list.size());
      for (const auto& [u, to] : movers.list) {
        next_tuple[static_cast<size_t>(u)] = canon_state(u, to);
        moved[static_cast<size_t>(u / 64)] |= uint64_t{1} << (u % 64);
        actions.emplace_back(
            u, components[static_cast<size_t>(u)].states[static_cast<size_t>(to)].action);
      }
      int target = intern(std::move(next_tuple), name, closing, moved,
                          std::vector<int>(targets.begin(), targets.end()),
                          actions);
      if (closing) {
        product[cur].close_to[name] = target;
      } else {
        product[cur].open_to[name] = target;
      }
    }
    // Bachelor close for open-entry states: move EXACTLY the components of
    // this state's moved set through their closing transition. Idle
    // components stay put -- their independent runs never see the synthetic
    // close inside "<t/>" because the keyword is not in their vocabulary.
    if (!product[cur].entry_name.empty() && !product[cur].entry_closing) {
      const std::string entry = product[cur].entry_name;
      const std::vector<uint64_t> moved = product[cur].moved;
      // "<t/>" is "<t></t>" with nothing between, so the close edge is
      // taken from the RAW entry positions -- no skip-closure applies.
      const int close_id = aut.FindToken(entry, /*closing=*/true);
      std::set<int> close_targets;
      if (close_id >= 0) {
        for (int p : entry_positions) {
          for (const dtd::DtdAutomaton::Transition& tr : aut.Out(p)) {
            if (tr.token == close_id) close_targets.insert(tr.to);
          }
        }
      }
      std::vector<int> close_tuple = tuple;
      std::vector<std::pair<int, Action>> close_actions;
      bool ok = !close_targets.empty();  // empty: the DTD forbids "<t/>" here
      for (int u = 0; u < num_unique && ok; ++u) {
        if ((moved[static_cast<size_t>(u / 64)] >> (u % 64) & 1) == 0) continue;
        int to = components[static_cast<size_t>(u)].NextState(
            tuple[static_cast<size_t>(u)], entry, /*closing=*/true);
        if (to < 0) {
          ok = false;  // runtime ParseError, as in the single-query engine
        } else {
          close_tuple[static_cast<size_t>(u)] = canon_state(u, to);
          close_actions.emplace_back(
              u,
              components[static_cast<size_t>(u)].states[static_cast<size_t>(to)].action);
        }
      }
      if (ok) {
        product[cur].bachelor_close = static_cast<int32_t>(intern(
            std::move(close_tuple), entry, /*closing=*/true, moved,
            std::vector<int>(close_targets.begin(), close_targets.end()),
            close_actions));
      }
    }
  }

  // Render the product into RuntimeTables.
  RuntimeTables tables;
  tables.initial = 0;
  tables.states.resize(product.size());
  for (const RuntimeTables& c : components) {
    tables.nfa_states_selected += c.nfa_states_selected;
    tables.stopover_states += c.stopover_states;
    tables.collapsed_pairs += c.collapsed_pairs;
  }

  dtd::MinSerial ms(&aut.dtd());
  for (size_t q = 0; q < product.size(); ++q) {
    const BuildState& bs = product[q];
    DfaState& st = tables.states[q];
    bool all_final = true;
    for (int u = 0; u < num_unique; ++u) {
      const DfaState& cs =
          components[static_cast<size_t>(u)]
              .states[static_cast<size_t>(bs.tuple[static_cast<size_t>(u)])];
      if (!cs.is_final) all_final = false;
    }
    st.is_final = all_final;
    st.entry_name = bs.entry_name;
    st.entry_closing = bs.entry_closing;
    if (!bs.entry_name.empty()) {
      st.emit_tag = (bs.entry_closing ? "</" : "<") + bs.entry_name + ">";
      if (!bs.entry_closing) st.emit_bachelor = "<" + bs.entry_name + "/>";
    }
    for (const auto& [name, to] : bs.open_to) {
      st.keywords.push_back("<" + name);
      (void)to;
    }
    for (const auto& [name, to] : bs.close_to) {
      st.keywords.push_back("</" + name);
      (void)to;
    }
    std::sort(st.keywords.begin(), st.keywords.end());
    for (const std::string& k : st.keywords) {
      st.max_keyword = std::max(st.max_keyword, k.size());
    }
    if (!st.keywords.empty()) {
      SMPX_RETURN_IF_ERROR(BuildMatcher(&st, opts.compile.tables));
      if (st.keywords.size() == 1) {
        ++tables.num_bm_states;
      } else {
        ++tables.num_cw_states;
      }
    } else if (!st.is_final) {
      return Status::Internal("non-final product state " + std::to_string(q) +
                              " has an empty frontier vocabulary");
    }

    // Sound initial jump: recomputed over the UNION of the non-frozen
    // components' subset members and vocabularies. Taking the min of the
    // component jumps would be unsound -- an idle component entered its
    // state at an earlier cursor, so its own jump window is already spent.
    std::set<int> members;
    std::set<int> vocab;
    for (int u = 0; u < num_unique; ++u) {
      const DfaState& cs =
          components[static_cast<size_t>(u)]
              .states[static_cast<size_t>(bs.tuple[static_cast<size_t>(u)])];
      if (cs.is_final) continue;
      members.insert(cs.subset_members.begin(), cs.subset_members.end());
      vocab.insert(cs.vocab_tokens.begin(), cs.vocab_tokens.end());
    }
    st.subset_members.assign(members.begin(), members.end());
    st.vocab_tokens.assign(vocab.begin(), vocab.end());
    if (opts.compile.tables.enable_initial_jumps && !st.keywords.empty()) {
      st.jump = core::ComputeStateJump(aut, &ms, st.subset_members, vocab);
    }
  }

  // Interned dispatch over the product transition names.
  std::vector<std::string> names;
  for (const BuildState& bs : product) {
    for (const auto& [name, to] : bs.open_to) {
      names.push_back(name);
      (void)to;
    }
    for (const auto& [name, to] : bs.close_to) {
      names.push_back(name);
      (void)to;
    }
  }
  tables.interner = core::TagInterner(names);
  const size_t vocab_size = static_cast<size_t>(tables.interner.size());
  for (size_t q = 0; q < product.size(); ++q) {
    DfaState& st = tables.states[q];
    st.open_next_id.assign(vocab_size, -1);
    st.close_next_id.assign(vocab_size, -1);
    for (const auto& [name, to] : product[q].open_to) {
      st.open_next_id[static_cast<size_t>(tables.interner.Find(name))] = to;
    }
    for (const auto& [name, to] : product[q].close_to) {
      st.close_next_id[static_cast<size_t>(tables.interner.Find(name))] = to;
    }
    if (!st.entry_name.empty()) {
      st.entry_tag_id = tables.interner.Find(st.entry_name);
    }
  }
  tables.interned_dispatch = true;
  core::BoundaryAnalysis ba = core::ComputeBoundaryStates(aut, tables);
  tables.boundary_states = std::move(ba.states);
  tables.boundary_copy_depths = std::move(ba.copy_depths);

  // Flatten the per-state masks into the MultiQueryInfo.
  auto info = std::make_shared<MultiQueryInfo>();
  info->num_queries = num_unique;
  info->words = words;
  auto flatten = [&](const std::vector<std::vector<uint64_t>>& per_state,
                     std::vector<uint64_t>* flat) {
    flat->reserve(per_state.size() * static_cast<size_t>(words));
    for (const std::vector<uint64_t>& m : per_state) {
      flat->insert(flat->end(), m.begin(), m.end());
    }
  };
  std::vector<std::vector<uint64_t>> moved_per_state;
  moved_per_state.reserve(product.size());
  for (const BuildState& bs : product) moved_per_state.push_back(bs.moved);
  flatten(moved_per_state, &info->moved);
  flatten(mask_copy_tag, &info->copy_tag);
  flatten(mask_copy_tag_atts, &info->copy_tag_atts);
  flatten(mask_copy_on, &info->copy_on);
  flatten(mask_copy_off, &info->copy_off);
  info->bachelor_close.reserve(product.size());
  for (const BuildState& bs : product) {
    info->bachelor_close.push_back(bs.bachelor_close);
  }
  tables.multi = std::move(info);

  mq.tables_ = std::make_shared<const RuntimeTables>(std::move(tables));
  return mq;
}

void MultiQuery::RouteSinks(const std::vector<OutputSink*>& sinks,
                            std::vector<std::unique_ptr<FanoutSink>>* owned,
                            std::vector<OutputSink*>* unique_sinks) const {
  std::vector<std::vector<OutputSink*>> groups(
      static_cast<size_t>(num_unique()));
  for (size_t i = 0; i < unique_of_.size(); ++i) {
    groups[static_cast<size_t>(unique_of_[i])].push_back(sinks[i]);
  }
  unique_sinks->clear();
  for (std::vector<OutputSink*>& g : groups) {
    if (g.size() == 1) {
      unique_sinks->push_back(g[0]);
    } else {
      owned->push_back(std::make_unique<FanoutSink>(std::move(g)));
      unique_sinks->push_back(owned->back().get());
    }
  }
}

void MultiQuery::ExpandStats(
    const std::vector<core::QueryRunStats>& unique_stats,
    std::vector<core::QueryRunStats>* per_original) const {
  per_original->resize(unique_of_.size());
  for (size_t i = 0; i < unique_of_.size(); ++i) {
    (*per_original)[i] = unique_stats[static_cast<size_t>(unique_of_[i])];
  }
}

Status MultiQuery::RunOnBuffer(std::string_view document,
                               const std::vector<OutputSink*>& sinks,
                               std::vector<core::QueryRunStats>* query_stats,
                               core::RunStats* stats,
                               const core::EngineOptions& opts) const {
  MemoryInputStream in(document);
  return Run(&in, sinks, query_stats, stats, opts, document.size() + 1);
}

Status MultiQuery::Run(InputStream* in, const std::vector<OutputSink*>& sinks,
                       std::vector<core::QueryRunStats>* query_stats,
                       core::RunStats* stats, const core::EngineOptions& opts,
                       size_t chunk_bytes) const {
  if (static_cast<int>(sinks.size()) != num_queries()) {
    return Status::InvalidArgument(
        "multi-query run needs one sink per original query (" +
        std::to_string(num_queries()) + "), got " +
        std::to_string(sinks.size()));
  }
  if (chunk_bytes == 0) chunk_bytes = 1;
  std::vector<std::unique_ptr<FanoutSink>> owned;
  std::vector<OutputSink*> unique_sinks;
  RouteSinks(sinks, &owned, &unique_sinks);

  std::vector<core::QueryRunStats> unique_stats;
  core::PrefilterSession session(*tables_, std::move(unique_sinks),
                                 &unique_stats, stats, opts);
  std::string buf(chunk_bytes, '\0');
  for (;;) {
    SMPX_ASSIGN_OR_RETURN(size_t n, in->Read(buf.data(), buf.size()));
    if (n == 0) break;
    SMPX_RETURN_IF_ERROR(session.Resume(std::string_view(buf.data(), n)));
    // A finished session ignores trailing bytes, exactly like a serial
    // single-query run; draining the stream is pointless.
    if (session.finished()) break;
  }
  SMPX_RETURN_IF_ERROR(session.Finish());
  if (query_stats != nullptr) ExpandStats(unique_stats, query_stats);
  return Status::Ok();
}

Result<core::Prefilter> MultiQuery::CompileFused() const {
  std::vector<paths::ProjectionPath> fused;
  for (const std::vector<paths::ProjectionPath>& q : original_queries_) {
    fused.insert(fused.end(), q.begin(), q.end());
  }
  fused = CanonicalizePathSet(std::move(fused));
  return core::Prefilter::Compile(dtd::Dtd(*dtd_), std::move(fused),
                                  compile_opts_);
}

}  // namespace smpx::query
