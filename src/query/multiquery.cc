#include "query/multiquery.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "dtd/dtd_automaton.h"
#include "query/equivalence.h"

namespace smpx::query {
namespace {

using core::Action;
using core::DfaState;
using core::MultiQueryInfo;
using core::RuntimeTables;

/// Cap on product-DFA states; compilation fails with kUnsupported beyond
/// it (a pathological mix, not a document property).
constexpr size_t kMaxProductStates = size_t{1} << 18;

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
/// tables emit identical bytes on every input, so two queries whose
/// components compare equal may share one: the per-query contract is
/// byte-identity with each query's own single-query run, and the engine
/// over these tables -- not the queries' abstract semantics -- defines
/// those bytes. Path sets that select the same nodes can still compile
/// differently (overlapping "//" and exact paths widen to a coarser
/// projection), and those must stay apart. Isomorphic-but-renumbered
/// tables compare unequal, which is merely a missed collapse, never an
/// unsound one.
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

/// A partition of a component DFA's states.
struct Classes {
  std::vector<int> cls;  ///< state -> class
  std::vector<int> rep;  ///< class -> first member state
};

/// Moore partition refinement on a component DFA. States start apart when
/// they differ in finality, nesting flag or keywords -- and, `by_entry`,
/// in entry token or entry action. A class then splits while its members
/// disagree, for some keyword, on the target's class or the target's entry
/// action (keyword lists are aligned within a class by the initial
/// partition). Classes are numbered by first member occurrence, so the
/// result is deterministic and SameComponentBehavior stays meaningful.
Classes RefineStates(const RuntimeTables& t, bool by_entry) {
  const size_t n = t.states.size();
  std::vector<int> cls(n);
  {
    std::map<std::string, int> sig_ids;
    for (size_t q = 0; q < n; ++q) {
      const DfaState& st = t.states[q];
      std::string sig;
      sig.push_back(st.is_final ? 'F' : 'f');
      sig.push_back(st.count_nesting ? 'N' : 'n');
      if (by_entry) {
        sig.push_back(st.entry_closing ? '/' : '<');
        sig.push_back(static_cast<char>('0' + static_cast<int>(st.action)));
        sig += st.entry_name;
      }
      for (const std::string& kw : st.keywords) {
        sig.push_back('\0');
        sig += kw;
      }
      const int id = static_cast<int>(sig_ids.size());
      cls[q] = sig_ids.emplace(std::move(sig), id).first->second;
    }
  }
  // Classes only ever split, and both numberings are first-occurrence
  // order, so the fixpoint test is plain equality.
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
      const int id = static_cast<int>(sig_ids.size());
      next[q] = sig_ids.emplace(std::move(sig), id).first->second;
    }
    if (next == cls) break;
    cls = std::move(next);
  }
  Classes out;
  out.cls = std::move(cls);
  for (size_t q = 0; q < n; ++q) {
    if (static_cast<size_t>(out.cls[q]) == out.rep.size()) {
      out.rep.push_back(static_cast<int>(q));
    }
  }
  return out;
}

/// Unions every class member's analysis sets into its representative: the
/// product recomputes jumps from representatives, where a superset of
/// members and vocabulary is conservative for any member's context.
void MergeIntoRepresentatives(const Classes& c, RuntimeTables* t) {
  auto unite = [](std::vector<int>* into, const std::vector<int>& from) {
    std::vector<int> merged;
    std::set_union(into->begin(), into->end(), from.begin(), from.end(),
                   std::back_inserter(merged));
    *into = std::move(merged);
  };
  for (size_t q = 0; q < t->states.size(); ++q) {
    const size_t r = static_cast<size_t>(c.rep[static_cast<size_t>(c.cls[q])]);
    if (r == q) continue;
    unite(&t->states[r].subset_members, t->states[q].subset_members);
    unite(&t->states[r].vocab_tokens, t->states[q].vocab_tokens);
  }
}

/// Entry-sensitive minimization of a component DFA, in place. BuildTables'
/// subset construction distinguishes states by their automaton member
/// sets, which keeps behaviorally identical states apart -- e.g. "inside
/// the root, child k not yet seen" vs "inside the root, child k closed"
/// compile to distinct states with identical keywords, actions, and
/// transitions. A single-query run never notices, but the product over N
/// components multiplies those private distinctions into 2^N tuples.
/// Merging behavior-equivalent states first keeps the product linear.
void MinimizeComponent(RuntimeTables* t) {
  const Classes c = RefineStates(*t, /*by_entry=*/true);
  if (c.rep.size() == t->states.size()) return;  // already minimal
  MergeIntoRepresentatives(c, t);
  std::vector<DfaState> states;
  states.reserve(c.rep.size());
  for (int r : c.rep) {
    DfaState st = std::move(t->states[static_cast<size_t>(r)]);
    for (std::vector<int32_t>* next : {&st.open_next_id, &st.close_next_id}) {
      for (int32_t& v : *next) {
        if (v >= 0) v = c.cls[static_cast<size_t>(v)];
      }
    }
    states.push_back(std::move(st));
  }
  t->states = std::move(states);
  t->initial = c.cls[static_cast<size_t>(t->initial)];
}

/// One product-DFA state under construction: the tuple of component states
/// plus the DTD-automaton positions the document can occupy on entry to
/// this state (before closure over the tokens this state does not search
/// for). The positions drive reachability pruning: the blind component
/// product explores token interleavings no valid document produces, and
/// without the tracker the state count is exponential in the mix size.
/// The entry token lives on the rendered DfaState and the moved set in
/// MultiQueryInfo::moved; both are part of the identity (TupleKey) -- two
/// predecessors reaching the same tuple through different tokens would
/// otherwise disagree on what to emit.
struct BuildState {
  std::vector<int> tuple;
  std::vector<int> positions;
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

}  // namespace

Result<MultiQuery> MultiQuery::Compile(
    dtd::Dtd dtd, std::vector<std::vector<paths::ProjectionPath>> queries,
    const core::CompileOptions& opts) {
  if (queries.empty()) {
    return Status::InvalidArgument("multi-query mix has no queries");
  }
  if (opts.allow_recursion) {
    return Status::Unsupported(
        "multi-query compilation does not support recursive DTDs (opaque "
        "regions need per-component nesting counters the shared product "
        "cannot carry)");
  }
  if (opts.tables.use_map_dispatch) {
    return Status::InvalidArgument(
        "multi-query tables require interned dispatch "
        "(TableOptions::use_map_dispatch must be false)");
  }

  MultiQuery mq;
  mq.dtd_ = std::make_shared<const dtd::Dtd>(std::move(dtd));

  // One DTD-automaton shared by every component build (the unfolding
  // depends only on the DTD) and by the product's rendering.
  SMPX_ASSIGN_OR_RETURN(dtd::DtdAutomaton aut,
                        dtd::DtdAutomaton::Build(*mq.dtd_));

  // Collapse: syntactic canonical forms first (free), then compiled-table
  // identity against each existing representative (SameComponentBehavior).
  // Each component is built by Prefilter::Compile's own analysis, so it is
  // exactly the query's single-query DFA, minimized.
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
    SMPX_ASSIGN_OR_RETURN(
        RuntimeTables component,
        core::CompileTables(aut, core::WithStarPath(canon), opts.tables));
    MinimizeComponent(&component);
    size_t unique = 0;
    while (unique < components.size() &&
           !SameComponentBehavior(component, components[unique])) {
      ++unique;
    }
    if (unique == components.size()) {
      mq.unique_queries_.push_back(std::move(canon));
      components.push_back(std::move(component));
    }
    by_key.emplace(std::move(key), static_cast<int>(unique));
    mq.unique_of_.push_back(static_cast<int>(unique));
  }

  const int num_unique = static_cast<int>(mq.unique_queries_.size());
  const int words = (num_unique + 63) / 64;

  // Future-behavior quotient per component, for the product tuple. A
  // component state's entry action fires once, on the transition that
  // enters it; afterwards only keywords, finality, and where each keyword
  // leads (and with which entry action) matter. States differing only in
  // how they were entered -- e.g. "inside the root" via the open tag
  // (copy-tag) vs via a matched child's close (copy-off) -- share a class.
  // This is what keeps the product linear: those entry distinctions are
  // private per component, and tuples over raw states would multiply them
  // into 2^N combinations of "which queries matched at least once". Any
  // member of a class yields the same masks and successor classes for
  // every token, so tuples hold class REPRESENTATIVES, each mover's entry
  // action is captured on the transition that moves it, and every class's
  // analysis sets merge into its representative so the product's jump
  // recomputation stays sound for any member's context.
  std::vector<Classes> beh;
  beh.reserve(components.size());
  for (RuntimeTables& c : components) {
    beh.push_back(RefineStates(c, /*by_entry=*/false));
    MergeIntoRepresentatives(beh.back(), &c);
  }
  auto canon_state = [&beh](int u, int s) {
    const Classes& bc = beh[static_cast<size_t>(u)];
    return bc.rep[static_cast<size_t>(bc.cls[static_cast<size_t>(s)])];
  };

  // Product subset construction. A component that has reached a final
  // state is FROZEN: its independent run would have stopped there and
  // ignored the rest of the document, so it contributes no keywords, no
  // transitions, and no further output. Each product state is described
  // in `tables` (entry token, transition maps) as it is discovered, and
  // its per-query masks are appended to `info`.
  RuntimeTables tables;
  auto info = std::make_shared<MultiQueryInfo>();
  info->num_queries = num_unique;
  info->words = words;
  std::map<std::string, int> ids;
  std::vector<BuildState> product;
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
    const size_t base = static_cast<size_t>(id) * static_cast<size_t>(words);
    for (std::vector<uint64_t>* m : {&info->copy_tag, &info->copy_tag_atts,
                                     &info->copy_on, &info->copy_off}) {
      m->resize(base + static_cast<size_t>(words), 0);
    }
    info->moved.insert(info->moved.end(), moved.begin(), moved.end());
    for (const auto& [u, action] : actions) {
      std::vector<uint64_t>* mask = nullptr;
      switch (action) {
        case Action::kNop:
          break;
        case Action::kCopyTag:
          mask = &info->copy_tag;
          break;
        case Action::kCopyTagAtts:
          mask = &info->copy_tag_atts;
          break;
        case Action::kCopyOn:
          mask = &info->copy_on;
          break;
        case Action::kCopyOff:
          mask = &info->copy_off;
          break;
      }
      if (mask != nullptr) {
        (*mask)[base + static_cast<size_t>(u / 64)] |= uint64_t{1} << (u % 64);
      }
    }
    info->bachelor_close.push_back(-1);
    DfaState& st = tables.states.emplace_back();
    st.entry_name = entry_name;
    st.entry_closing = entry_closing;
    product.push_back(BuildState{std::move(tuple), std::move(positions)});
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
    if (product.size() > kMaxProductStates) {
      return Status::Unsupported("multi-query product DFA exceeds " +
                                 std::to_string(kMaxProductStates) +
                                 " states; split the mix");
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
      DfaState& st = tables.states[cur];
      (closing ? st.close_next : st.open_next)[name] = target;
    }
    // Bachelor close for open-entry states: move EXACTLY the components of
    // this state's moved set through their closing transition. Idle
    // components stay put -- their independent runs never see the synthetic
    // close inside "<t/>" because the keyword is not in their vocabulary.
    if (!tables.states[cur].entry_name.empty() &&
        !tables.states[cur].entry_closing) {
      const std::string entry = tables.states[cur].entry_name;
      const uint64_t* moved_at =
          info->MaskAt(info->moved, static_cast<int>(cur));
      const std::vector<uint64_t> moved(moved_at, moved_at + words);
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
        const int target = intern(
            std::move(close_tuple), entry, /*closing=*/true, moved,
            std::vector<int>(close_targets.begin(), close_targets.end()),
            close_actions);
        info->bachelor_close[cur] = static_cast<int32_t>(target);
      }
    }
  }

  // Describe the rest of each product state for the shared renderer: it is
  // final once every component is frozen, and its sound initial jump is
  // computed over the UNION of the non-frozen components' members and
  // vocabularies (see DfaState::subset_members).
  for (size_t q = 0; q < product.size(); ++q) {
    DfaState& st = tables.states[q];
    std::set<int> members;
    std::set<int> vocab;
    st.is_final = true;
    const std::vector<int>& tuple = product[q].tuple;
    for (size_t u = 0; u < components.size(); ++u) {
      const DfaState& cs = components[u].states[static_cast<size_t>(tuple[u])];
      if (cs.is_final) continue;
      st.is_final = false;
      members.insert(cs.subset_members.begin(), cs.subset_members.end());
      vocab.insert(cs.vocab_tokens.begin(), cs.vocab_tokens.end());
    }
    st.subset_members.assign(members.begin(), members.end());
    st.vocab_tokens.assign(vocab.begin(), vocab.end());
  }
  SMPX_RETURN_IF_ERROR(core::FinishTables(aut, opts.tables, &tables));
  for (const RuntimeTables& c : components) {
    tables.nfa_states_selected += c.nfa_states_selected;
    tables.stopover_states += c.stopover_states;
    tables.collapsed_pairs += c.collapsed_pairs;
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
  if (static_cast<int>(sinks.size()) != num_queries()) {
    return Status::InvalidArgument(
        "multi-query run needs one sink per original query (" +
        std::to_string(num_queries()) + "), got " +
        std::to_string(sinks.size()));
  }
  std::vector<std::unique_ptr<FanoutSink>> owned;
  std::vector<OutputSink*> unique_sinks;
  RouteSinks(sinks, &owned, &unique_sinks);

  std::vector<core::QueryRunStats> unique_stats;
  core::PrefilterSession session(*tables_, std::move(unique_sinks),
                                 &unique_stats, stats, opts);
  // The caller's buffer is the whole document: it goes straight to Finish
  // (which ignores trailing bytes past a final state, like a serial run).
  SMPX_RETURN_IF_ERROR(session.Finish(document));
  if (query_stats != nullptr) ExpandStats(unique_stats, query_stats);
  return Status::Ok();
}

Result<core::Prefilter> MultiQuery::CompileFused(
    dtd::Dtd dtd,
    const std::vector<std::vector<paths::ProjectionPath>>& queries,
    const core::CompileOptions& opts) {
  std::vector<paths::ProjectionPath> fused;
  for (const std::vector<paths::ProjectionPath>& q : queries) {
    fused.insert(fused.end(), q.begin(), q.end());
  }
  return core::Prefilter::Compile(std::move(dtd),
                                  CanonicalizePathSet(std::move(fused)), opts);
}

}  // namespace smpx::query
