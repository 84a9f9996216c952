#include "core/tables.h"

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/hash.h"

#include "dtd/min_serial.h"

namespace smpx::core {
namespace {

using dtd::DtdAutomaton;

constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();

/// Copy-depth saturation cap for the boundary-state analysis: statically
/// unbounded copy recursion (e.g. a recursive //x# target containing
/// itself) stops widening the product here. Performance-only -- a
/// saturated candidate never equals a real exit checkpoint, so the
/// resolver just re-runs those shards.
constexpr int kMaxCopyDepth = 64;

/// Computes J[q] for one DFA state: the minimum, over all documents valid
/// w.r.t. the DTD and all member NFA states, of the number of characters
/// between the cursor (just past the matched tag) and the first possible
/// occurrence of any keyword in V[q]. Multi-source Dijkstra over the full
/// DTD-automaton; skipped elements cost their minimal serialization
/// (bachelor form when nullable), skipped closing tags cost `</t>`.
uint64_t ComputeStateJump(const DtdAutomaton& aut, dtd::MinSerial* ms,
                          const std::vector<int>& members,
                          const std::vector<int>& vocab_tokens) {
  auto in_vocab = [&vocab_tokens](int token) {
    return std::binary_search(vocab_tokens.begin(), vocab_tokens.end(), token);
  };
  std::vector<uint64_t> dist(static_cast<size_t>(aut.num_states()), kInf);
  using Entry = std::pair<uint64_t, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  for (int m : members) {
    dist[static_cast<size_t>(m)] = 0;
    pq.push({0, m});
  }
  uint64_t best = kInf;
  while (!pq.empty()) {
    auto [d, s] = pq.top();
    pq.pop();
    if (d > dist[static_cast<size_t>(s)]) continue;
    if (d >= best) break;  // no shorter candidate can appear
    for (const DtdAutomaton::Transition& t : aut.Out(s)) {
      const dtd::TagToken& tok = aut.token(t.token);
      if (in_vocab(t.token)) {
        // A true keyword occurrence can start here, d characters away.
        best = std::min(best, d);
        continue;
      }
      if (tok.closing) {
        uint64_t nd = d + ms->CloseTag(tok.name);
        if (nd < dist[static_cast<size_t>(t.to)]) {
          dist[static_cast<size_t>(t.to)] = nd;
          pq.push({nd, t.to});
        }
      } else {
        // Opaque regions can contain any reachable tag; if the vocabulary
        // intersects that set, an occurrence could start right here.
        if (DtdAutomaton::IsOpenState(t.to) &&
            aut.instance(DtdAutomaton::InstanceOf(t.to)).opaque) {
          bool vocab_inside = false;
          for (const std::string& name :
               aut.dtd().ReachableFrom(tok.name)) {
            for (bool closing : {false, true}) {
              int vt = aut.FindToken(name, closing);
              if (vt >= 0 && in_vocab(vt)) {
                vocab_inside = true;
                break;
              }
            }
            if (vocab_inside) break;
          }
          if (vocab_inside) {
            best = std::min(best, d);
            continue;
          }
        }
        // Skip just the opening tag and continue inside ...
        uint64_t nd = d + ms->OpenTag(tok.name);
        if (nd < dist[static_cast<size_t>(t.to)]) {
          dist[static_cast<size_t>(t.to)] = nd;
          pq.push({nd, t.to});
        }
        // ... or skip the whole element as a bachelor tag <t/>, which is
        // possible when its content is nullable and contains no keyword
        // occurrence at all (the closing keyword "</t" does not occur in
        // the bachelor form; the opening keyword case was handled above).
        if (aut.GlushkovOf(tok.name).nullable) {
          int close = DtdAutomaton::Dual(t.to);
          uint64_t bd = d + ms->BachelorTag(tok.name);
          if (bd < dist[static_cast<size_t>(close)]) {
            dist[static_cast<size_t>(close)] = bd;
            pq.push({bd, close});
          }
        }
      }
    }
  }
  return best == kInf ? 0 : best;
}

/// Static boundary-state analysis (RuntimeTables::boundary_states): BFS
/// over the product of the DTD-automaton (which generates every token
/// sequence of a DTD-valid document) and the runtime DFA's token semantics.
/// Whenever a product node (s, q) has an outgoing token that opens a
/// top-level instance, the cursor of a real run can rest on that boundary's
/// '<' in DFA state q, so q joins the set. Opaque-region balances are not
/// tracked; a closing entry tag inside a counting state forks into both
/// "still nested" and "region left", which can only over-approximate --
/// containment of the true entry state is what speculation needs.
///
/// Each node additionally carries the number of active copy regions:
/// entering a state replays its entry action on the counter (kCopyOn
/// opens, kCopyOff closes), exactly mirroring the engine's copy_depth, so
/// candidates come out as (state, depth) pairs and a boundary inside a
/// copy region (e.g. a root-copying query) is a first-class speculation
/// target. Depths saturate at kMaxCopyDepth for statically unbounded copy
/// recursion; a saturated candidate simply never matches a real exit
/// checkpoint (the resolver compares depths exactly), so saturation can
/// only cost a re-run, never correctness. The true (state, depth) of a
/// valid document's boundary below the cap is always contained.
///
/// The same walk finds the split keywords (RuntimeTables::split_keywords):
/// every product edge that opens an element below the root records the
/// node's (state, depth) for that element name, and a name qualifies when
/// its pairs are all at depth 0 and of one behavior class. Opaque regions
/// may hold any reachable name in any balance, so a DTD automaton with an
/// opaque instance gets no split keywords at all.
void ComputeBoundaryStates(const DtdAutomaton& aut, RuntimeTables* out) {
  const RuntimeTables& tables = *out;
  const uint64_t nq = tables.states.size();
  if (nq == 0) return;
  std::set<std::pair<int, int>> boundary;  // ordered (state, depth) pairs
  // Per opening token: the states seen on its '<' so far, or `inside_copy`
  // once some opening sits inside a copy region.
  struct OpenSites {
    bool inside_copy = false;
    std::vector<int> states;
  };
  bool track_sites = true;
  for (const DtdAutomaton::Instance& inst : aut.instances()) {
    if (inst.opaque) track_sites = false;
  }
  std::vector<OpenSites> sites(track_sites ? aut.num_tokens() : 0);
  std::unordered_set<uint64_t> seen;
  std::vector<std::array<int, 3>> work;
  auto push = [&seen, &work, nq](int s, int q, int d) {
    uint64_t key = (static_cast<uint64_t>(s) * nq + static_cast<uint64_t>(q)) *
                       (kMaxCopyDepth + 1) +
                   static_cast<uint64_t>(d);
    if (seen.insert(key).second) work.push_back({s, q, d});
  };
  // Copy depth after the engine transitions into DFA state `to` with `d`
  // regions active (the entry action fires exactly once, on that move).
  auto step_depth = [&tables](int to, int d) {
    switch (tables.states[static_cast<size_t>(to)].action) {
      case Action::kCopyOn:
        return std::min(d + 1, kMaxCopyDepth);
      case Action::kCopyOff:
        return d > 0 ? d - 1 : 0;
      default:
        return d;
    }
  };
  push(0, tables.initial, 0);
  while (!work.empty()) {
    auto [s, q, d] = work.back();
    work.pop_back();
    const DfaState& st = tables.states[static_cast<size_t>(q)];
    for (const DtdAutomaton::Transition& t : aut.Out(s)) {
      const dtd::TagToken& tok = aut.token(t.token);
      if (!tok.closing && aut.IsTopLevelOpenState(t.to)) {
        boundary.insert({q, d});
      }
      if (track_sites && !tok.closing &&
          aut.instance(DtdAutomaton::InstanceOf(t.to)).parent >= 0) {
        OpenSites& site = sites[static_cast<size_t>(t.token)];
        if (d != 0) {
          site.inside_copy = true;
        } else if (std::find(site.states.begin(), site.states.end(), q) ==
                   site.states.end()) {
          site.states.push_back(q);
        }
      }
      if (st.count_nesting && tok.name == st.entry_name) {
        // The engine balances the region's own tag: openings always stay
        // inside; a closing leaves only when the balance hits zero.
        push(t.to, q, d);
        if (tok.closing) {
          int next = tables.NextState(q, tok.name, /*closing=*/true);
          if (next >= 0) push(t.to, next, step_depth(next, d));
        }
        continue;
      }
      int next = tables.NextState(q, tok.name, tok.closing);
      if (next >= 0) {
        push(t.to, next, step_depth(next, d));
      } else {
        push(t.to, q, d);
      }
    }
  }
  out->boundary_states.reserve(boundary.size());
  out->boundary_copy_depths.reserve(boundary.size());
  for (const auto& [q, d] : boundary) {
    out->boundary_states.push_back(q);
    out->boundary_copy_depths.push_back(d);
  }
  std::vector<std::pair<std::string, std::vector<int>>> split;
  for (size_t token = 0; token < sites.size(); ++token) {
    OpenSites& site = sites[token];
    if (site.inside_copy || site.states.empty()) continue;
    bool one_class = true;
    for (int q : site.states) {
      one_class = one_class && SameRuntimeBehavior(tables, site.states[0], q);
    }
    if (!one_class) continue;
    std::sort(site.states.begin(), site.states.end());
    split.emplace_back("<" + aut.token(static_cast<int>(token)).name,
                       std::move(site.states));
  }
  std::sort(split.begin(), split.end());
  std::vector<std::string> keywords;
  std::vector<std::vector<int>> members;
  for (auto& [keyword, states] : split) {
    keywords.push_back(std::move(keyword));
    members.push_back(std::move(states));
  }
  out->split_keywords = SplitKeywords(std::move(keywords), std::move(members));
}

}  // namespace

bool SameRuntimeBehavior(const RuntimeTables& t, int a, int b) {
  const DfaState& A = t.states[static_cast<size_t>(a)];
  const DfaState& B = t.states[static_cast<size_t>(b)];
  return A.keywords == B.keywords && A.is_final == B.is_final &&
         A.jump == B.jump && A.count_nesting == B.count_nesting &&
         // The entry tag matters only while tag-balancing an opaque region.
         (!A.count_nesting || A.entry_name == B.entry_name) &&
         A.open_next_id == B.open_next_id &&
         A.close_next_id == B.close_next_id && A.open_next == B.open_next &&
         A.close_next == B.close_next;
}

SplitKeywords::SplitKeywords(std::vector<std::string> keywords,
                             std::vector<std::vector<int>> states)
    : keywords_(std::move(keywords)), states_(std::move(states)) {}

int SplitKeywords::Find(std::string_view name) const {
  // Sorted "<name" strings order like their names.
  auto it = std::lower_bound(
      keywords_.begin(), keywords_.end(), name,
      [](const std::string& kw, std::string_view n) {
        return std::string_view(kw).substr(1) < n;
      });
  return it != keywords_.end() && std::string_view(*it).substr(1) == name
             ? static_cast<int>(it - keywords_.begin())
             : -1;
}

const strmatch::Matcher* SplitKeywords::matcher() const {
  if (keywords_.empty() || lazy_ == nullptr) return nullptr;
  std::call_once(lazy_->once, [this] {
    lazy_->matcher = strmatch::MakeMatcher(keywords_);
  });
  return lazy_->matcher.get();
}

TagInterner::TagInterner(const std::vector<std::string>& names) {
  for (const std::string& n : names) {
    if (Find(n) >= 0) continue;
    names_.push_back(n);
    // Rebuild at load factor > 1/2 (also covers the initial empty table).
    if (slots_.empty() || names_.size() * 2 > slots_.size()) {
      size_t cap = 8;
      while (cap < names_.size() * 4) cap *= 2;
      slots_.assign(cap, -1);
      mask_ = cap - 1;
      for (size_t id = 0; id < names_.size(); ++id) {
        size_t h = Hash(names_[id]) & mask_;
        while (slots_[h] >= 0) h = (h + 1) & mask_;
        slots_[h] = static_cast<int32_t>(id);
      }
    } else {
      size_t h = Hash(names_.back()) & mask_;
      while (slots_[h] >= 0) h = (h + 1) & mask_;
      slots_[h] = static_cast<int32_t>(names_.size() - 1);
    }
  }
}

Result<RuntimeTables> BuildTables(const dtd::DtdAutomaton& aut,
                                  const Selection& sel,
                                  const SubgraphAutomaton& sub,
                                  const TableOptions& opts) {
  RuntimeTables tables;
  tables.stopover_states = sel.stopover_states;
  tables.collapsed_pairs = sel.collapsed_pairs;
  for (bool b : sel.in_s) {
    if (b) ++tables.nfa_states_selected;
  }

  // Subset construction over D|S. Subsets are sorted state-id vectors.
  std::map<std::vector<int>, int> subset_ids;
  std::vector<std::vector<int>> subsets;
  auto intern = [&subset_ids, &subsets, &tables](std::vector<int> subset) {
    std::sort(subset.begin(), subset.end());
    subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
    auto it = subset_ids.find(subset);
    if (it != subset_ids.end()) return it->second;
    int id = static_cast<int>(subsets.size());
    subset_ids[subset] = id;
    subsets.push_back(std::move(subset));
    tables.states.emplace_back();
    return id;
  };

  tables.initial = intern({0});

  // BFS over subsets, building transitions per token.
  for (size_t cur = 0; cur < subsets.size(); ++cur) {
    std::map<int, std::vector<int>> by_token;  // token -> successor members
    bool is_final = false;
    for (int s : subsets[cur]) {
      if (sub.is_final[static_cast<size_t>(s)]) is_final = true;
      for (const SubgraphAutomaton::Edge& e :
           sub.edges[static_cast<size_t>(s)]) {
        by_token[e.token].push_back(e.to);
      }
    }
    tables.states[cur].is_final = is_final;
    for (auto& [token, members] : by_token) {
      const int to = intern(std::move(members));
      const dtd::TagToken& tok = aut.token(token);
      DfaState& from = tables.states[cur];
      (tok.closing ? from.close_next : from.open_next)[tok.name] = to;
      // Record the entry token on the target (unique by homogeneity).
      DfaState& target = tables.states[static_cast<size_t>(to)];
      if (target.entry_name.empty()) {
        target.entry_name = tok.name;
        target.entry_closing = tok.closing;
      }
    }
  }

  // Actions (join over members), nesting flags and the jump inputs: the
  // members themselves and one token per outgoing transition.
  for (size_t q = 0; q < subsets.size(); ++q) {
    DfaState& state = tables.states[q];
    for (int s : subsets[q]) {
      state.action =
          JoinActions(state.action, sel.action[static_cast<size_t>(s)]);
      if (DtdAutomaton::IsOpenState(s) &&
          aut.instance(DtdAutomaton::InstanceOf(s)).opaque) {
        state.count_nesting = true;
      }
    }
    for (const auto& [name, to] : state.open_next) {
      state.vocab_tokens.push_back(aut.FindToken(name, false));
      (void)to;
    }
    for (const auto& [name, to] : state.close_next) {
      state.vocab_tokens.push_back(aut.FindToken(name, true));
      (void)to;
    }
    std::sort(state.vocab_tokens.begin(), state.vocab_tokens.end());
    state.subset_members = std::move(subsets[q]);
  }

  SMPX_RETURN_IF_ERROR(FinishTables(aut, opts, &tables));
  return tables;
}

Status FinishTables(const dtd::DtdAutomaton& aut, const TableOptions& opts,
                    RuntimeTables* tables) {
  dtd::MinSerial ms(&aut.dtd());
  for (size_t q = 0; q < tables->states.size(); ++q) {
    DfaState& state = tables->states[q];
    // Emission strings, so copy-tag actions are allocation-free.
    const std::string& entry = state.entry_name;
    if (!entry.empty()) {
      state.emit_tag = (state.entry_closing ? "</" : "<") + entry + ">";
      if (!state.entry_closing) state.emit_bachelor = "<" + entry + "/>";
    }

    // Vocabulary: one keyword per outgoing token.
    for (const auto& [name, to] : state.open_next) {
      state.keywords.push_back("<" + name);
      (void)to;
    }
    for (const auto& [name, to] : state.close_next) {
      state.keywords.push_back("</" + name);
      (void)to;
    }
    if (state.count_nesting) {
      // Inside an opaque region we must also see nested opening tags of the
      // same name to keep the balance (no transition is attached; the
      // engine counts them).
      state.keywords.push_back("<" + state.entry_name);
    }
    std::sort(state.keywords.begin(), state.keywords.end());
    state.keywords.erase(
        std::unique(state.keywords.begin(), state.keywords.end()),
        state.keywords.end());
    for (const std::string& k : state.keywords) {
      state.max_keyword = std::max(state.max_keyword, k.size());
    }

    if (!state.keywords.empty()) {
      state.matcher =
          strmatch::MakeMatcher(state.keywords, opts.algorithm);
      if (state.matcher == nullptr) {
        // The requested algorithm cannot handle this pattern count
        // (e.g. plain Boyer-Moore on a multi-keyword vocabulary).
        state.matcher = strmatch::MakeMatcher(state.keywords,
                                              strmatch::Algorithm::kAuto);
      }
      if (state.matcher == nullptr) {
        return Status::Internal("failed to build matcher for state " +
                                std::to_string(q));
      }
      state.matcher->set_skip_loops(!opts.disable_matcher_skip_loops);
      if (state.keywords.size() == 1) {
        ++tables->num_bm_states;
      } else {
        ++tables->num_cw_states;
      }
    } else if (!state.is_final) {
      return Status::Internal(
          "non-final runtime state " + std::to_string(q) +
          " has an empty frontier vocabulary");
    }

    if (opts.enable_initial_jumps && !state.keywords.empty()) {
      state.jump =
          ComputeStateJump(aut, &ms, state.subset_members, state.vocab_tokens);
    }
  }

  if (!opts.use_map_dispatch) {
    // Interned dispatch (default): collapse every transition tag name into
    // a dense id and ship flat arrays (-1 = no transition), so the engine
    // resolves a matched tag with one hash + one array load. The tree maps
    // are emptied -- they would be dead weight on this path.
    std::vector<std::string> names;
    for (const DfaState& state : tables->states) {
      for (const auto& [name, to] : state.open_next) {
        names.push_back(name);
        (void)to;
      }
      for (const auto& [name, to] : state.close_next) {
        names.push_back(name);
        (void)to;
      }
    }
    tables->interner = TagInterner(names);
    const size_t vocab = static_cast<size_t>(tables->interner.size());
    for (DfaState& state : tables->states) {
      state.open_next_id.assign(vocab, -1);
      state.close_next_id.assign(vocab, -1);
      for (const auto& [name, to] : state.open_next) {
        state.open_next_id[static_cast<size_t>(
            tables->interner.Find(name))] = to;
      }
      for (const auto& [name, to] : state.close_next) {
        state.close_next_id[static_cast<size_t>(
            tables->interner.Find(name))] = to;
      }
      if (!state.entry_name.empty()) {
        state.entry_tag_id = tables->interner.Find(state.entry_name);
      }
      state.open_next.clear();
      state.close_next.clear();
    }
    tables->interned_dispatch = true;
  }
  ComputeBoundaryStates(aut, tables);
  return Status::Ok();
}

int RuntimeTables::NextState(int from, std::string_view name,
                             bool closing) const {
  const DfaState& st = states[static_cast<size_t>(from)];
  if (interned_dispatch) {
    int32_t id = interner.Find(name);
    if (id < 0) return -1;
    const std::vector<int32_t>& next =
        closing ? st.close_next_id : st.open_next_id;
    return next[static_cast<size_t>(id)];
  }
  const auto& next = closing ? st.close_next : st.open_next;
  auto it = next.find(name);
  return it == next.end() ? -1 : it->second;
}

uint64_t RuntimeTables::Fingerprint() const {
  // Canonical serialization of everything the engine's behavior depends
  // on. Transitions are enumerated through the frontier vocabulary (every
  // keyword is "<name" or "</name"), so the result is identical under map
  // and interned dispatch.
  std::string canon;
  canon.reserve(64 * states.size() + 64);
  auto put_u64 = [&canon](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      canon.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  auto put_str = [&](std::string_view s) {
    put_u64(s.size());
    canon.append(s);
  };
  canon.append("smpx-tables-fp-v1");
  put_u64(states.size());
  put_u64(static_cast<uint64_t>(initial));
  for (size_t q = 0; q < states.size(); ++q) {
    const DfaState& s = states[q];
    canon.push_back(static_cast<char>((s.is_final ? 1 : 0) |
                                      (s.count_nesting ? 2 : 0) |
                                      (s.entry_closing ? 4 : 0)));
    put_u64(s.jump);
    put_u64(static_cast<uint64_t>(s.action));
    put_str(s.entry_name);
    put_u64(s.keywords.size());
    for (const std::string& kw : s.keywords) {
      put_str(kw);
      bool closing = kw.size() > 1 && kw[1] == '/';
      std::string_view name =
          std::string_view(kw).substr(closing ? 2 : 1);
      put_u64(static_cast<uint64_t>(
          NextState(static_cast<int>(q), name, closing) + 1));
    }
  }
  put_u64(boundary_states.size());
  for (int b : boundary_states) put_u64(static_cast<uint64_t>(b));
  for (int d : boundary_copy_depths) put_u64(static_cast<uint64_t>(d));
  if (multi != nullptr) {
    // Multi-query product tables: per-query semantics live in the masks,
    // so checkpoints against a product must never validate against a
    // single-query build (or a different mix) and vice versa.
    canon.append("multi");
    put_u64(static_cast<uint64_t>(multi->num_queries));
    put_u64(static_cast<uint64_t>(multi->words));
    for (const std::vector<uint64_t>* m :
         {&multi->moved, &multi->copy_tag, &multi->copy_tag_atts,
          &multi->copy_on, &multi->copy_off}) {
      put_u64(m->size());
      for (uint64_t w : *m) put_u64(w);
    }
    put_u64(multi->bachelor_close.size());
    for (int32_t b : multi->bachelor_close) {
      put_u64(static_cast<uint64_t>(static_cast<int64_t>(b)));
    }
  }
  return Hash64(canon);
}

std::string RuntimeTables::DebugString() const {
  // Transition names in sorted order, independent of the dispatch mode
  // (the interner stores them in insertion order).
  std::vector<std::string> names = interner.names();
  std::sort(names.begin(), names.end());
  std::string out;
  for (size_t q = 0; q < states.size(); ++q) {
    const DfaState& s = states[q];
    out += "q" + std::to_string(q) + (s.is_final ? " [final]" : "") +
           " action=" + std::string(ActionName(s.action)) +
           " J=" + std::to_string(s.jump) + " V={";
    for (size_t i = 0; i < s.keywords.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + s.keywords[i] + "\"";
    }
    out += "}\n";
    if (interned_dispatch) {
      for (const std::string& name : names) {
        int to = NextState(static_cast<int>(q), name, /*closing=*/false);
        if (to >= 0) {
          out += "  <" + name + "> -> q" + std::to_string(to) + "\n";
        }
      }
      for (const std::string& name : names) {
        int to = NextState(static_cast<int>(q), name, /*closing=*/true);
        if (to >= 0) {
          out += "  </" + name + "> -> q" + std::to_string(to) + "\n";
        }
      }
    } else {
      for (const auto& [name, to] : s.open_next) {
        out += "  <" + name + "> -> q" + std::to_string(to) + "\n";
      }
      for (const auto& [name, to] : s.close_next) {
        out += "  </" + name + "> -> q" + std::to_string(to) + "\n";
      }
    }
  }
  return out;
}

}  // namespace smpx::core
