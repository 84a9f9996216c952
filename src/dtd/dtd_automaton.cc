#include "dtd/dtd_automaton.h"

#include <algorithm>
#include <set>

namespace smpx::dtd {

namespace {
const std::string kEmptyLabel;
/// Cap on the unfolding size: a DTD whose instance tree outgrows it fails
/// with kResourceExhausted instead of exhausting memory.
constexpr size_t kMaxInstances = size_t{1} << 20;
}  // namespace

int DtdAutomaton::InternToken(const std::string& name, bool closing) {
  TagToken t{name, closing};
  auto it = token_ids_.find(t);
  if (it != token_ids_.end()) return it->second;
  int id = static_cast<int>(tokens_.size());
  tokens_.push_back(t);
  token_ids_[t] = id;
  return id;
}

int DtdAutomaton::FindToken(std::string_view name, bool closing) const {
  auto it = token_ids_.find(TagToken{std::string(name), closing});
  return it == token_ids_.end() ? -1 : it->second;
}

const std::string& DtdAutomaton::StateLabel(int s) const {
  if (s == 0) return kEmptyLabel;
  return instances_[static_cast<size_t>(InstanceOf(s))].label;
}

int DtdAutomaton::ParentState(int s) const {
  if (s == 0) return 0;
  int parent = instances_[static_cast<size_t>(InstanceOf(s))].parent;
  return parent < 0 ? 0 : OpenState(parent);
}

std::vector<std::string> DtdAutomaton::BranchLabels(int s) const {
  std::vector<std::string> labels;
  if (s == 0) return labels;
  for (int i = InstanceOf(s); i >= 0;
       i = instances_[static_cast<size_t>(i)].parent) {
    labels.push_back(instances_[static_cast<size_t>(i)].label);
  }
  std::reverse(labels.begin(), labels.end());
  return labels;
}

const Glushkov& DtdAutomaton::GlushkovOf(std::string_view label) const {
  static const Glushkov kEmpty;
  auto it = glushkov_.find(label);
  return it == glushkov_.end() ? kEmpty : it->second;
}

Result<DtdAutomaton> DtdAutomaton::Build(const Dtd& dtd,
                                         bool allow_recursion) {
  SMPX_RETURN_IF_ERROR(dtd.Validate());
  std::set<std::string> recursive;
  if (dtd.IsRecursive()) {
    if (!allow_recursion) {
      return Status::Unsupported(
          "the DTD is recursive; the prefilter requires a nonrecursive "
          "schema (Section II) -- enable CompileOptions::allow_recursion "
          "to treat recursive elements as opaque regions");
    }
    for (std::string& name : dtd.RecursiveElements()) {
      recursive.insert(std::move(name));
    }
  }
  for (const std::string& name : dtd.ReachableFromRoot()) {
    const ElementDecl* decl = dtd.Find(name);
    if (decl != nullptr && decl->model.kind == ContentModel::Kind::kAny) {
      return Status::Unsupported("element <" + name +
                                 "> has ANY content, which the static "
                                 "analysis cannot bound");
    }
  }

  DtdAutomaton a;
  a.dtd_ = &dtd;

  // Glushkov automata, one per reachable element.
  for (const std::string& name : dtd.ReachableFromRoot()) {
    const ElementDecl* decl = dtd.Find(name);
    a.glushkov_.emplace(name, Glushkov::Build(decl->model));
  }

  // Unfold the instance tree breadth-first. Recursive elements become
  // opaque leaves of the unfolding: their interiors stay unexpanded.
  a.instances_.push_back(Instance{dtd.root(), -1, -1, 1,
                                  recursive.count(dtd.root()) != 0});
  a.children_.emplace_back();
  for (size_t i = 0; i < a.instances_.size(); ++i) {
    if (a.instances_[i].opaque) continue;  // children_[i] stays empty
    const Glushkov& g = a.glushkov_.find(a.instances_[i].label)->second;
    a.children_[i].assign(g.num_positions(), -1);
    for (size_t p = 0; p < g.num_positions(); ++p) {
      if (a.instances_.size() >= kMaxInstances) {
        return Status::ResourceExhausted(
            "DTD unfolding exceeds " + std::to_string(kMaxInstances) +
            " instances");
      }
      int child = static_cast<int>(a.instances_.size());
      a.instances_.push_back(Instance{g.labels[p], static_cast<int>(i),
                                      static_cast<int>(p),
                                      a.instances_[i].depth + 1,
                                      recursive.count(g.labels[p]) != 0});
      a.children_.emplace_back();
      a.children_[i][p] = child;
    }
  }

  // Transitions.
  a.adj_.assign(static_cast<size_t>(a.num_states()), {});
  // q0 --<root>--> open(root instance).
  a.adj_[0].push_back(Transition{a.InternToken(dtd.root(), false),
                                 OpenState(0)});
  for (size_t i = 0; i < a.instances_.size(); ++i) {
    const Instance& inst = a.instances_[i];
    const Glushkov& g = a.glushkov_.find(inst.label)->second;
    int open = OpenState(static_cast<int>(i));
    int close = CloseState(static_cast<int>(i));

    if (inst.opaque) {
      // Opaque region: the interior is unknown to the automaton; the only
      // modeled transition closes the region (the runtime tag-balances).
      a.adj_[static_cast<size_t>(open)].push_back(
          Transition{a.InternToken(inst.label, true), close});
      continue;
    }

    // open(i): first positions open child instances; nullable content may
    // close immediately.
    for (int p : g.first) {
      int child = a.children_[i][static_cast<size_t>(p)];
      a.adj_[static_cast<size_t>(open)].push_back(Transition{
          a.InternToken(g.labels[static_cast<size_t>(p)], false),
          OpenState(child)});
    }
    if (g.nullable) {
      a.adj_[static_cast<size_t>(open)].push_back(
          Transition{a.InternToken(inst.label, true), close});
    }

    // close(child at position p): follow positions open siblings; last
    // positions may close the parent.
    for (size_t p = 0; p < g.num_positions(); ++p) {
      int child = a.children_[i][p];
      int child_close = CloseState(child);
      for (int f : g.follow[p]) {
        int sibling = a.children_[i][static_cast<size_t>(f)];
        a.adj_[static_cast<size_t>(child_close)].push_back(Transition{
            a.InternToken(g.labels[static_cast<size_t>(f)], false),
            OpenState(sibling)});
      }
      if (g.last[p]) {
        a.adj_[static_cast<size_t>(child_close)].push_back(
            Transition{a.InternToken(inst.label, true), close});
      }
    }
  }
  return a;
}

std::string DtdAutomaton::ToDot() const {
  std::string out = "digraph dtd {\n  rankdir=LR;\n";
  out += "  q0 [shape=circle];\n";
  for (size_t i = 0; i < instances_.size(); ++i) {
    out += "  s" + std::to_string(OpenState(static_cast<int>(i))) +
           " [label=\"q" + std::to_string(i) + ":" + instances_[i].label +
           "\"];\n";
    out += "  s" + std::to_string(CloseState(static_cast<int>(i))) +
           " [label=\"q̂" + std::to_string(i) + ":" + instances_[i].label +
           "\", shape=doublecircle];\n";
  }
  for (int s = 0; s < num_states(); ++s) {
    for (const Transition& t : Out(s)) {
      std::string from = s == 0 ? "q0" : "s" + std::to_string(s);
      out += "  " + from + " -> s" + std::to_string(t.to) + " [label=\"" +
             tokens_[static_cast<size_t>(t.token)].ToString() + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace smpx::dtd
