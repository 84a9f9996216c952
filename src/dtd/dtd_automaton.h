// The document-level DTD-automaton (paper Section IV, Fig. 5): a
// homogeneous finite automaton over open/close tag tokens that accepts
// exactly the token sequences of documents valid w.r.t. a nonrecursive DTD.
//
// Construction: every element's content model becomes a Glushkov position
// automaton, and positions are unfolded into an *instance tree* -- one
// instance per occurrence path from the root (finite because the DTD is
// nonrecursive). Every instance contributes dual states q (entered on the
// opening tag) and q-hat (entered on the closing tag); homogeneity holds by
// construction. The instance tree also yields parent states and document
// branches (Examples 8/9).

#ifndef SMPX_DTD_DTD_AUTOMATON_H_
#define SMPX_DTD_DTD_AUTOMATON_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "dtd/dtd.h"
#include "dtd/glushkov.h"

namespace smpx::dtd {

/// An opening or closing tag token, e.g. {name="a", closing=false} = <a>.
struct TagToken {
  std::string name;
  bool closing = false;

  bool operator<(const TagToken& o) const {
    return closing != o.closing ? closing < o.closing : name < o.name;
  }
  bool operator==(const TagToken& o) const {
    return closing == o.closing && name == o.name;
  }
  bool operator!=(const TagToken& o) const { return !(*this == o); }
  /// "<a>" or "</a>".
  std::string ToString() const {
    return (closing ? "</" : "<") + name + ">";
  }
};

class DtdAutomaton {
 public:
  /// One node of the instance tree.
  struct Instance {
    std::string label;        ///< element name
    int parent = -1;          ///< parent instance id; -1 for the root
    int position = -1;        ///< Glushkov position in the parent's model
    int depth = 1;            ///< root instance has depth 1
    /// Recursive element treated as an *opaque region*: its interior is not
    /// unfolded; the runtime tunnels over it by balancing <t>/</t> tags.
    bool opaque = false;
  };

  /// One transition: reading `token` moves to state `to`.
  struct Transition {
    int token = 0;  ///< id into tokens()
    int to = 0;
  };

  /// Builds the automaton; fails with kUnsupported for recursive DTDs
  /// (unless `allow_recursion`, which turns recursive elements into opaque
  /// instances) or reachable ANY content, with kInvalidArgument for
  /// inconsistent DTDs, and with kResourceExhausted if the unfolding
  /// exceeds 2^20 instances.
  static Result<DtdAutomaton> Build(const Dtd& dtd,
                                    bool allow_recursion = false);

  // --- State numbering ----------------------------------------------------
  // State 0 is the initial state q0. Instance i has open state 2i+1 and
  // close state 2i+2.
  int num_states() const {
    return static_cast<int>(1 + 2 * instances_.size());
  }
  static bool IsOpenState(int s) { return s > 0 && (s & 1) != 0; }
  static bool IsCloseState(int s) { return s > 0 && (s & 1) == 0; }
  static int InstanceOf(int s) { return (s - 1) / 2; }
  static int OpenState(int inst) { return 2 * inst + 1; }
  static int CloseState(int inst) { return 2 * inst + 2; }
  /// q for q-hat and vice versa; q0 maps to itself.
  static int Dual(int s) {
    if (s == 0) return 0;
    return IsOpenState(s) ? s + 1 : s - 1;
  }

  /// The single final state: close(root instance).
  int final_state() const { return CloseState(0); }

  /// True when `s` is the open state of a *top-level* instance (a direct
  /// child of the document root): such states are entered exactly at the
  /// top-level element boundaries the parallel sharder splits documents at.
  /// Derived from the instance tree, i.e. ultimately from the root's
  /// content model.
  bool IsTopLevelOpenState(int s) const {
    return IsOpenState(s) && instance(InstanceOf(s)).parent == 0;
  }

  // --- Structure ----------------------------------------------------------
  const std::vector<Instance>& instances() const { return instances_; }
  const Instance& instance(int i) const {
    return instances_[static_cast<size_t>(i)];
  }
  /// Label of the element a state belongs to ("" for q0).
  const std::string& StateLabel(int s) const;
  /// Open state of the parent instance; q0 for the root instance's states.
  int ParentState(int s) const;
  /// Labels of the document branch root..self ({} for q0) -- Example 9.
  std::vector<std::string> BranchLabels(int s) const;
  /// Child instance ids of an instance, indexed by Glushkov position.
  const std::vector<int>& ChildrenOf(int inst) const {
    return children_[static_cast<size_t>(inst)];
  }
  /// The Glushkov automaton of an element's content model.
  const Glushkov& GlushkovOf(std::string_view label) const;
  const Dtd& dtd() const { return *dtd_; }

  // --- Transitions ----------------------------------------------------------
  const std::vector<Transition>& Out(int s) const {
    return adj_[static_cast<size_t>(s)];
  }
  const TagToken& token(int id) const {
    return tokens_[static_cast<size_t>(id)];
  }
  size_t num_tokens() const { return tokens_.size(); }
  /// Interned token id, or -1 if this token never occurs.
  int FindToken(std::string_view name, bool closing) const;

  /// Graphviz rendering for debugging and documentation.
  std::string ToDot() const;

 private:
  DtdAutomaton() = default;

  int InternToken(const std::string& name, bool closing);

  const Dtd* dtd_ = nullptr;  // not owned; must outlive the automaton
  std::vector<Instance> instances_;
  std::vector<std::vector<int>> children_;    // per instance, per position
  std::vector<std::vector<Transition>> adj_;  // per state
  std::vector<TagToken> tokens_;
  std::map<TagToken, int> token_ids_;
  std::map<std::string, Glushkov, std::less<>> glushkov_;
};

}  // namespace smpx::dtd

#endif  // SMPX_DTD_DTD_AUTOMATON_H_
