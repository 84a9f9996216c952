// Incremental evaluation of projection-path sets over document branches
// (root-to-node label sequences). Each path is an NFA whose states are step
// indices; a branch is accepted when the final state is active after the
// leaf label. Supports the prefix-closure P+ and per-prefix acceptance
// queries needed by Definition 3.

#ifndef SMPX_PATHS_PATH_NFA_H_
#define SMPX_PATHS_PATH_NFA_H_

#include <string>
#include <string_view>
#include <vector>

#include "paths/projection_path.h"

namespace smpx::paths {

/// NFA state sets for one path; states are "next step to match" indices,
/// 0..steps.size() (the latter = accepted).
class PathNfa {
 public:
  explicit PathNfa(const ProjectionPath* path);

  /// Active state set after consuming no labels (document node).
  std::vector<bool> InitialStates() const;

  /// Advances `states` by one label, in place.
  void Step(std::string_view label, std::vector<bool>* states) const;

  /// True iff the accept state is active.
  bool Accepts(const std::vector<bool>& states) const {
    return states[path_->steps.size()];
  }

  const ProjectionPath& path() const { return *path_; }

 private:
  const ProjectionPath* path_;
};

/// Convenience: does `path` select the node with this branch?
bool PathMatchesBranch(const ProjectionPath& path,
                       const std::vector<std::string>& branch);

/// A set of paths evaluated in lockstep over a branch, exposing which paths
/// accept after every prefix. This is the workhorse behind relevance
/// analysis (relevance.h), the recursion-soundness check of
/// core::CompileTables and the SAX baseline projector.
class PathSetEvaluator {
 public:
  /// `paths` must outlive the evaluator.
  explicit PathSetEvaluator(const std::vector<ProjectionPath>* paths);

  /// A snapshot of NFA state sets for all paths.
  struct State {
    std::vector<std::vector<bool>> sets;
  };

  State Initial() const;
  void Step(std::string_view label, State* state) const;

  /// Indices of paths accepting in `state`.
  std::vector<size_t> Accepting(const State& state) const;
  bool AnyAccepting(const State& state) const;
  bool PathAccepts(size_t index, const State& state) const;

  const std::vector<ProjectionPath>& paths() const { return *paths_; }

 private:
  const std::vector<ProjectionPath>* paths_;
  std::vector<PathNfa> nfas_;
};

}  // namespace smpx::paths

#endif  // SMPX_PATHS_PATH_NFA_H_
