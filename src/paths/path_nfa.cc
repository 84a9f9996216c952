#include "paths/path_nfa.h"

namespace smpx::paths {

PathNfa::PathNfa(const ProjectionPath* path) : path_(path) {}

std::vector<bool> PathNfa::InitialStates() const {
  std::vector<bool> states(path_->steps.size() + 1, false);
  states[0] = true;
  return states;
}

void PathNfa::Step(std::string_view label, std::vector<bool>* states) const {
  const std::vector<PathStep>& steps = path_->steps;
  std::vector<bool> next(steps.size() + 1, false);
  for (size_t s = 0; s < steps.size(); ++s) {
    if (!(*states)[s]) continue;
    const PathStep& step = steps[s];
    if (step.axis == PathStep::Axis::kDescendant) {
      // '//name': consume any label and stay (the label is an intermediate
      // ancestor), or consume a matching label and advance.
      next[s] = true;
    }
    if (step.Accepts(label)) next[s + 1] = true;
  }
  // The accept state consumes nothing further: a path selects exactly the
  // node at its end, so a longer branch is not selected by it.
  *states = std::move(next);
}

bool PathMatchesBranch(const ProjectionPath& path,
                       const std::vector<std::string>& branch) {
  PathNfa nfa(&path);
  std::vector<bool> states = nfa.InitialStates();
  for (const std::string& label : branch) nfa.Step(label, &states);
  return nfa.Accepts(states);
}

PathSetEvaluator::PathSetEvaluator(const std::vector<ProjectionPath>* paths)
    : paths_(paths) {
  nfas_.reserve(paths_->size());
  for (const ProjectionPath& p : *paths_) nfas_.emplace_back(&p);
}

PathSetEvaluator::State PathSetEvaluator::Initial() const {
  State state;
  state.sets.reserve(nfas_.size());
  for (const PathNfa& nfa : nfas_) state.sets.push_back(nfa.InitialStates());
  return state;
}

void PathSetEvaluator::Step(std::string_view label, State* state) const {
  for (size_t i = 0; i < nfas_.size(); ++i) {
    nfas_[i].Step(label, &state->sets[i]);
  }
}

std::vector<size_t> PathSetEvaluator::Accepting(const State& state) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < nfas_.size(); ++i) {
    if (nfas_[i].Accepts(state.sets[i])) out.push_back(i);
  }
  return out;
}

bool PathSetEvaluator::AnyAccepting(const State& state) const {
  for (size_t i = 0; i < nfas_.size(); ++i) {
    if (nfas_[i].Accepts(state.sets[i])) return true;
  }
  return false;
}

bool PathSetEvaluator::PathAccepts(size_t index, const State& state) const {
  return nfas_[index].Accepts(state.sets[index]);
}

}  // namespace smpx::paths
