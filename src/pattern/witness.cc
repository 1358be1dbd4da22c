#include "pattern/witness.h"

#include <algorithm>

namespace gdx {

size_t Witness::NumEdges() const {
  size_t n = 0;
  for (const Step& s : steps) {
    ++n;
    for (const Witness& b : s.branches_before) n += b.NumEdges();
  }
  for (const Witness& b : trailing_branches) n += b.NumEdges();
  return n;
}

namespace {

/// Concatenation of witnesses: w1's trailing branches attach to the node
/// where w2 starts.
Witness ConcatWitness(const Witness& a, const Witness& b) {
  Witness out = a;
  if (b.steps.empty()) {
    out.trailing_branches.insert(out.trailing_branches.end(),
                                 b.trailing_branches.begin(),
                                 b.trailing_branches.end());
    return out;
  }
  std::vector<Witness> pending = std::move(out.trailing_branches);
  out.trailing_branches.clear();
  for (size_t i = 0; i < b.steps.size(); ++i) {
    Witness::Step step = b.steps[i];
    if (i == 0) {
      step.branches_before.insert(step.branches_before.begin(),
                                  pending.begin(), pending.end());
    }
    out.steps.push_back(std::move(step));
  }
  out.trailing_branches = b.trailing_branches;
  return out;
}

void SortTruncate(std::vector<Witness>& ws, size_t max_count) {
  std::stable_sort(ws.begin(), ws.end(),
                   [](const Witness& a, const Witness& b) {
                     return a.NumEdges() < b.NumEdges();
                   });
  if (ws.size() > max_count) ws.resize(max_count);
}

std::vector<Witness> Enumerate(const NrePtr& nre, size_t max_edges,
                               size_t max_count) {
  std::vector<Witness> out;
  switch (nre->kind()) {
    case Nre::Kind::kEpsilon:
      out.emplace_back();
      break;
    case Nre::Kind::kSymbol: {
      Witness w;
      w.steps.push_back(Witness::Step{false, nre->symbol(), {}});
      out.push_back(std::move(w));
      break;
    }
    case Nre::Kind::kInverse: {
      Witness w;
      w.steps.push_back(Witness::Step{true, nre->symbol(), {}});
      out.push_back(std::move(w));
      break;
    }
    case Nre::Kind::kUnion: {
      out = Enumerate(nre->left(), max_edges, max_count);
      std::vector<Witness> right =
          Enumerate(nre->right(), max_edges, max_count);
      out.insert(out.end(), right.begin(), right.end());
      break;
    }
    case Nre::Kind::kConcat: {
      std::vector<Witness> left = Enumerate(nre->left(), max_edges, max_count);
      std::vector<Witness> right =
          Enumerate(nre->right(), max_edges, max_count);
      for (const Witness& l : left) {
        for (const Witness& r : right) {
          if (l.NumEdges() + r.NumEdges() > max_edges) continue;
          out.push_back(ConcatWitness(l, r));
        }
      }
      break;
    }
    case Nre::Kind::kStar: {
      // {ε} ∪ {w · rest} with w a child witness of cost >= 1.
      std::vector<Witness> child =
          Enumerate(nre->child(), max_edges, max_count);
      out.emplace_back();  // ε
      // Breadth-first growth by repetition count; bounded by max_edges.
      std::vector<Witness> frontier = {Witness{}};
      while (!frontier.empty() && out.size() < max_count * 4) {
        std::vector<Witness> next;
        for (const Witness& prefix : frontier) {
          for (const Witness& c : child) {
            if (c.NumEdges() == 0) continue;  // ε-powers add nothing
            if (prefix.NumEdges() + c.NumEdges() > max_edges) continue;
            Witness grown = ConcatWitness(prefix, c);
            out.push_back(grown);
            next.push_back(std::move(grown));
          }
        }
        frontier = std::move(next);
      }
      break;
    }
    case Nre::Kind::kNest: {
      std::vector<Witness> child =
          Enumerate(nre->child(), max_edges, max_count);
      for (const Witness& c : child) {
        if (c.NumEdges() > max_edges) continue;
        Witness w;
        w.trailing_branches.push_back(c);
        out.push_back(std::move(w));
      }
      break;
    }
  }
  // Drop over-budget witnesses, sort by cost, truncate.
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const Witness& w) {
                             return w.NumEdges() > max_edges;
                           }),
            out.end());
  SortTruncate(out, max_count);
  return out;
}

/// Materializes a branch starting at `node`; all other nodes are fresh.
void MaterializeBranch(Graph& g, Universe& universe, Value node,
                       const Witness& w) {
  Value cur = node;
  for (const Witness::Step& step : w.steps) {
    for (const Witness& b : step.branches_before) {
      MaterializeBranch(g, universe, cur, b);
    }
    Value next = universe.FreshNull();
    if (step.backward) {
      g.AddEdge(next, step.symbol, cur);
    } else {
      g.AddEdge(cur, step.symbol, next);
    }
    cur = next;
  }
  for (const Witness& b : w.trailing_branches) {
    MaterializeBranch(g, universe, cur, b);
  }
}

}  // namespace

std::vector<Witness> EnumerateWitnesses(const NrePtr& nre, size_t max_edges,
                                        size_t max_count) {
  return Enumerate(nre, max_edges, max_count);
}

Status MaterializeWitness(Graph& g, Universe& universe, Value src, Value dst,
                          const Witness& w) {
  if (w.steps.empty()) {
    if (src != dst) {
      return Status::FailedPrecondition(
          "epsilon witness between distinct nodes");
    }
    g.AddNode(src);
    for (const Witness& b : w.trailing_branches) {
      MaterializeBranch(g, universe, src, b);
    }
    return Status::Ok();
  }
  Value cur = src;
  for (size_t i = 0; i < w.steps.size(); ++i) {
    const Witness::Step& step = w.steps[i];
    for (const Witness& b : step.branches_before) {
      MaterializeBranch(g, universe, cur, b);
    }
    Value next = (i + 1 == w.steps.size()) ? dst : universe.FreshNull();
    if (step.backward) {
      g.AddEdge(next, step.symbol, cur);
    } else {
      g.AddEdge(cur, step.symbol, next);
    }
    cur = next;
  }
  for (const Witness& b : w.trailing_branches) {
    MaterializeBranch(g, universe, cur, b);
  }
  return Status::Ok();
}

PatternInstantiator::PatternInstantiator(const GraphPattern* pattern,
                                         const InstantiationOptions& options)
    : pattern_(pattern) {
  witness_lists_.reserve(pattern->edges().size());
  for (const PatternEdge& e : pattern->edges()) {
    witness_lists_.push_back(EnumerateWitnesses(
        e.nre, options.max_edges_per_witness, options.max_witnesses_per_edge));
  }
}

PatternInstantiator::PatternInstantiator(const GraphPattern* pattern,
                                         Universe* universe,
                                         const InstantiationOptions& options)
    : PatternInstantiator(pattern, options) {
  universe_ = universe;
}

size_t PatternInstantiator::NumCombinations() const {
  size_t total = 1;
  for (const auto& list : witness_lists_) {
    if (list.empty()) return 0;
    if (total > SIZE_MAX / list.size()) return SIZE_MAX;
    total *= list.size();
  }
  return total;
}

Result<Graph> PatternInstantiator::Instantiate(
    const std::vector<size_t>& choices, Universe& universe) const {
  if (choices.size() != witness_lists_.size()) {
    return Status::InvalidArgument("choice vector size mismatch");
  }
  Graph g;
  for (Value v : pattern_->nodes()) g.AddNode(v);
  for (size_t i = 0; i < pattern_->edges().size(); ++i) {
    if (choices[i] >= witness_lists_[i].size()) {
      return Status::InvalidArgument("witness choice out of range");
    }
    const PatternEdge& e = pattern_->edges()[i];
    Status st = MaterializeWitness(g, universe, e.src, e.dst,
                                   witness_lists_[i][choices[i]]);
    if (!st.ok()) return st;
  }
  return g;
}

Result<Graph> PatternInstantiator::Instantiate(
    const std::vector<size_t>& choices) const {
  if (universe_ == nullptr) {
    return Status::FailedPrecondition(
        "instantiator has no bound universe; use the two-argument overload");
  }
  return Instantiate(choices, *universe_);
}

Result<Graph> PatternInstantiator::InstantiateCanonical(
    Universe& universe) const {
  Graph g;
  for (Value v : pattern_->nodes()) g.AddNode(v);
  for (size_t i = 0; i < pattern_->edges().size(); ++i) {
    const PatternEdge& e = pattern_->edges()[i];
    bool materialized = false;
    for (const Witness& w : witness_lists_[i]) {
      if (w.IsEpsilonChain() && e.src != e.dst) continue;
      Status st = MaterializeWitness(g, universe, e.src, e.dst, w);
      if (st.ok()) {
        materialized = true;
        break;
      }
    }
    if (!materialized) {
      return Status::FailedPrecondition(
          "no valid witness for a pattern edge (raise witness budgets)");
    }
  }
  return g;
}

Result<Graph> PatternInstantiator::InstantiateCanonical() const {
  if (universe_ == nullptr) {
    return Status::FailedPrecondition(
        "instantiator has no bound universe; use the one-argument overload");
  }
  return InstantiateCanonical(*universe_);
}

}  // namespace gdx
