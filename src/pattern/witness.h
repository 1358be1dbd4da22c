#ifndef GDX_PATTERN_WITNESS_H_
#define GDX_PATTERN_WITNESS_H_

#include <vector>

#include "common/status.h"
#include "common/universe.h"
#include "graph/graph.h"
#include "graph/nre.h"
#include "pattern/pattern.h"

namespace gdx {

/// A *witness* for an NRE r is one concrete way to realize an r-path in a
/// graph: a main chain of labeled steps (forward or backward edges) plus
/// nesting branches hanging off chain positions. Materializing the witness
/// between two nodes adds exactly those edges (inventing fresh nulls for
/// the interior chain nodes and all branch nodes).
struct Witness {
  struct Step {
    bool backward = false;  // true: traverse the edge against its direction
    SymbolId symbol = 0;
    /// Nest branches attached at the node *before* this step.
    std::vector<Witness> branches_before;
  };

  std::vector<Step> steps;
  /// Nest branches attached at the final node of the chain.
  std::vector<Witness> trailing_branches;

  /// Total number of edges materialized (chain steps + branch edges).
  size_t NumEdges() const;

  /// True if the main chain has no steps (an ε-witness); materializing it
  /// between distinct nodes is impossible without merging them.
  bool IsEpsilonChain() const { return steps.empty(); }
};

/// Enumerates witnesses of r in nondecreasing NumEdges() order:
/// at most `max_count` witnesses, each with at most `max_edges` edges.
/// Deterministic. The first non-ε witness realizes the shortest non-empty
/// path shape — the canonical instantiation choice.
std::vector<Witness> EnumerateWitnesses(const NrePtr& nre, size_t max_edges,
                                        size_t max_count);

/// Materializes `w` from `src` to `dst` into `g` (fresh nulls from
/// `universe` for interior/branch nodes). Fails with FAILED_PRECONDITION
/// if the witness is an ε-chain but src != dst.
Status MaterializeWitness(Graph& g, Universe& universe, Value src, Value dst,
                          const Witness& w);

/// Options controlling pattern instantiation and witness enumeration.
struct InstantiationOptions {
  size_t max_edges_per_witness = 8;
  size_t max_witnesses_per_edge = 6;
};

/// Enumerates per-edge witness lists for a pattern and materializes chosen
/// combinations. This is the engine behind (a) canonical solutions from
/// universal representatives (§3.2) and (b) the bounded existence search
/// whose exponential witness-choice space mirrors Theorem 4.1's hardness.
///
/// Re-entrant by construction (ISSUE 2 tentpole): after the constructor the
/// instantiator is immutable — concurrent workers call the const
/// Instantiate overloads against their own Universe copies. The
/// universe-less constructor is the preferred form; the Universe* one is
/// kept for single-threaded call sites and binds the default universe the
/// one-argument Instantiate overloads draw fresh nulls from.
class PatternInstantiator {
 public:
  PatternInstantiator(const GraphPattern* pattern,
                      const InstantiationOptions& options);
  PatternInstantiator(const GraphPattern* pattern, Universe* universe,
                      const InstantiationOptions& options);

  /// Witness choices available for pattern edge i.
  const std::vector<std::vector<Witness>>& witness_lists() const {
    return witness_lists_;
  }

  /// Number of distinct choice combinations (capped at SIZE_MAX).
  size_t NumCombinations() const;

  /// Materializes the graph for one choice vector (choices[i] indexes
  /// witness_lists()[i]) drawing fresh nulls from `universe`. All pattern
  /// nodes are included. Fails if a chosen ε-chain connects two distinct
  /// nodes. Thread-safe for distinct `universe` arguments.
  Result<Graph> Instantiate(const std::vector<size_t>& choices,
                            Universe& universe) const;
  Result<Graph> Instantiate(const std::vector<size_t>& choices) const;

  /// Canonical instantiation: per edge, the first witness that is valid for
  /// its endpoints (skipping ε-chains between distinct nodes).
  Result<Graph> InstantiateCanonical(Universe& universe) const;
  Result<Graph> InstantiateCanonical() const;

 private:
  const GraphPattern* pattern_;
  Universe* universe_ = nullptr;  // default for the one-argument overloads
  std::vector<std::vector<Witness>> witness_lists_;
};

}  // namespace gdx

#endif  // GDX_PATTERN_WITNESS_H_
