#include "solver/existence.h"

#include "chase/egd_chase.h"
#include "chase/reliance.h"
#include "chase/sameas_completion.h"
#include "chase/target_tgd_chase.h"
#include "exchange/solution_check.h"
#include "graph/isomorphism.h"
#include "sat/dpll.h"
#include "solver/flat_encoding.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_set>

namespace gdx {
namespace {

/// The chase stage's output as the decision stages consume it.
struct StagePattern {
  GraphPattern pattern;
  bool failed = false;
  std::string failure_reason;
  /// The chase was aborted by a cancellation token (ISSUE 8): the pattern
  /// is truncated and the decision stages must report kUnknown.
  bool canceled = false;
};

/// One entry point for "give me the chased pattern": replay the compiled
/// artifact when the caller brought one (ISSUE 5 — the chase then runs
/// once per (setting, instance) content instead of once per stage), or
/// compile a solve-local artifact and consume it the same way. Routing
/// both paths through ChaseCompiler makes the cached-vs-fresh byte
/// identity hold by construction — there is exactly one chase stage
/// sequence to drift from.
StagePattern BuildStagePattern(const ChasedScenario* chased,
                               const Setting& setting,
                               const Instance& source, Universe& universe,
                               const NreEvaluator& eval,
                               const CancellationToken* cancel) {
  StagePattern out;
  ChasedScenarioPtr local;
  if (chased == nullptr) {
    // Compile already appends the chase's fresh nulls to `universe`, so
    // the artifact is consumed at its own base: no replay shift needed.
    local = ChaseCompiler::Compile(setting, source, universe, eval, cancel);
    out.pattern = local->pattern;
    out.failed = local->failed;
    out.failure_reason = local->failure_reason;
    out.canceled = local->canceled;
    return out;
  }
  out.pattern = ReplayChase(*chased, universe);
  out.failed = chased->failed;
  out.failure_reason = chased->failure_reason;
  out.canceled = chased->canceled;
  return out;
}

constexpr char kCancelledNote[] = "search cancelled";

size_t SaturatingMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  return a > SIZE_MAX / b ? SIZE_MAX : a * b;
}

/// True if materializing `w` adds an edge labelled by one of `symbols`
/// (sorted), on its main chain or in a nesting branch.
bool SpellsAny(const Witness& w, const std::vector<SymbolId>& symbols) {
  auto any_branch = [&](const std::vector<Witness>& branches) {
    for (const Witness& b : branches) {
      if (SpellsAny(b, symbols)) return true;
    }
    return false;
  };
  for (const Witness::Step& step : w.steps) {
    if (std::binary_search(symbols.begin(), symbols.end(), step.symbol) ||
        any_branch(step.branches_before)) {
      return true;
    }
  }
  return any_branch(w.trailing_branches);
}

/// The witness-choice space the search walks once the singleton nogoods
/// are out: per pattern edge, the kept witness indices in ascending
/// order. A filtered rank decodes over the kept lists' sizes (edge 0 the
/// least significant digit) and maps each digit to its kept index, so
/// filtered ranks enumerate the surviving full ranks in increasing order.
/// The first filtered hit is therefore the unpruned scan's first hit, and
/// a budget of N full ranks is the filtered prefix [0, CountBelow(N)).
class PrunedSpace {
 public:
  PrunedSpace(const PatternInstantiator& instantiator,
              std::vector<std::vector<size_t>> kept)
      : lists_(instantiator.witness_lists()), kept_(std::move(kept)) {
    for (size_t i = 0; i < kept_.size(); ++i) {
      pruned_ = pruned_ || kept_[i].size() != lists_[i].size();
    }
  }

  /// The full choice vector (indices into witness_lists()) of a filtered
  /// rank. Precondition: every kept list is non-empty, and rank is below
  /// the product of their sizes.
  std::vector<size_t> Choices(size_t rank) const {
    std::vector<size_t> choices(kept_.size(), 0);
    for (size_t i = 0; i < kept_.size(); ++i) {
      choices[i] = kept_[i][rank % kept_[i].size()];
      rank /= kept_[i].size();
    }
    return choices;
  }

  /// The full mixed-radix rank of a choice vector. A digit's weight may
  /// exceed SIZE_MAX (the full space then saturates, as NumCombinations
  /// does); only a nonzero digit at such a weight saturates the rank.
  size_t FullRank(const std::vector<size_t>& choices) const {
    size_t rank = 0;
    size_t weight = 1;
    for (size_t i = 0; i < choices.size(); ++i) {
      if (choices[i] != 0) {
        const size_t term = SaturatingMul(choices[i], weight);
        rank = term > SIZE_MAX - rank ? SIZE_MAX : rank + term;
      }
      weight = SaturatingMul(weight, lists_[i].size());
    }
    return rank;
  }

  /// How many surviving full ranks lie below `full_ranks`: the first
  /// filtered rank whose full rank reaches it, found by bisection because
  /// FullRank(Choices(rank)) increases with rank.
  size_t CountBelow(size_t full_ranks) const {
    if (!pruned_) return full_ranks;
    size_t lo = 0;
    size_t hi = 1;  // the filtered space's size, saturating
    for (const std::vector<size_t>& kept : kept_) {
      hi = SaturatingMul(hi, kept.size());
    }
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (FullRank(Choices(mid)) < full_ranks) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  const std::vector<std::vector<Witness>>& lists_;
  std::vector<std::vector<size_t>> kept_;
  bool pruned_ = false;  // some witness was rejected
};

/// Singleton nogoods: per pattern edge, the ascending indices of the
/// witnesses that no test of that witness alone rules out. Runs on the
/// calling thread; draws test nulls from `universe` and rolls them back.
std::vector<std::vector<size_t>> KeptWitnesses(
    const GraphPattern& pattern, const PatternInstantiator& instantiator,
    const std::vector<TargetEgd>& egds, const NreEvaluator& eval,
    const ExistenceOptions& options, Universe& universe) {
  const auto& lists = instantiator.witness_lists();
  const auto& edges = pattern.edges();
  // An ε-chain between distinct nodes cannot be materialized at all.
  std::vector<std::vector<size_t>> kept(lists.size());
  bool empty_list = false;
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t j = 0; j < lists[i].size(); ++j) {
      if (!lists[i][j].IsEpsilonChain() || edges[i].src == edges[i].dst) {
        kept[i].push_back(j);
      }
    }
    empty_list = empty_list || kept[i].empty();
  }
  if (egds.empty() || empty_list) return kept;

  // Egd test: the pattern's nodes, the sole witness of every edge that has
  // one, and the tested witness. Every candidate that uses the witness
  // contains this graph up to a renaming of its fresh nulls, and egd
  // bodies are positive NREs, so their matches survive into the candidate:
  // when the chase fails here, RepairAndVerify's chase fails there too.
  // A witness that spells no egd-body symbol is not tested; skipping a
  // test only prunes less.
  std::vector<SymbolId> egd_symbols;
  for (const TargetEgd& egd : egds) {
    for (const CnreAtom& atom : egd.body.atoms()) {
      CollectNreSymbols(*atom.nre, &egd_symbols);
    }
  }
  std::sort(egd_symbols.begin(), egd_symbols.end());
  egd_symbols.erase(std::unique(egd_symbols.begin(), egd_symbols.end()),
                    egd_symbols.end());
  EgdChaseOptions chase_options;
  chase_options.policy = options.egd_policy;
  chase_options.cancel = options.cancel;

  const size_t mark = universe.NullMark();
  std::optional<Graph> base;  // built for the first tested witness
  std::vector<std::vector<size_t>> tested = kept;
  for (size_t i = 0; i < lists.size(); ++i) {
    if (options.cancel != nullptr && options.cancel->stop_requested()) break;
    if (kept[i].size() < 2) continue;
    std::vector<size_t>& survivors = tested[i];
    survivors.clear();
    for (size_t j : kept[i]) {
      const Witness& w = lists[i][j];
      if (!SpellsAny(w, egd_symbols)) {
        survivors.push_back(j);
        continue;
      }
      if (!base.has_value()) {
        base.emplace();
        for (Value v : pattern.nodes()) base->AddNode(v);
        for (size_t k = 0; k < lists.size(); ++k) {
          if (kept[k].size() != 1) continue;
          (void)MaterializeWitness(*base, universe, edges[k].src,
                                   edges[k].dst, lists[k][kept[k][0]]);
        }
      }
      const size_t base_mark = universe.NullMark();
      Graph test = *base;
      (void)MaterializeWitness(test, universe, edges[i].src, edges[i].dst, w);
      if (!ChaseGraphEgds(test, egds, eval, chase_options).failed) {
        survivors.push_back(j);
      }
      universe.RollbackNulls(base_mark);
    }
  }
  universe.RollbackNulls(mark);
  return tested;
}

}  // namespace

std::optional<Graph> ExistenceSolver::RepairAndVerify(
    Graph candidate, const Setting& setting, const Instance& source,
    Universe& universe) const {
  const CancellationToken* cancel = options_.cancel;
  // Evaluator-internal cancellation (ISSUE 10): the batched multi-source
  // BFS polls this thread-local token per level-synchronous round, so an
  // abort lands inside one long NRE evaluation, not after it.
  ScopedEvalCancellation eval_cancel(cancel);
  // The repair hot path (ISSUE 10 tentpole part 1): component-parallel by
  // default, borrowing the same pool and worker scope as the surrounding
  // witness search — byte-identical output at any worker count.
  EgdChaseOptions egd_options;
  egd_options.policy = options_.egd_policy;
  egd_options.pool = options_.intra_pool;
  egd_options.max_workers = options_.intra_solve_threads;
  egd_options.cancel = cancel;
  egd_options.wrap_worker = options_.worker_scope;
  egd_options.stats = options_.egd_stats;
  if (!setting.egds.empty()) {
    EgdChaseResult egd =
        ChaseGraphEgds(candidate, setting.egds, *eval_, egd_options);
    if (egd.failed) return std::nullopt;
  }
  // A canceled repair leaves the candidate mid-chase: reject it rather
  // than let a partially repaired graph reach the (expensive) final check.
  if (Cancelled()) return std::nullopt;
  if (!setting.target_tgds.empty()) {
    const size_t nodes_before = candidate.num_nodes();
    const size_t edges_before = candidate.num_edges();
    Status st = ChaseTargetTgds(candidate, setting.target_tgds, universe,
                                *eval_, options_.target_tgd_max_rounds,
                                /*stats=*/nullptr, cancel);
    if (!st.ok() || Cancelled()) return std::nullopt;
    // Target tgd chase may have re-broken egds; re-repair once. The chase
    // is purely additive, so an unchanged node/edge count means it fired
    // nothing and the egds still hold — skip the re-chase (ISSUE 3: the
    // common all-satisfied candidate pays one egd pass, not two).
    const bool chase_extended = candidate.num_nodes() != nodes_before ||
                                candidate.num_edges() != edges_before;
    if (chase_extended && !setting.egds.empty()) {
      EgdChaseResult egd =
          ChaseGraphEgds(candidate, setting.egds, *eval_, egd_options);
      if (egd.failed) return std::nullopt;
    }
  }
  if (Cancelled()) return std::nullopt;
  if (!setting.sameas.empty()) {
    Status st = CompleteSameAs(candidate, setting.sameas, *setting.alphabet,
                               *eval_);
    if (!st.ok()) return std::nullopt;
  }
  if (IsSolution(setting, source, candidate, *eval_, universe)) {
    return candidate;
  }
  return std::nullopt;
}

ParallelSearchOptions ExistenceSolver::SearchOptions(
    size_t chunk_size, size_t min_parallel_ranks) const {
  ParallelSearchOptions out;
  out.pool = options_.intra_pool;
  out.max_workers = options_.intra_solve_threads;
  out.chunk_size = chunk_size;
  out.min_parallel_ranks = min_parallel_ranks;
  // Adaptive scheduling (ISSUE 5 satellite): scale workers with the rank
  // space. The SAT cube path overrides this back to 0 — every cube is a
  // whole DPLL call, always worth a worker.
  out.adaptive_ranks_per_worker =
      options_.adaptive_intra ? options_.adaptive_ranks_per_worker : 0;
  out.cancel = options_.cancel;
  out.wrap_worker = options_.worker_scope;
  return out;
}

ExistenceReport ExistenceSolver::DecideChaseRefute(
    const Setting& setting, const Instance& source, Universe& universe,
    const ChasedScenario* chased) const {
  ExistenceReport report;
  StagePattern stage = BuildStagePattern(chased, setting, source, universe,
                                         *eval_, options_.cancel);
  if (stage.canceled || Cancelled()) {
    report.verdict = ExistenceVerdict::kUnknown;
    report.note = kCancelledNote;
    return report;
  }
  if (stage.failed) {
    report.verdict = ExistenceVerdict::kNo;
    report.refuted_by_chase = true;
    report.note = "adapted chase failed: " + stage.failure_reason;
    return report;
  }
  GraphPattern& pattern = stage.pattern;
  PatternInstantiator instantiator(&pattern, options_.instantiation);
  Result<Graph> canonical = instantiator.InstantiateCanonical(universe);
  if (canonical.ok()) {
    report.candidates_tried = 1;
    std::optional<Graph> solution =
        RepairAndVerify(std::move(canonical).value(), setting, source,
                        universe);
    if (solution.has_value()) {
      report.verdict = ExistenceVerdict::kYes;
      report.witness = std::move(solution);
      report.note = "canonical instantiation verified";
      return report;
    }
  }
  if (Cancelled()) {
    report.verdict = ExistenceVerdict::kUnknown;
    report.note = kCancelledNote;
    return report;
  }
  report.verdict = ExistenceVerdict::kUnknown;
  report.note =
      "chase succeeded but canonical instantiation failed verification "
      "(chase success does not imply a solution; paper Example 5.2)";
  return report;
}

ExistenceReport ExistenceSolver::DecideBoundedSearch(
    const Setting& setting, const Instance& source, Universe& universe,
    const ChasedScenario* chased) const {
  ExistenceReport report;
  StagePattern stage = BuildStagePattern(chased, setting, source, universe,
                                         *eval_, options_.cancel);
  if (stage.canceled || Cancelled()) {
    report.verdict = ExistenceVerdict::kUnknown;
    report.note = kCancelledNote;
    return report;
  }
  if (stage.failed) {
    report.verdict = ExistenceVerdict::kNo;
    report.refuted_by_chase = true;
    report.note = "adapted chase failed: " + stage.failure_reason;
    return report;
  }
  GraphPattern& pattern = stage.pattern;
  PatternInstantiator instantiator(&pattern, options_.instantiation);
  const size_t total_combinations = instantiator.NumCombinations();
  if (total_combinations == 0) {
    // No NRE denotes the empty language: an edge without a witness only
    // means the witness budget is too small to realize it.
    report.verdict = ExistenceVerdict::kUnknown;
    report.budget_exhausted = true;
    report.note = "a pattern edge has no witness within budget";
    return report;
  }

  // The odometer, flattened to ranks and fanned over the pool, over the
  // witness choices the singleton nogoods keep. Every worker owns a
  // private universe copy and rolls each candidate's fresh-null draws back
  // to `mark`, so a candidate's nulls depend only on its rank — the
  // winning witness is byte-identical for any worker count, and FindFirst
  // guarantees it is the *minimal*-rank hit, exactly the sequential first
  // hit. The sequential configuration (one worker) skips the copies and
  // works on the shared universe with the same rollback discipline. The
  // budget and candidates_tried count full ranks.
  const size_t num_ranks =
      std::min(total_combinations, options_.max_candidates);
  const PrunedSpace space(
      instantiator, KeptWitnesses(pattern, instantiator, setting.egds,
                                  *eval_, options_, universe));
  const size_t viable_ranks = space.CountBelow(num_ranks);
  ParallelSearch search(
      SearchOptions(options_.parallel_chunk, options_.parallel_min_ranks));
  const size_t workers = search.NumWorkers(viable_ranks);
  const size_t mark = universe.NullMark();
  std::vector<Universe> scratch(workers > 1 ? workers : 0, universe);
  auto worker_universe = [&](size_t worker) -> Universe& {
    return scratch.empty() ? universe : scratch[worker];
  };

  struct BestHit {
    std::mutex mutex;
    size_t rank = ParallelSearch::kNotFound;
    Graph witness;
    std::vector<std::string> nulls;
  };
  BestHit best;
  auto visit = [&](size_t rank, size_t worker) -> bool {
    Universe& u = worker_universe(worker);
    u.RollbackNulls(mark);
    Result<Graph> candidate =
        instantiator.Instantiate(space.Choices(rank), u);
    if (!candidate.ok()) return false;
    std::optional<Graph> solution =
        RepairAndVerify(std::move(candidate).value(), setting, source, u);
    if (!solution.has_value()) return false;
    std::lock_guard<std::mutex> lock(best.mutex);
    if (rank < best.rank) {
      best.rank = rank;
      best.witness = std::move(*solution);
      best.nulls = u.NullLabelsSince(mark);
    }
    return true;
  };
  size_t winner = search.FindFirst(viable_ranks, visit);
  // In the one-worker configuration the shared universe still carries the
  // last tried candidate's nulls; drop them before adopting the winner's.
  universe.RollbackNulls(mark);

  if (Cancelled()) {
    report.verdict = ExistenceVerdict::kUnknown;
    report.note = kCancelledNote;
    return report;
  }
  if (winner != ParallelSearch::kNotFound) {
    // Adopt the winner's fresh nulls into the shared universe: it sits at
    // `mark`, exactly where the winning worker's universe sat when the
    // candidate was instantiated, so the ids line up.
    universe.AppendNullLabels(best.nulls);
    const size_t full_rank = space.FullRank(space.Choices(winner));
    report.candidates_tried = full_rank + 1;
    report.candidates_pruned = full_rank - winner;
    report.verdict = ExistenceVerdict::kYes;
    report.witness = std::move(best.witness);
    report.note = "bounded search found a verified solution";
    return report;
  }
  report.candidates_tried = num_ranks;
  report.candidates_pruned = num_ranks - viable_ranks;
  if (total_combinations > num_ranks) {
    report.budget_exhausted = true;
    report.verdict = ExistenceVerdict::kUnknown;
    report.note = "candidate budget exhausted";
    return report;
  }
  report.verdict = ExistenceVerdict::kNo;
  report.note =
      "bounded search exhausted all witness combinations without a "
      "solution (complete for witness-covered fragments, e.g. Thm 4.1's)";
  return report;
}

ExistenceReport ExistenceSolver::DecideSatBacked(
    const Setting& setting, const Instance& source, Universe& universe,
    const ChasedScenario* chased, bool* searched) const {
  ExistenceReport report;
  Result<FlatEncoding> encoding = EncodeFlatSetting(setting, source);
  if (!encoding.ok()) {
    if (searched != nullptr) *searched = true;
    report = DecideBoundedSearch(setting, source, universe, chased);
    if (report.note != kCancelledNote) {
      report.note = "not flat (" + encoding.status().message() +
                    "); fell back to bounded search. " + report.note;
    }
    return report;
  }
  const CnfFormula& cnf = encoding->cnf;
  DpllConfig config;
  config.max_decisions = options_.sat_max_decisions;
  config.cancel =
      options_.cancel != nullptr ? options_.cancel->flag() : nullptr;

  // Cube-and-conquer (ISSUE 2 tentpole): pin the first k variables to all
  // 2^k polarities and hand each cube to its own per-worker DpllSolver.
  // The deck depends only on the formula (never the worker count), and the
  // accepted model is the minimal-rank SAT cube's — deterministic. Small
  // formulas stay on one plain call: carving them up buys nothing. A
  // decision budget also forces the plain call: per-cube budgets would
  // multiply the caller's intended latency bound by the deck size.
  const size_t k = options_.sat_cube_vars;
  const bool use_cubes =
      k > 0 && k < 8 * sizeof(size_t) && config.max_decisions == 0 &&
      cnf.num_vars() >= static_cast<int>(2 * k);
  SatResult sat;
  if (!use_cubes) {
    sat = DpllSolver(config).Solve(cnf);
    report.candidates_tried = sat.stats.decisions + 1;
  } else {
    const size_t num_cubes = size_t{1} << k;
    std::vector<size_t> decisions(num_cubes, 0);
    std::vector<uint8_t> exhausted(num_cubes, 0);
    struct SatWin {
      std::mutex mutex;
      size_t rank = ParallelSearch::kNotFound;
      std::vector<bool> model;
    };
    SatWin win;
    // Every cube is pricey, so chunk = 1, fan out from 2 cubes up, and no
    // adaptive ranks-per-worker damping (a cube is a whole DPLL call).
    ParallelSearchOptions cube_options =
        SearchOptions(/*chunk_size=*/1, /*min_parallel_ranks=*/2);
    cube_options.adaptive_ranks_per_worker = 0;
    ParallelSearch search(cube_options);
    auto visit = [&](size_t rank, size_t) -> bool {
      std::vector<Lit> cube;
      cube.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        Lit v = static_cast<Lit>(i + 1);
        cube.push_back(((rank >> i) & 1) != 0 ? -v : v);
      }
      DpllSolver solver(config);  // per-worker instance, zero sharing
      SatResult cube_result = solver.SolveWithAssumptions(cnf, cube);
      decisions[rank] = cube_result.stats.decisions;  // distinct slots
      exhausted[rank] = cube_result.budget_exhausted ? 1 : 0;
      if (!cube_result.satisfiable) return false;
      std::lock_guard<std::mutex> lock(win.mutex);
      if (rank < win.rank) {
        win.rank = rank;
        win.model = std::move(cube_result.model);
      }
      return true;
    };
    size_t winner = search.FindFirst(num_cubes, visit);
    sat.satisfiable = winner != ParallelSearch::kNotFound;
    if (sat.satisfiable) {
      sat.model = std::move(win.model);
      // Deterministic work accounting: cubes up to and including the
      // winner always run to completion (FindFirst abandons only ranks
      // above the best hit).
      size_t total = 0;
      for (size_t r = 0; r <= winner; ++r) total += decisions[r];
      report.candidates_tried = total + 1;
    } else {
      size_t total = 0;
      bool any_exhausted = false;
      for (size_t r = 0; r < num_cubes; ++r) {
        total += decisions[r];
        any_exhausted = any_exhausted || exhausted[r] != 0;
      }
      report.candidates_tried = total + 1;
      sat.budget_exhausted = any_exhausted;
    }
  }

  if (Cancelled()) {
    report.verdict = ExistenceVerdict::kUnknown;
    report.note = kCancelledNote;
    return report;
  }
  if (!sat.satisfiable) {
    if (sat.budget_exhausted) {
      report.verdict = ExistenceVerdict::kUnknown;
      report.budget_exhausted = true;
      report.note = "DPLL decision budget exhausted";
      return report;
    }
    report.verdict = ExistenceVerdict::kNo;
    report.note = "flat CNF unsatisfiable (exact for the flat fragment)";
    return report;
  }
  Graph witness = DecodeFlatModel(*encoding, sat.model);
  // The decoded graph is a solution by construction; verify defensively.
  if (IsSolution(setting, source, witness, *eval_, universe)) {
    report.verdict = ExistenceVerdict::kYes;
    report.witness = std::move(witness);
    report.note = "DPLL model decoded to a verified solution";
    return report;
  }
  report.verdict = ExistenceVerdict::kUnknown;
  report.note = "internal: DPLL model failed verification";
  return report;
}

ExistenceReport ExistenceSolver::Decide(const Setting& setting,
                                        const Instance& source,
                                        Universe& universe,
                                        const ChasedScenario* chased) const {
  // Single-threaded entry: intern the sameAs label now so the concurrent
  // workers' const lookups (sameAs completion, solution checks) always
  // find it — even for settings whose constraints were built by hand
  // without touching the alphabet.
  if (!setting.sameas.empty() && setting.alphabet != nullptr) {
    (void)setting.alphabet->SameAsSymbol();
  }
  switch (options_.strategy) {
    case ExistenceStrategy::kChaseRefute:
      return DecideChaseRefute(setting, source, universe, chased);
    case ExistenceStrategy::kBoundedSearch:
      return DecideBoundedSearch(setting, source, universe, chased);
    case ExistenceStrategy::kSatBacked:
      return DecideSatBacked(setting, source, universe, chased, nullptr);
    case ExistenceStrategy::kAuto:
      break;
  }
  // Auto strategy.
  if (!setting.HasTargetConstraints() || setting.SameAsOnly()) {
    // Solutions always exist (paper §3.2 / §4.2): construct one.
    ExistenceReport report =
        DecideChaseRefute(setting, source, universe, chased);
    if (report.verdict == ExistenceVerdict::kYes) return report;
    // Canonical instantiation can fail only on witness-budget corner
    // cases; widen via bounded search.
    return DecideBoundedSearch(setting, source, universe, chased);
  }
  if (setting.target_tgds.empty() && setting.sameas.empty()) {
    // Outside the flat fragment DecideSatBacked has already run the
    // bounded search; only an undecided SAT route falls back to it.
    bool searched = false;
    ExistenceReport report =
        DecideSatBacked(setting, source, universe, chased, &searched);
    if (searched || report.verdict != ExistenceVerdict::kUnknown) {
      return report;
    }
  }
  return DecideBoundedSearch(setting, source, universe, chased);
}

std::vector<Graph> ExistenceSolver::EnumerateSolutions(
    const Setting& setting, const Instance& source, Universe& universe,
    size_t max_solutions, const ChasedScenario* chased) const {
  std::vector<Graph> kept;
  if (max_solutions == 0) return kept;
  // Single-threaded entry: see Decide() — pre-intern sameAs for the
  // workers' const lookups.
  if (!setting.sameas.empty() && setting.alphabet != nullptr) {
    (void)setting.alphabet->SameAsSymbol();
  }
  StagePattern stage = BuildStagePattern(chased, setting, source, universe,
                                         *eval_, options_.cancel);
  if (stage.canceled || Cancelled()) return kept;  // truncated pattern
  if (stage.failed) return kept;  // no solutions at all
  GraphPattern& pattern = stage.pattern;
  PatternInstantiator instantiator(&pattern, options_.instantiation);
  const size_t total_combinations = instantiator.NumCombinations();
  if (total_combinations == 0) return kept;

  // Order-stable parallel enumeration (ISSUE 2 tentpole): workers verify
  // candidates in arbitrary order and record hits by rank; the dedup +
  // max_solutions cap runs in ScanAll's serialized contiguous-prefix
  // callback, strictly in rank order — so the kept set equals the
  // sequential scan's for any worker count. Once the cap is reached the
  // returned ceiling abandons all higher ranks (early exit). Ranks are
  // those of the singleton-pruned space, as in DecideBoundedSearch.
  const size_t num_ranks =
      std::min(total_combinations, options_.max_candidates);
  const PrunedSpace space(
      instantiator, KeptWitnesses(pattern, instantiator, setting.egds,
                                  *eval_, options_, universe));
  const size_t viable_ranks = space.CountBelow(num_ranks);
  ParallelSearch search(
      SearchOptions(options_.parallel_chunk, options_.parallel_min_ranks));
  const size_t workers = search.NumWorkers(viable_ranks);
  const size_t mark = universe.NullMark();
  std::vector<Universe> scratch(workers > 1 ? workers : 0, universe);
  auto worker_universe = [&](size_t worker) -> Universe& {
    return scratch.empty() ? universe : scratch[worker];
  };

  struct Hit {
    Graph graph;
    std::string signature;
  };
  std::mutex hits_mutex;
  std::map<size_t, Hit> hits;            // rank -> verified solution
  std::unordered_set<std::string> seen;  // merged signatures
  size_t merged = 0;                     // ranks [0, merged) folded in

  auto visit = [&](size_t rank, size_t worker) {
    Universe& u = worker_universe(worker);
    u.RollbackNulls(mark);
    Result<Graph> candidate =
        instantiator.Instantiate(space.Choices(rank), u);
    if (!candidate.ok()) return;
    std::optional<Graph> solution =
        RepairAndVerify(std::move(candidate).value(), setting, source, u);
    if (!solution.has_value()) return;
    // Signature against the worker universe (it knows this candidate's
    // nulls). Rollback makes rank-equal shapes literally identical, so
    // signature dedup is exact here.
    std::string signature = solution->Signature(u, *setting.alphabet);
    std::lock_guard<std::mutex> lock(hits_mutex);
    hits.emplace(rank, Hit{std::move(*solution), std::move(signature)});
  };
  auto on_prefix = [&](size_t prefix_ranks) -> size_t {
    std::lock_guard<std::mutex> lock(hits_mutex);
    for (auto it = hits.lower_bound(merged);
         it != hits.end() && it->first < prefix_ranks;
         it = hits.erase(it)) {
      if (kept.size() >= max_solutions) break;
      Hit& hit = it->second;
      if (!seen.insert(hit.signature).second) continue;
      if (options_.dedup_isomorphic) {
        bool duplicate = false;
        for (const Graph& g : kept) {
          if (IsomorphicUpToNulls(hit.graph, g)) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
      }
      kept.push_back(std::move(hit.graph));
      if (kept.size() >= max_solutions) {
        size_t ceiling = it->first + 1;
        merged = std::max(merged, ceiling);
        hits.erase(it);
        return ceiling;  // every higher rank is now irrelevant
      }
    }
    merged = std::max(merged, prefix_ranks);
    return ParallelSearch::kNotFound;
  };
  search.ScanAll(viable_ranks, visit, on_prefix);
  // Enumerated solutions keep their nulls search-local by contract; in
  // the one-worker configuration the shared universe did the scanning.
  universe.RollbackNulls(mark);
  return kept;
}

}  // namespace gdx
