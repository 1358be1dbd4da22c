// ISSUE 8 tests: deadline-aware cancellation must be prompt, typed, and
// tear-free — a deadline self-trips the token with reason kDeadline, the
// first stop cause wins, a canceled solve returns kUnknown in a small
// fraction of the uncanceled solve's time, no partial chase artifact ever
// lands in the engine cache, and a solve after a canceled one is
// byte-identical to a fresh engine's.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/parallel_search.h"
#include "common/rng.h"
#include "engine/cache.h"
#include "engine/exchange_engine.h"
#include "reduction/sat_encoding.h"
#include "sat/gen.h"
#include "solver/existence.h"
#include "workload/flights.h"

namespace gdx {
namespace {

using StopReason = CancellationToken::StopReason;

EngineOptions PaperOptions() {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 12;
  return options;
}

/// Theorem 4.1 UNSAT instance (forced contradiction on vars n-1 and n):
/// the bounded search must exhaust all 2^n witness combinations, which
/// makes its runtime scale cleanly — the timing workload for the deadline
/// test. The contradiction is the four binary clauses over x_{n-1} and
/// x_n, not the unit clauses (x_n) and (¬x_n): each unit clause makes one
/// witness fail on its own, so the singleton nogoods would decide the
/// whole space without instantiating a candidate.
SatEncodedExchange MakeUnsatReduction(int n, Universe& universe) {
  Rng rng(77);
  CnfFormula f = RandomKSat(n - 1 > 2 ? n - 1 : 2, 2 * n, 3, rng);
  f.set_num_vars(n);
  f.AddClause({n - 1, n});
  f.AddClause({n - 1, -n});
  f.AddClause({-(n - 1), n});
  f.AddClause({-(n - 1), -n});
  Result<SatEncodedExchange> enc =
      EncodeSatToSetting(f, universe, ReductionMode::kEgd);
  EXPECT_TRUE(enc.ok());
  return std::move(enc).value();
}

ExistenceOptions ReductionOptions(const CancellationToken* cancel) {
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kBoundedSearch;
  options.instantiation.max_edges_per_witness = 1;
  options.instantiation.max_witnesses_per_edge = 2;
  options.cancel = cancel;
  return options;
}

// --- Token semantics --------------------------------------------------------

TEST(CancelTest, DeadlineExpirySelfTripsWithReasonDeadline) {
  CancellationToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kNone);
  EXPECT_FALSE(token.has_deadline());

  token.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(token.has_deadline());
  // The raw flag is still clear: expiry is detected at the poll, not by a
  // background clock.
  EXPECT_FALSE(token.flag()->load());
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kDeadline);
  // The poll tripped the shared flag, so raw-flag pollers (the DPLL inner
  // loop) observe the expiry too.
  EXPECT_TRUE(token.flag()->load());
}

TEST(CancelTest, FutureDeadlineDoesNotTrip) {
  CancellationToken token;
  token.SetDeadlineAfter(std::chrono::hours(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kNone);
}

TEST(CancelTest, FirstStopCauseWins) {
  // Explicit cancel first, deadline second: reason stays kCanceled.
  CancellationToken token;
  token.RequestStop();
  token.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kCanceled);

  // Deadline first, explicit cancel second: reason stays kDeadline.
  CancellationToken token2;
  token2.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(token2.stop_requested());
  token2.RequestStop();
  EXPECT_EQ(token2.reason(), StopReason::kDeadline);
}

// --- Typed outcome and cache hygiene ----------------------------------------

TEST(CancelTest, CanceledSolveIsTypedAndLeavesNoTornCacheEntry) {
  EngineOptions options = PaperOptions();
  options.existence_policy = ExistencePolicy::kBoundedSearch;
  ExchangeEngine engine(options);
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  CancellationToken token;
  token.RequestStop();
  Result<ExchangeOutcome> outcome = engine.Solve(s, &token);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->existence.verdict, ExistenceVerdict::kUnknown);
  EXPECT_EQ(outcome->existence.note, "search cancelled");
  EXPECT_EQ(outcome->interrupt, StopReason::kCanceled);
  EXPECT_FALSE(outcome->solution.has_value());
  // The truncated chase artifact must not have been memoized: a later
  // uncanceled solve would otherwise chase from a non-fixpoint.
  EXPECT_EQ(engine.cache().sizes().chased_entries, 0u);

  // The same engine, uncanceled, now matches a fresh engine byte for byte
  // — nothing torn survived the canceled attempt.
  Scenario again = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Result<ExchangeOutcome> warm = engine.Solve(again);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->interrupt, StopReason::kNone);
  ExchangeEngine fresh(options);
  Scenario control = MakeExample22Scenario(FlightConstraintMode::kEgd);
  Result<ExchangeOutcome> cold = fresh.Solve(control);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(warm->ToString(*again.universe, *again.alphabet),
            cold->ToString(*control.universe, *control.alphabet));
}

TEST(CancelTest, ExpiredDeadlineSolveReportsDeadlineInterrupt) {
  ExchangeEngine engine(PaperOptions());
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  CancellationToken token;
  token.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  Result<ExchangeOutcome> outcome = engine.Solve(s, &token);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->existence.verdict, ExistenceVerdict::kUnknown);
  EXPECT_EQ(outcome->interrupt, StopReason::kDeadline);
  EXPECT_EQ(engine.cache().sizes().chased_entries, 0u);
}

TEST(CancelTest, MidSolveCancelFromAnotherThreadReturns) {
  // A canceller thread trips the token mid-search; the solve must come
  // back (promptly — the generous bound below only catches hangs) with
  // either a typed cancellation or a legitimately finished verdict.
  AutomatonNreEvaluator eval;
  Universe universe;
  SatEncodedExchange enc = MakeUnsatReduction(12, universe);
  CancellationToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.RequestStop();
  });
  ExistenceReport report =
      ExistenceSolver(&eval, ReductionOptions(&token))
          .Decide(enc.setting, *enc.instance, universe);
  canceller.join();
  if (report.verdict == ExistenceVerdict::kUnknown) {
    EXPECT_EQ(report.note, "search cancelled");
  } else {
    EXPECT_EQ(report.verdict, ExistenceVerdict::kNo) << report.note;
  }
}

TEST(CancelTest, MidSatCancelFromAnotherThreadReturns) {
  // Same race through the SAT-backed strategy: the DPLL inner loop polls
  // the token's raw flag, so a cross-thread trip must stop it too.
  AutomatonNreEvaluator eval;
  Universe universe;
  SatEncodedExchange enc = MakeUnsatReduction(14, universe);
  CancellationToken token;
  ExistenceOptions options = ReductionOptions(&token);
  options.strategy = ExistenceStrategy::kSatBacked;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.RequestStop();
  });
  ExistenceReport report = ExistenceSolver(&eval, options)
                               .Decide(enc.setting, *enc.instance, universe);
  canceller.join();
  if (report.verdict == ExistenceVerdict::kUnknown) {
    EXPECT_EQ(report.note, "search cancelled");
  } else {
    EXPECT_EQ(report.verdict, ExistenceVerdict::kNo) << report.note;
  }
}

TEST(CancelTest, CanceledEnumerationReturnsPrefixOnly) {
  // EnumerateSolutions under a stopped token must return a (possibly
  // empty) prefix instead of scanning the whole choice space — the
  // documented contract callers rely on to keep certain answers sound.
  AutomatonNreEvaluator eval;
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  ExistenceOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  std::vector<Graph> full =
      ExistenceSolver(&eval, options)
          .EnumerateSolutions(s.setting, *s.instance, *s.universe, 12);
  ASSERT_GT(full.size(), 1u) << "scenario must have >1 solution";

  CancellationToken token;
  token.RequestStop();
  options.cancel = &token;
  Scenario again = MakeExample22Scenario(FlightConstraintMode::kEgd);
  std::vector<Graph> truncated =
      ExistenceSolver(&eval, options)
          .EnumerateSolutions(again.setting, *again.instance,
                              *again.universe, 12);
  EXPECT_LT(truncated.size(), full.size())
      << "a pre-stopped token must truncate the enumeration";
}

// --- The latency bound (ISSUE 8 acceptance) ---------------------------------

TEST(CancelTest, DeadlineBoundsSolveTimeTenfold) {
  // Find an exhaustion workload whose full solve takes long enough to
  // measure (the 2^n choice space quadruples per +2 vars), then show a
  // short deadline returns in <= 1/10 of the full time.
  AutomatonNreEvaluator eval;
  std::chrono::steady_clock::duration full_elapsed{};
  int n = 10;
  for (; n <= 16; n += 2) {
    Universe universe;
    SatEncodedExchange enc = MakeUnsatReduction(n, universe);
    auto start = std::chrono::steady_clock::now();
    ExistenceReport report =
        ExistenceSolver(&eval, ReductionOptions(nullptr))
            .Decide(enc.setting, *enc.instance, universe);
    full_elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_EQ(report.verdict, ExistenceVerdict::kNo) << report.note;
    ASSERT_EQ(report.candidates_tried, size_t{1} << n);
    ASSERT_EQ(report.candidates_pruned, 0u);
    if (full_elapsed >= std::chrono::milliseconds(400)) break;
  }
  ASSERT_GE(full_elapsed, std::chrono::milliseconds(400))
      << "even n=16 exhausted too fast to measure a 10x bound";

  // Same workload, deadline at 1/50 of the measured full time: the abort
  // must land within 1/10 of the full time — the poll granularity is one
  // candidate repair, orders of magnitude finer than the slack between
  // full/50 and full/10.
  Universe universe;
  SatEncodedExchange enc = MakeUnsatReduction(n > 16 ? 16 : n, universe);
  CancellationToken token;
  token.SetDeadlineAfter(
      std::chrono::duration_cast<std::chrono::nanoseconds>(full_elapsed) /
      50);
  auto start = std::chrono::steady_clock::now();
  ExistenceReport report =
      ExistenceSolver(&eval, ReductionOptions(&token))
          .Decide(enc.setting, *enc.instance, universe);
  auto deadline_elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(report.verdict, ExistenceVerdict::kUnknown) << report.note;
  EXPECT_EQ(report.note, "search cancelled");
  EXPECT_EQ(token.reason(), StopReason::kDeadline);
  EXPECT_LE(deadline_elapsed * 10, full_elapsed)
      << "a deadline-aborted solve must return at least 10x faster than "
       "the full exhaustion";
}

}  // namespace
}  // namespace gdx
