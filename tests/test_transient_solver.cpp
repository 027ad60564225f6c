// Tests for the uniformization workspace (ctmc::TransientSolver): closed
// forms, an in-test naive-uniformization oracle (the pre-workspace algorithm
// kept verbatim as reference), Fox-Glynn window behaviour, the exact
// accumulated-reward series, the one-pass curve route (sweep count, width-1
// identity, degenerate grids and chains, the max_terms bound), and
// workspace reuse.  The one-point measures r . pi(t) and int_0^t r . pi ds
// come from the transient_reference.hpp helpers (distribution_at plus a
// dot; the curve over {t}).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/linalg/vector_ops.hpp"
#include "transient_reference.hpp"

namespace ct = patchsec::ctmc;
namespace la = patchsec::linalg;
using patchsec::test::accumulated_reward;
using patchsec::test::reward_at;

namespace {

ct::Ctmc up_down(double l, double mu) {
  ct::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, l);
  c.add_transition(1, 0, mu);
  return c;
}

// The pre-workspace uniformization (accumulate Poisson terms from k = 0 in
// log space), kept as an in-test oracle in the test_stationary_solver mold.
std::vector<double> naive_transient(const ct::Ctmc& chain, const std::vector<double>& initial,
                                    double t, double epsilon = 1e-12) {
  const std::size_t n = chain.state_count();
  if (t == 0.0) return initial;
  double max_exit = 0.0;
  for (std::size_t s = 0; s < n; ++s) max_exit = std::max(max_exit, chain.exit_rate(s));
  const double lambda = std::max(max_exit * 1.02, 1e-12);
  const la::CsrMatrix q = chain.generator();
  const double m = lambda * t;
  std::vector<double> term = initial;
  std::vector<double> piq(n);
  std::vector<double> result(n, 0.0);
  double log_pk = -m;
  double mass = 0.0;
  for (std::size_t k = 0; k <= 2'000'000; ++k) {
    const double pk = std::exp(log_pk);
    if (pk > 0.0) {
      for (std::size_t i = 0; i < n; ++i) result[i] += pk * term[i];
      mass += pk;
    }
    if (mass >= 1.0 - epsilon) break;
    q.left_multiply(term, piq);
    for (std::size_t i = 0; i < n; ++i) {
      term[i] += piq[i] / lambda;
      if (term[i] < 0.0) term[i] = 0.0;
    }
    log_pk += std::log(m) - std::log(static_cast<double>(k + 1));
  }
  la::normalize_probability(result);
  return result;
}

// A randomized irreducible chain (fixed seed; ring backbone plus extra
// random arcs with rates spanning several decades).
ct::Ctmc random_chain(std::size_t states, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> log_rate(-2.0, 2.0);
  std::uniform_int_distribution<std::size_t> pick(0, states - 1);
  ct::Ctmc c;
  c.add_states(states);
  for (std::size_t s = 0; s < states; ++s) {
    c.add_transition(s, (s + 1) % states, std::pow(10.0, log_rate(rng)));
  }
  for (std::size_t extra = 0; extra < 2 * states; ++extra) {
    const std::size_t from = pick(rng);
    std::size_t to = pick(rng);
    if (to == from) to = (to + 1) % states;
    c.add_transition(from, to, std::pow(10.0, log_rate(rng)));
  }
  return c;
}

}  // namespace

TEST(TransientSolver, RequiresPrepare) {
  ct::TransientSolver solver;
  EXPECT_FALSE(solver.prepared());
  std::vector<double> out;
  EXPECT_THROW(solver.distribution_at({1.0, 0.0}, 1.0, out), std::logic_error);
  EXPECT_THROW((void)accumulated_reward(solver, {1.0, 0.0}, {1.0, 0.0}, 1.0), std::logic_error);
  ct::Ctmc empty;
  EXPECT_THROW(solver.prepare(empty), std::invalid_argument);
}

TEST(TransientSolver, TwoStateClosedForm) {
  const double l = 0.7, mu = 1.3;
  const ct::Ctmc c = up_down(l, mu);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> pi;
  for (double t : {0.0, 0.1, 0.5, 1.0, 3.0, 10.0}) {
    solver.distribution_at({1.0, 0.0}, t, pi);
    const double expected = mu / (l + mu) + l / (l + mu) * std::exp(-(l + mu) * t);
    EXPECT_NEAR(pi[0], expected, 1e-9) << "t=" << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
  }
}

TEST(TransientSolver, MatchesNaiveOracleOnRandomChains) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const ct::Ctmc c = random_chain(9, seed);
    ct::TransientSolver solver;
    solver.prepare(c);
    std::vector<double> initial(9, 0.0);
    initial[seed % 9] = 1.0;
    std::vector<double> pi;
    for (double t : {0.05, 0.4, 2.0, 17.0}) {
      solver.distribution_at(initial, t, pi);
      const std::vector<double> oracle = naive_transient(c, initial, t);
      for (std::size_t s = 0; s < 9; ++s) {
        EXPECT_NEAR(pi[s], oracle[s], 1e-10) << "seed=" << seed << " t=" << t << " s=" << s;
      }
    }
  }
}

TEST(TransientSolver, AccumulatedRewardClosedForm) {
  // Pure death at rate l from the up state: E[uptime over [0,t]] =
  // (1 - e^{-lt})/l.  Exercises both the exact series and the inserted
  // diagonal of the absorbing state's empty generator row.
  const double l = 0.3;
  ct::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, l);
  ct::TransientSolver solver;
  solver.prepare(c);
  for (double t : {0.5, 2.0, 9.0}) {
    const double expected = (1.0 - std::exp(-l * t)) / l;
    EXPECT_NEAR(accumulated_reward(solver, {1.0, 0.0}, {1.0, 0.0}, t), expected, 1e-10)
        << "t=" << t;
  }
  // The absorbing distribution itself.
  std::vector<double> pi;
  solver.distribution_at({1.0, 0.0}, 4.0, pi);
  EXPECT_NEAR(pi[0], std::exp(-l * 4.0), 1e-10);
}

TEST(TransientSolver, AccumulatedMatchesFineQuadratureOfInstantaneous) {
  const ct::Ctmc c = random_chain(7, 21);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> initial(7, 0.0);
  initial[0] = 1.0;
  std::vector<double> rewards(7);
  for (std::size_t s = 0; s < 7; ++s) rewards[s] = static_cast<double>(s) / 7.0;
  const double t = 3.0;
  const double exact = accumulated_reward(solver, initial, rewards, t);
  // Trapezoid over 4096 panels of the instantaneous reward.
  const std::size_t panels = 4096;
  double quad = 0.0;
  double prev = reward_at(solver, initial, rewards, 0.0);
  for (std::size_t k = 1; k <= panels; ++k) {
    const double cur =
        reward_at(solver, initial, rewards, t * static_cast<double>(k) / panels);
    quad += 0.5 * (prev + cur) * (t / panels);
    prev = cur;
  }
  EXPECT_NEAR(exact, quad, 1e-6);
}

TEST(TransientSolver, CurveMatchesIndependentPointEvaluations) {
  // Stepping through the grid must agree with evaluating each point from
  // t = 0 — the Markov-property consistency of the curve path.
  const ct::Ctmc c = random_chain(8, 5);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> initial(8, 0.0);
  initial[3] = 1.0;
  std::vector<double> rewards(8, 0.0);
  rewards[0] = rewards[1] = 1.0;
  const std::vector<double> grid = {0.0, 0.2, 0.9, 0.9, 4.5};  // duplicate allowed
  std::vector<double> values;
  const double accumulated = solver.reward_curve(initial, rewards, grid, values);
  ASSERT_EQ(values.size(), grid.size());
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_NEAR(values[j], reward_at(solver, initial, rewards, grid[j]), 1e-9) << "j=" << j;
  }
  EXPECT_NEAR(accumulated, accumulated_reward(solver, initial, rewards, grid.back()), 1e-9);
}

TEST(TransientSolver, CurveValidation) {
  const ct::Ctmc c = up_down(1.0, 1.0);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> values;
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {}, values),
               std::invalid_argument);
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {1.0, 0.5}, values),
               std::invalid_argument);
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {-1.0, 0.5}, values),
               std::invalid_argument);
  EXPECT_THROW((void)solver.reward_curve({1.0}, {1.0, 0.0}, {1.0}, values),
               std::invalid_argument);
  EXPECT_THROW((void)solver.reward_curve({0.0, 0.0}, {1.0, 0.0}, {1.0}, values),
               std::domain_error);
}

TEST(TransientSolver, NonFiniteTimesAreRejected) {
  // A NaN point used to pass the ordering checks and come back as 0 (after
  // a NaN-to-size_t cast in the Poisson window); inf took the same path.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const ct::Ctmc c = up_down(1.0, 1.0);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> values;
  std::vector<std::vector<double>> curves;
  for (const std::vector<double>& grid :
       {std::vector<double>{1.0, nan, 2.0}, std::vector<double>{1.0, inf},
        std::vector<double>{nan}, std::vector<double>{inf}}) {
    EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, grid, values),
                 std::invalid_argument);
    EXPECT_THROW((void)solver.reward_curve_multi({{1.0, 0.0}}, {1.0, 0.0}, grid, curves),
                 std::invalid_argument);
  }
  std::vector<double> pi;
  for (const double t : {nan, inf}) {
    EXPECT_THROW(solver.distribution_at({1.0, 0.0}, t, pi), std::invalid_argument);
  }
  EXPECT_EQ(solver.diagnostics().matvec_count, 0u);
}

TEST(TransientSolver, EpsilonOutsideTheUnitIntervalIsRejected) {
  // NaN used to return a wrong curve silently and -1 a misleading max_terms
  // error; every value outside (0, 1) is refused before any sweep.
  const ct::Ctmc c = up_down(1.0, 1.0);
  for (const double epsilon :
       {std::nan(""), std::numeric_limits<double>::infinity(), 0.0, -1.0, 1.0}) {
    ct::TransientOptions options;
    options.epsilon = epsilon;
    ct::TransientSolver solver;
    solver.set_options(options);
    solver.prepare(c);
    std::vector<double> pi, values;
    EXPECT_THROW(solver.distribution_at({1.0, 0.0}, 1.0, pi), std::invalid_argument) << epsilon;
    EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {1.0}, values),
                 std::invalid_argument)
        << epsilon;
    EXPECT_EQ(solver.diagnostics().matvec_count, 0u) << epsilon;
  }
}

TEST(TransientSolver, OnePassSweepCountIsTheHorizonRightPoint) {
  // A curve runs one series to the right truncation point of
  // Lambda * t_last, however many grid points share that horizon.
  const ct::Ctmc c = random_chain(12, 9);
  std::vector<double> initial(12, 0.0);
  initial[2] = 1.0;
  std::vector<double> rewards(12);
  for (std::size_t s = 0; s < 12; ++s) rewards[s] = std::cos(static_cast<double>(s));
  const std::vector<double> coarse{1.5, 3.0};
  std::vector<double> fine;
  for (int j = 1; j <= 16; ++j) fine.push_back(3.0 * j / 16.0);
  std::vector<double> values;
  ct::TransientSolver two_points;
  two_points.prepare(c);
  (void)two_points.reward_curve(initial, rewards, coarse, values);
  ct::TransientSolver sixteen_points;
  sixteen_points.prepare(c);
  (void)sixteen_points.reward_curve(initial, rewards, fine, values);
  EXPECT_EQ(two_points.diagnostics().matvec_count, sixteen_points.diagnostics().matvec_count);

  // The forward step over [0, t_last] computes the Poisson(Lambda t_last)
  // window on its own: its right point is the series length.
  ct::TransientSolver probe;
  probe.prepare(c);
  std::vector<double> pi;
  probe.distribution_at(initial, 3.0, pi);
  EXPECT_EQ(two_points.diagnostics().matvec_count, probe.diagnostics().right_point);
  EXPECT_GT(static_cast<double>(two_points.diagnostics().matvec_count),
            two_points.diagnostics().uniformization_rate * 3.0);
}

TEST(TransientSolver, SingleCurveIsTheWidthOneColumnBitwise) {
  const ct::Ctmc c = random_chain(9, 4);
  std::vector<double> initial(9, 0.0);
  initial[1] = 0.25;  // a spread initial, not only point masses
  initial[6] = 0.75;
  std::vector<double> rewards(9);
  for (std::size_t s = 0; s < 9; ++s) rewards[s] = 1.0 / static_cast<double>(s + 1);
  const std::vector<double> grid{0.0, 0.3, 0.3, 1.1, 2.0};
  ct::TransientSolver single;
  single.prepare(c);
  std::vector<double> values;
  const double accumulated = single.reward_curve(initial, rewards, grid, values);
  ct::TransientSolver multi;
  multi.prepare(c);
  std::vector<std::vector<double>> curves;
  const std::vector<double> accs = multi.reward_curve_multi({initial}, rewards, grid, curves);
  ASSERT_EQ(curves.size(), 1u);
  EXPECT_EQ(curves[0], values);
  EXPECT_EQ(accs[0], accumulated);
}

TEST(TransientSolver, OnePassFrozenChainAndZeroTimePoints) {
  // Lambda = 0: the reward rate stays at r . pi(0) and accumulates linearly,
  // with no sweep at all.
  ct::Ctmc frozen;
  frozen.add_states(3);
  ct::TransientSolver frozen_solver;
  frozen_solver.prepare(frozen);
  std::vector<double> values;
  const double frozen_acc =
      frozen_solver.reward_curve({0.2, 0.3, 0.5}, {1.0, 0.0, 0.0}, {0.0, 4.0, 10.0}, values);
  EXPECT_EQ(values, (std::vector<double>{0.2, 0.2, 0.2}));
  EXPECT_NEAR(frozen_acc, 2.0, 1e-12);
  EXPECT_EQ(frozen_solver.diagnostics().matvec_count, 0u);

  // A t = 0 grid point is r . pi(0) exactly; an all-zero grid sweeps
  // nothing and accumulates nothing.
  const ct::Ctmc c = up_down(1.0, 3.0);
  ct::TransientSolver solver;
  solver.prepare(c);
  const std::vector<double> initial{0.25, 0.75};
  const std::vector<double> rewards{1.0, 0.5};
  (void)solver.reward_curve(initial, rewards, {0.0, 1.0}, values);
  EXPECT_EQ(values[0], 0.25 * 1.0 + 0.75 * 0.5);
  EXPECT_NEAR(values[1], reward_at(solver, initial, rewards, 1.0), 1e-12);
  ct::TransientSolver zero;
  zero.prepare(c);
  EXPECT_EQ(zero.reward_curve(initial, rewards, {0.0, 0.0}, values), 0.0);
  EXPECT_EQ(values[1], 0.25 * 1.0 + 0.75 * 0.5);
  EXPECT_EQ(zero.diagnostics().matvec_count, 0u);
}

TEST(TransientSolver, MaxTermsBoundsTheOnePassHorizon) {
  // Lambda * t = 1020: each Poisson window is a few hundred terms wide, but
  // the one-pass series must run to its right point (~1250 terms).  A cap
  // of 600 admits the windows and refuses the series.
  const ct::Ctmc c = up_down(50.0, 50.0);
  ct::TransientOptions options;
  options.max_terms = 600;
  ct::TransientSolver solver;
  solver.set_options(options);
  solver.prepare(c);
  std::vector<double> pi;
  EXPECT_NO_THROW(solver.distribution_at({1.0, 0.0}, 20.0, pi));
  std::vector<double> values;
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {10.0, 20.0}, values),
               std::runtime_error);
  EXPECT_THROW((void)accumulated_reward(solver, {1.0, 0.0}, {1.0, 0.0}, 20.0),
               std::runtime_error);
}

TEST(TransientSolver, FoxGlynnWindowSkipsTheLeftTail) {
  // Lambda*t ~ 2000: the window must start far right of k = 0 and still
  // reproduce the (here: steady-state) answer.
  const ct::Ctmc c = up_down(100.0, 100.0);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> pi;
  solver.distribution_at({1.0, 0.0}, 10.0, pi);
  EXPECT_NEAR(pi[0], 0.5, 1e-9);
  const ct::TransientDiagnostics& d = solver.diagnostics();
  EXPECT_GT(d.left_point, 0u);
  EXPECT_GT(d.right_point, d.left_point);
  EXPECT_GE(d.poisson_mass, 1.0 - 1e-9);
  EXPECT_NEAR(d.uniformization_rate, 102.0, 1e-9);  // 1.02 * max exit rate
}

TEST(TransientSolver, MaxTermsOverflowThrows) {
  const ct::Ctmc c = up_down(1000.0, 1000.0);
  ct::TransientOptions options;
  options.max_terms = 8;
  ct::TransientSolver solver;
  solver.set_options(options);
  solver.prepare(c);
  std::vector<double> pi;
  EXPECT_THROW(solver.distribution_at({1.0, 0.0}, 10.0, pi), std::runtime_error);
}

TEST(TransientSolver, WorkspaceReusesStructureAcrossRateChanges) {
  ct::TransientSolver solver;
  solver.prepare(up_down(0.5, 1.5));
  EXPECT_EQ(solver.structure_builds(), 1u);
  EXPECT_EQ(solver.structure_reuses(), 0u);

  // Same chain again: value-refresh fast path.
  solver.prepare(up_down(0.5, 1.5));
  EXPECT_EQ(solver.structure_builds(), 1u);
  EXPECT_EQ(solver.structure_reuses(), 1u);

  // Same structure, different rates: still the fast path, and the refreshed
  // values must answer for the NEW chain, not the cached one.
  const double l = 2.0, mu = 0.25;
  solver.prepare(up_down(l, mu));
  EXPECT_EQ(solver.structure_builds(), 1u);
  EXPECT_EQ(solver.structure_reuses(), 2u);
  std::vector<double> pi;
  solver.distribution_at({1.0, 0.0}, 0.8, pi);
  const double expected = mu / (l + mu) + l / (l + mu) * std::exp(-(l + mu) * 0.8);
  EXPECT_NEAR(pi[0], expected, 1e-9);

  // A different structure rebuilds.
  solver.prepare(random_chain(5, 3));
  EXPECT_EQ(solver.structure_builds(), 2u);
}

TEST(TransientSolver, UniformizationRateMatchesPerStateExitRates) {
  // prepare() takes Lambda from the one-pass Ctmc::max_exit_rate(); it must
  // be bit-identical to the per-state exit_rate() scan it replaced, so every
  // transient curve is unchanged.  Parallel edges and an exit-free state
  // exercise the summation order.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    ct::Ctmc c = random_chain(11, seed);
    c.add_transition(3, 7, 0.1);
    c.add_transition(3, 7, 0.2);
    c.add_state();
    double max_exit = 0.0;
    for (std::size_t s = 0; s < c.state_count(); ++s) max_exit = std::max(max_exit, c.exit_rate(s));
    EXPECT_EQ(c.max_exit_rate(), max_exit) << "seed=" << seed;
    ct::TransientSolver solver;
    solver.prepare(c);
    EXPECT_EQ(solver.diagnostics().uniformization_rate, max_exit * 1.02) << "seed=" << seed;
  }
  EXPECT_EQ(ct::Ctmc().max_exit_rate(), 0.0);
}

TEST(TransientSolver, ZeroHorizonAndFrozenChain) {
  const ct::Ctmc c = up_down(1.0, 1.0);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> pi;
  solver.distribution_at({0.25, 0.75}, 0.0, pi);
  EXPECT_DOUBLE_EQ(pi[0], 0.25);
  EXPECT_DOUBLE_EQ(accumulated_reward(solver, {0.25, 0.75}, {1.0, 0.0}, 0.0), 0.0);

  // A chain with no transitions at all: pi(t) = pi(0), accumulated is linear.
  ct::Ctmc frozen;
  frozen.add_states(3);
  ct::TransientSolver frozen_solver;
  frozen_solver.prepare(frozen);
  frozen_solver.distribution_at({0.2, 0.3, 0.5}, 100.0, pi);
  EXPECT_DOUBLE_EQ(pi[1], 0.3);
  EXPECT_NEAR(accumulated_reward(frozen_solver, {0.2, 0.3, 0.5}, {1.0, 0.0, 0.0}, 10.0), 2.0,
              1e-12);
}
