#pragma once
/// \file steady_state.hpp
/// \brief Steady-state types for irreducible CTMC generators: the
/// probability row vector pi with pi * Q = 0 and sum(pi) = 1.
///
/// There is one solve route and one entry point,
/// linalg::StationarySolver::solve (stationary_solver.hpp).  It runs
/// Gauss-Seidel sweeps on the normal equations Q^T x = 0 (fast on the stiff
/// generators of patch models, rates spanning 1e-5 .. 1e+1 per hour), then a
/// banded GTH direct solve when that is cheaper, then power iteration on the
/// uniformized DTMC P = I + Q / Lambda.  Gauss-Seidel solves that converge
/// within 32 sweeps are returned as they are.  A slower sweep is handed to the
/// subtraction-free Grassmann-Taksar-Heyman elimination restricted to the
/// generator's band when the band is narrow (a wide redundancy tier in
/// reachability order).  Otherwise a stalled sweep (detected early by plateau
/// projection rather than by exhausting the iteration budget) falls back to
/// power iteration.  The route is picked from the generator and the
/// convergence settings alone; SteadyStateResult::route reports it.

#include <cstddef>
#include <vector>

namespace patchsec::linalg {

/// \brief Which numerical route produced a SteadyStateResult's distribution.
enum class SteadyStateRoute {
  kGaussSeidel,  ///< Gauss-Seidel sweeps.
  kPower,        ///< Power iteration on the uniformized DTMC.
  kBandedGth,    ///< Banded GTH elimination (exact up to rounding).
};

/// \brief Convergence settings of one StationarySolver::solve call.
struct SteadyStateOptions {
  double tolerance = 1e-12;  ///< max-norm of successive-iterate difference; finite, > 0.
  /// Iteration budget (> 0) of each stage that iterates: the per-solve work bound.
  std::size_t max_iterations = 200000;
};

/// \brief Stationary distribution plus convergence diagnostics.
struct SteadyStateResult {
  std::vector<double> distribution;  ///< stationary probabilities, sums to 1.
  /// Iterations spent by the winning route.  A kBandedGth result reports
  /// the Gauss-Seidel sweeps run before the direct solve took over.
  std::size_t iterations = 0;
  double residual = 0.0;  ///< max-norm of pi*Q at the returned iterate.
  bool converged = false;  ///< false when max_iterations elapsed first.
  /// The Gauss-Seidel attempt was abandoned early because its sweep
  /// difference plateaued (projected sweeps-to-tolerance exceeded the
  /// remaining budget), and banded GTH or power iteration took over.  Never
  /// set when the returned distribution converged via Gauss-Seidel, nor when
  /// the sweep was handed to banded GTH at its first checkpoint.
  bool stalled = false;
  /// The route that produced `distribution` (a one-state generator needs no
  /// solve and keeps the default).
  SteadyStateRoute route = SteadyStateRoute::kGaussSeidel;
};

/// \brief Closed-form stationary distribution of a finite birth-death chain.
///
/// \param birth  Birth rates lambda[i] for transitions i -> i+1, i = 0..n-1.
/// \param death  Death rates mu[i] for transitions i+1 -> i; same length.
/// \return pi over states 0..n (product-form solution, normalized).
/// \throws std::invalid_argument on length mismatch, std::domain_error on
///         non-positive death rates.
///
/// The running product is rescaled whenever it grows past 1e150, so long
/// chains whose mode lies far from state 0 (a tier of thousands of servers)
/// stay finite; chains that never reach the threshold are untouched.
///
/// Used both as a fast path for the upper-layer redundancy chains and as an
/// independent oracle for the iterative solvers in tests.
[[nodiscard]] std::vector<double> birth_death_steady_state(const std::vector<double>& birth,
                                                           const std::vector<double>& death);

}  // namespace patchsec::linalg
