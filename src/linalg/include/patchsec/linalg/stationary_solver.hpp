#pragma once
/// \file stationary_solver.hpp
/// \brief The steady-state solver: the one entry point for pi * Q = 0,
/// sum(pi) = 1 on a CTMC generator, and the workspace it reuses across
/// solves.
///
/// StationarySolver::solve(generator, options) is the only way to run a
/// stationary solve, and it has one route (steady_state.hpp): Gauss-Seidel,
/// then banded GTH when cheaper, then power iteration.  A one-off solve uses
/// a temporary StationarySolver().  Paths that solve many generators of
/// identical sparsity structure hold one instead — the Session schedule sweep
/// solves the same network SRN at every cadence, and a design sweep solves one
/// generator per design repeatedly while only the rates change.  The solver
/// owns that state across solves:
///
///  * the transposed generator, built by a linear-time counting/bucket
///    transpose (CsrMatrix::transposed()) and *cached*: when the next
///    generator has the same sparsity pattern, only the values are scattered
///    through a precomputed permutation (O(nnz), no sort, no allocation);
///  * the diagonal of Q (positions cached the same way);
///  * the iterate / residual scratch vectors.
///
/// The Gauss-Seidel loop itself:
///
///  * the convergence test is evaluated every sweep *for free*: the max-norm
///    difference of successive normalized iterates is bounded during the
///    update loop itself (the old value of x[i] is in hand right before it is
///    overwritten), so the per-sweep `prev = x` copy, the separate diff pass
///    and the per-sweep renormalization are all gone.  Iterates are kept
///    unnormalized — every Gauss-Seidel update (including the negativity
///    clamp) is positively homogeneous, so the trajectory is the classical
///    one up to scale, and a lower bound on the normalized successive
///    difference decides convergence no later than the classical test;
///  * stall detection: the sweep difference is sampled at checkpoints, the
///    geometric decay rate is estimated, and when the projected
///    sweeps-to-tolerance exceed the remaining budget the attempt is
///    abandoned early (SteadyStateResult::stalled) instead of burning the
///    full max_iterations budget.
///
/// prepare() records the generator's lower/upper bandwidth bl/bu with the
/// cached structure.  When the banded Grassmann-Taksar-Heyman elimination
/// (subtraction-free, O(n * bl * bu)) costs at most a fixed multiple of nnz,
/// the sweep is handed to it at the first stall checkpoint (sweep 32) if the
/// projected remaining sweeps would cost more, and it takes the place of the
/// power-iteration fallback after a stall.  A wide redundancy tier in
/// reachability order is such a chain (bandwidth 12 or less); a chain with
/// every tier wide is not ([6,6,6,6] has bandwidth 243 over 2401 states) and
/// stays on the sweep.  An elimination that breaks down (no single recurrent
/// class) hands the solve back to the sweep.  Gauss-Seidel solves that
/// converge within 32 sweeps never see the direct route, and the route is a
/// function of (generator, options) alone.
///
/// A StationarySolver is NOT thread-safe; share one per thread
/// (core::Session keeps one per worker thread).

#include <cstddef>
#include <vector>

#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/steady_state.hpp"

namespace patchsec::linalg {

class StationarySolver {
 public:
  /// Solve pi * Q = 0, sum(pi) = 1 for a CTMC infinitesimal generator;
  /// reuses cached structure when `generator` has the sparsity pattern of
  /// the previous solve.
  ///
  /// \param generator  Square CSR generator matrix Q (rows sum to ~0),
  ///                   indexed by source state; typically
  ///                   ctmc::Ctmc::generator() on the chain that
  ///                   petri::build_reachability_graph lowered from an SRN.
  /// \param options    Convergence settings of this solve.
  /// \return Stationary distribution with iteration count, final residual,
  ///         route and a convergence flag (the distribution is still
  ///         normalized and usable as a best-effort estimate when
  ///         \c converged is false).
  /// \throws std::invalid_argument when \p generator is empty or not square,
  ///         when options.tolerance is not finite and > 0, or when
  ///         options.max_iterations is 0.
  /// \pre Q must be restricted to a single recurrent class; the SRN layer
  ///      guarantees this by construction from a reachability graph.
  [[nodiscard]] SteadyStateResult solve(const CsrMatrix& generator,
                                        const SteadyStateOptions& options = {});

  /// Number of solve() calls served (excluding trivially-shaped rejects).
  [[nodiscard]] std::size_t solve_count() const noexcept { return solves_; }
  /// Number of solves that had to rebuild the cached transpose because the
  /// sparsity structure changed (first solve counts as one rebuild).
  [[nodiscard]] std::size_t transpose_rebuilds() const noexcept { return rebuilds_; }
  /// Number of Gauss-Seidel attempts abandoned by stall detection.
  [[nodiscard]] std::size_t stall_events() const noexcept { return stalls_; }
  /// Number of solves answered by the banded GTH direct route.
  [[nodiscard]] std::size_t direct_solves() const noexcept { return direct_solves_; }

  /// Drop all cached structure and scratch (counters are kept).
  void reset();

 private:
  [[nodiscard]] bool structure_matches(const CsrMatrix& q) const noexcept;
  void prepare(const CsrMatrix& q);

  SteadyStateResult power_iteration(const CsrMatrix& q, const SteadyStateOptions& opt);
  /// `direct_sweeps` > 0 (the banded GTH cost in nnz-sweeps) arms the
  /// hand-off at the first stall checkpoint, reported through `handed_off`,
  /// when the projected remaining sweeps exceed it.
  SteadyStateResult gauss_seidel(const CsrMatrix& q, const SteadyStateOptions& opt,
                                 double direct_sweeps = 0.0, bool* handed_off = nullptr);
  /// Banded GTH on the cached band; converged == false when the elimination
  /// breaks down (a censored chain with no way down: not a single
  /// recurrent class).
  SteadyStateResult banded_gth(const CsrMatrix& q);

  // Cached structure of the last generator (reuse detection).
  std::vector<std::size_t> q_row_offsets_;
  std::vector<std::size_t> q_col_indices_;
  // Cached transpose (off-diagonal entries only; the sweeps read the
  // diagonal separately): pattern, values, and the scatter permutation
  // mapping the k-th value of Q to its transpose slot (SIZE_MAX marks
  // diagonal entries).
  std::vector<std::size_t> t_row_offsets_;
  std::vector<std::size_t> t_col_indices_;
  std::vector<double> t_values_;
  std::vector<std::size_t> scatter_;
  // Cached diagonal of Q plus the value index of each diagonal entry
  // (SIZE_MAX when a row has no stored diagonal).
  std::vector<double> diag_;
  std::vector<std::size_t> diag_index_;
  // Lower/upper bandwidth of Q (max i-j over stored i>j, max j-i over j>i).
  std::size_t band_lower_ = 0;
  std::size_t band_upper_ = 0;
  // Row-major band of Q's off-diagonal rates, (bl + bu + 1) slots per row;
  // overwritten by the GTH elimination.
  std::vector<double> band_;
  // Iterate and residual scratch.
  std::vector<double> x_;
  std::vector<double> y_;

  std::size_t solves_ = 0;
  std::size_t rebuilds_ = 0;
  std::size_t stalls_ = 0;
  std::size_t direct_solves_ = 0;
};

}  // namespace patchsec::linalg
