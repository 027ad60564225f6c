#pragma once
/// \file transient_solver.hpp
/// \brief Reusable workspace for transient CTMC analysis by Jensen's
/// uniformization with Fox-Glynn-style Poisson weight truncation.
///
/// Uniformization rewrites the transient distribution of a CTMC with
/// generator Q as a Poisson mixture over the powers of the uniformized DTMC
/// P = I + Q/Lambda (Lambda >= max exit rate):
///
///   pi(t)          = sum_k Poisson(k; Lambda t) * pi(0) P^k
///   int_0^t pi(s)ds = (1/Lambda) * sum_k (1 - F(k; Lambda t)) * pi(0) P^k
///
/// where F is the Poisson CDF.  The solver computes the Poisson weight
/// window the way Fox & Glynn do: start at the mode floor(Lambda t), expand
/// outward by the ratio recurrences until the captured mass reaches
/// 1 - epsilon, and normalize the surviving weights — underflow-free for
/// large Lambda t, and the left truncation point skips accumulating terms
/// that cannot contribute (their vector iterations still run, but no
/// weight-scaled accumulation is paid below the window).
///
/// A TransientSolver is a workspace in the linalg::StationarySolver mold:
///
///  * prepare(chain) builds the uniformized matrix ONCE; every subsequent
///    time point, curve, or accumulated-reward evaluation on the same chain
///    reuses it.  Re-preparing with a chain of identical sparsity structure
///    refreshes values in place (no allocation) — the schedule-sweep path,
///    where only rates change between cadences;
///  * all per-evaluation scratch (the power-iterate vectors, the Poisson
///    weight window) lives in the workspace, so evaluating a whole curve
///    performs no per-time-point allocations once warm;
///  * reward_curve()/reward_curve_multi() run on the REWARD side
///    (de Souza e Silva & Gail 1989): every curve point and the accumulated
///    reward are linear in d_k = pi(0) . P^k r, so ONE backward series
///    v_0 = r, v_{k+1} = P v_k, run to the right truncation point R of
///    Lambda * t_last, serves the whole grid and every initial distribution:
///
///      r . pi(t_j)          = sum_k Poisson(k; Lambda t_j) * d_k
///      int_0^t_last r.pi ds = (1/Lambda) sum_k (1 - F(k; Lambda t_last)) d_k
///
///    A curve of any width and any grid density costs R matrix-vector
///    products.  Each d_k is a dot of the (sparse) initial with v_k in state
///    order, so a column's result never depends on the other columns;
///  * distribution_at() steps pi(0) forward through one Poisson window with
///    the fused SELL-8 step (linalg::SpmvKernel::step), the route of the
///    factored (lumped) analyzer.
///
/// A TransientSolver is NOT thread-safe; hold one per thread
/// (core::Session keeps one per worker thread, like StationarySolver).

#include <cstddef>
#include <string>
#include <vector>

#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"

namespace patchsec::ctmc {

/// Truncation policy of the uniformization expansion.
struct TransientOptions {
  double epsilon = 1e-12;  ///< truncation error bound on Poisson mass, in (0, 1).
  /// Hard cap on the expansion length.  A curve runs one series to the right
  /// truncation point of Lambda * t_last, so max_terms bounds that point (a
  /// larger one throws std::runtime_error); distribution_at() caps its
  /// Poisson window instead.
  std::size_t max_terms = 2'000'000;
};

/// How the last evaluation went: the uniformization constant, the Fox-Glynn
/// window, and the work performed.  Counters accumulate over every
/// evaluation since the last prepare() (a stepped curve adds each step's
/// window), so they measure the full cost of a curve.
struct TransientDiagnostics {
  double uniformization_rate = 0.0;  ///< Lambda.
  std::size_t left_point = 0;        ///< Fox-Glynn left truncation of the last window.
  std::size_t right_point = 0;       ///< right truncation of the last window.
  /// Matrix SWEEPS since prepare().  One curve call of any width sweeps the
  /// right truncation point of Lambda * t_last times, once for all
  /// rhs_count initials.
  std::size_t matvec_count = 0;
  /// Widest panel of initials evaluated since prepare() (1 = single-vector
  /// evaluations only; 0 = nothing evaluated yet).
  std::size_t rhs_count = 0;
  /// The dispatched linalg::SpmvKernel name of the last evaluation
  /// ("sell8-avx512" / "sell8-avx2" / "sell8-scalar").
  std::string kernel;
  double poisson_mass = 0.0;         ///< captured (pre-normalization) mass, last window.
  double wall_time_seconds = 0.0;    ///< evaluation time since prepare().
};

class TransientSolver {
 public:
  /// Build (or, for a structurally identical chain, refresh in place) the
  /// uniformized matrix P = I + Q/Lambda.  Must be called before any
  /// evaluation; call again whenever the chain changes.  Throws
  /// std::invalid_argument on an empty chain.
  void prepare(const Ctmc& chain);

  [[nodiscard]] bool prepared() const noexcept { return states_ > 0; }
  [[nodiscard]] std::size_t state_count() const noexcept { return states_; }

  /// pi(t) from `initial` (must sum to ~1), written into `out` (resized).
  /// Throws std::invalid_argument on size mismatch, a negative or non-finite
  /// t, or an epsilon outside (0, 1), and std::logic_error when prepare()
  /// has not run.
  void distribution_at(const std::vector<double>& initial, double t, std::vector<double>& out);

  /// The reward curve r . pi(t_j) over an ascending (finite, non-negative,
  /// non-decreasing) time grid; `values` is resized to the grid.  Returns
  /// the accumulated reward int_0^{t_back} r . pi(s) ds — both measures ride
  /// the same vector iterations.  This is reward_curve_multi() of the one
  /// initial, bit for bit.
  double reward_curve(const std::vector<double>& initial, const std::vector<double>& rewards,
                      const std::vector<double>& time_points, std::vector<double>& values);

  /// reward_curve for B initial distributions AT ONCE over the same chain,
  /// grid and reward vector: the backward series is shared, so the call
  /// costs as many sweeps as one curve (diagnostics().matvec_count counts
  /// sweeps; rhs_count records B).  `curves[b][j]` receives r . pi_b(t_j);
  /// the return value is the per-b accumulated reward.  Column b is bit-
  /// identical to reward_curve(initials[b]) and to the same column of any
  /// other panel.  Throws std::domain_error on an initial with no nonzero
  /// entry.
  std::vector<double> reward_curve_multi(const std::vector<std::vector<double>>& initials,
                                         const std::vector<double>& rewards,
                                         const std::vector<double>& time_points,
                                         std::vector<std::vector<double>>& curves);

  /// The truncation policy of every later evaluation (default-constructed
  /// until set).
  void set_options(const TransientOptions& options) { options_ = options; }
  [[nodiscard]] const TransientDiagnostics& diagnostics() const noexcept { return diagnostics_; }

  /// Number of prepare() calls that rebuilt the matrix structure (a
  /// same-structure refresh does not count; the first build counts as one).
  [[nodiscard]] std::size_t structure_builds() const noexcept { return builds_; }
  /// Number of prepare() calls served by the value-refresh fast path.
  [[nodiscard]] std::size_t structure_reuses() const noexcept { return reuses_; }

  /// The SIMD kernel layer's own build/reuse counters, summed over the two
  /// layouts: P for distribution_at() and P^T for the curves (0 builds until
  /// the first evaluation — each layout compiles lazily, on first use after a
  /// prepare()).
  [[nodiscard]] std::size_t kernel_structure_builds() const noexcept {
    return forward_.structure_builds() + backward_.structure_builds();
  }
  [[nodiscard]] std::size_t kernel_structure_reuses() const noexcept {
    return forward_.structure_reuses() + backward_.structure_reuses();
  }

  /// Drop the cached matrix and scratch (counters are kept).
  void reset();

 private:
  /// Fill weights_ with the normalized Poisson(k; m) window [left_, right_]
  /// capturing mass >= 1 - epsilon, expanding outward from the mode.
  void poisson_window(double m);

  /// Throws unless prepare() ran and the epsilon lies in (0, 1).
  void check_ready() const;

  /// Throws unless check_ready() passes and the reward vector and grid are
  /// valid.
  void check_curve_arguments(const std::vector<double>& rewards,
                             const std::vector<double>& time_points) const;

  /// Compile (or value-refresh) forward_ over P resp. backward_ over P^T
  /// from the cached uniformized matrix.
  void ensure_forward_kernel();
  void ensure_backward_kernel();

  TransientOptions options_;
  TransientDiagnostics diagnostics_;

  // Uniformized DTMC P = I + Q/Lambda in CSR form, plus the structure of the
  // generator it was derived from (for the refresh fast path).
  std::size_t states_ = 0;
  double lambda_ = 0.0;
  std::vector<std::size_t> p_row_offsets_;
  std::vector<std::size_t> p_col_indices_;
  std::vector<double> p_values_;
  std::vector<std::size_t> q_row_offsets_;
  std::vector<std::size_t> q_col_indices_;

  // Poisson window and power-iterate scratch.
  std::vector<double> weights_;
  std::vector<double> left_scratch_;
  std::size_t left_ = 0;
  std::size_t right_ = 0;
  double mass_ = 0.0;
  std::vector<double> term_;
  std::vector<double> next_;
  std::vector<double> accum_;

  // SIMD kernel workspaces over P (x^T P, the forward step) and over P^T
  // (P v, the backward series), each compiled lazily on its first use after
  // a prepare(), so a solver that only draws curves never builds the forward
  // layout.
  linalg::SpmvKernel forward_;
  linalg::SpmvKernel backward_;
  bool forward_fresh_ = false;
  bool backward_fresh_ = false;

  // One-pass curve scratch: the initials' nonzeros (state, mass) per column
  // and the series dots d_k for every column (element (k, b) at
  // series_dots_[k*m + b]).
  std::vector<std::size_t> support_offsets_;
  std::vector<std::size_t> support_states_;
  std::vector<double> support_mass_;
  std::vector<double> series_dots_;

  std::size_t builds_ = 0;
  std::size_t reuses_ = 0;
};

}  // namespace patchsec::ctmc
