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
///  * reward_curve() steps between ascending grid points — pi(t_j) is
///    advanced from pi(t_{j-1}) with a fresh Poisson window over
///    Lambda * (t_j - t_{j-1}) — so a G-point curve costs O(Lambda * t_G)
///    matrix-vector products in total, not O(G * Lambda * t_G).
///
/// A TransientSolver is NOT thread-safe; hold one per thread
/// (core::Session keeps one per worker thread, like StationarySolver).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"

namespace patchsec::ctmc {

/// Truncation policy and inner-loop choice of the uniformization expansion.
struct TransientOptions {
  double epsilon = 1e-12;             ///< truncation error bound on Poisson mass.
  std::size_t max_terms = 2'000'000;  ///< hard cap on expansion length.

  /// Which inner loop drives the expansion.
  enum class Kernel : std::uint8_t {
    kAuto,    ///< linalg::SpmvKernel — SELL-8 layout, CPUID-dispatched
              ///< SIMD, fused weight-accumulation/reward-reduction passes.
    kScalar,  ///< the historical in-loop scalar CSR pass, kept bit-exact as
              ///< the reference trajectory (and the portable worst case).
  };
  Kernel kernel = Kernel::kAuto;
};

/// How the last evaluation went: the uniformization constant, the Fox-Glynn
/// window, and the work performed.  Counters accumulate over every
/// evaluation since the last prepare() (a stepped curve adds each step's
/// window), so they measure the full cost of a curve.
struct TransientDiagnostics {
  double uniformization_rate = 0.0;  ///< Lambda.
  std::size_t left_point = 0;        ///< Fox-Glynn left truncation of the last window.
  std::size_t right_point = 0;       ///< right truncation of the last window.
  /// Matrix SWEEPS since prepare().  A panel step advances rhs_count vectors
  /// in ONE sweep and counts once — multiply by rhs_count for per-vector
  /// work, so the counter stays an honest traffic metric.
  std::size_t matvec_count = 0;
  /// Widest panel advanced since prepare() (1 = single-vector evaluations
  /// only; 0 = nothing evaluated yet).
  std::size_t rhs_count = 0;
  /// Inner-loop id of the last evaluation: "csr-scalar" for the historical
  /// reference pass, or the dispatched linalg::SpmvKernel name
  /// ("sell8-avx512" / "sell8-avx2" / "sell8-scalar").
  std::string kernel;
  double poisson_mass = 0.0;         ///< captured (pre-normalization) mass, last window.
  double wall_time_seconds = 0.0;    ///< evaluation time since prepare().
};

class TransientSolver {
 public:
  TransientSolver() = default;
  explicit TransientSolver(TransientOptions options) : options_(options) {}

  /// Build (or, for a structurally identical chain, refresh in place) the
  /// uniformized matrix P = I + Q/Lambda.  Must be called before any
  /// evaluation; call again whenever the chain changes.  Throws
  /// std::invalid_argument on an empty chain.
  void prepare(const Ctmc& chain);

  [[nodiscard]] bool prepared() const noexcept { return states_ > 0; }
  [[nodiscard]] std::size_t state_count() const noexcept { return states_; }

  /// pi(t) from `initial` (must sum to ~1), written into `out` (resized).
  /// Throws std::invalid_argument on size mismatch / negative t and
  /// std::logic_error when prepare() has not run.
  void distribution_at(const std::vector<double>& initial, double t, std::vector<double>& out);

  /// Expected instantaneous reward  r . pi(t).
  [[nodiscard]] double reward_at(const std::vector<double>& initial,
                                 const std::vector<double>& rewards, double t);

  /// Expected accumulated reward  int_0^t r . pi(s) ds, evaluated exactly
  /// through the uniformization series (no quadrature grid).
  [[nodiscard]] double accumulated_reward(const std::vector<double>& initial,
                                          const std::vector<double>& rewards, double t);

  /// The reward curve r . pi(t_j) over an ascending (non-negative,
  /// non-decreasing) time grid, stepping between points; `values` is resized
  /// to the grid.  Returns the accumulated reward int_0^{t_back} r . pi(s) ds
  /// — both measures ride the same vector iterations.
  double reward_curve(const std::vector<double>& initial, const std::vector<double>& rewards,
                      const std::vector<double>& time_points, std::vector<double>& values);

  /// reward_curve for B initial distributions AT ONCE over the same chain,
  /// grid and reward vector: the iterates advance as one column-major panel,
  /// so every expansion term costs ONE sweep over the matrix instead of B
  /// (diagnostics().matvec_count counts sweeps; rhs_count records B).
  /// `curves[b][j]` receives r . pi_b(t_j); the return value is the per-b
  /// accumulated reward.  Agreement with B sequential reward_curve calls is
  /// documented at ~1e-12 (the panel kernel reduces in a different
  /// association order).  Under TransientOptions::Kernel::kScalar the call
  /// degrades to exactly those sequential solves (the reference mode).
  std::vector<double> reward_curve_multi(const std::vector<std::vector<double>>& initials,
                                         const std::vector<double>& rewards,
                                         const std::vector<double>& time_points,
                                         std::vector<std::vector<double>>& curves);

  [[nodiscard]] const TransientOptions& options() const noexcept { return options_; }
  void set_options(const TransientOptions& options) { options_ = options; }
  [[nodiscard]] const TransientDiagnostics& diagnostics() const noexcept { return diagnostics_; }

  /// Number of prepare() calls that rebuilt the matrix structure (a
  /// same-structure refresh does not count; the first build counts as one).
  [[nodiscard]] std::size_t structure_builds() const noexcept { return builds_; }
  /// Number of prepare() calls served by the value-refresh fast path.
  [[nodiscard]] std::size_t structure_reuses() const noexcept { return reuses_; }

  /// The SIMD kernel layer's own build/reuse counters (0 builds until the
  /// first Kernel::kAuto evaluation — the layout compiles lazily).
  [[nodiscard]] std::size_t kernel_structure_builds() const noexcept {
    return kernel_.structure_builds();
  }
  [[nodiscard]] std::size_t kernel_structure_reuses() const noexcept {
    return kernel_.structure_reuses();
  }

  /// Drop the cached matrix and scratch (counters are kept).
  void reset();

 private:
  /// Fill weights_ with the normalized Poisson(k; m) window [left_, right_]
  /// capturing mass >= 1 - epsilon, expanding outward from the mode.
  void poisson_window(double m);

  /// Advance `state` (a distribution) to time-offset dt ahead, accumulating
  /// r . pi into *accumulated when non-null.  `state` is replaced by the
  /// (renormalized) advanced distribution.
  void step(std::vector<double>& state, const std::vector<double>* rewards, double dt,
            double* accumulated);

  /// Panel counterpart of step(): advance the column-major m-wide `panel`
  /// (element (b, s) at panel[s*m + b], every column a distribution) by dt,
  /// adding each column's accumulated reward into accumulated[0..m).
  void step_panel(std::vector<double>& panel, std::size_t m, const std::vector<double>& rewards,
                  double dt, double* accumulated);

  /// out[b] = dot(panel column b, rewards), each column reduced in fixed
  /// state order.
  void panel_column_dots(const std::vector<double>& panel, std::size_t m,
                         const std::vector<double>& rewards, std::vector<double>& out) const;

  /// Compile (or value-refresh) kernel_ from the cached uniformized matrix.
  void ensure_kernel();

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
  std::vector<double> state_;

  // SIMD kernel workspace over P (compiled lazily on the first kAuto step
  // after a prepare(), so kScalar evaluations never pay the layout build)
  // and the panel-stepping scratch.
  linalg::SpmvKernel kernel_;
  bool kernel_fresh_ = false;
  std::vector<double> panel_term_;
  std::vector<double> panel_next_;
  std::vector<double> panel_accum_;
  std::vector<double> panel_dots_;
  std::vector<double> panel_sums_;

  std::size_t builds_ = 0;
  std::size_t reuses_ = 0;
};

}  // namespace patchsec::ctmc
