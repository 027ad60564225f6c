#include "patchsec/ctmc/transient_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "patchsec/linalg/vector_ops.hpp"

namespace patchsec::ctmc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void TransientSolver::prepare(const Ctmc& chain) {
  if (chain.state_count() == 0) {
    throw std::invalid_argument("TransientSolver: empty chain");
  }
  const linalg::CsrMatrix q = chain.generator();
  const bool same_structure = states_ == q.rows() && q_row_offsets_ == q.row_offsets() &&
                              q_col_indices_ == q.col_indices();
  if (same_structure) {
    ++reuses_;
  } else {
    ++builds_;
    q_row_offsets_ = q.row_offsets();
    q_col_indices_ = q.col_indices();
  }
  states_ = q.rows();

  // Lambda: strictly above the largest exit rate so the uniformized diagonal
  // stays positive (all entries of P are then non-negative — no clamping is
  // ever needed in the power iteration).
  lambda_ = chain.max_exit_rate() * 1.02;

  // Assemble P = I + Q/Lambda row by row.  Q rows are sorted; the diagonal
  // entry gets +1 (inserted in order when Q stores none — absorbing states
  // have empty rows).  clear()+push_back keeps the capacity of a previous
  // build, so a same-structure refresh allocates nothing.
  p_row_offsets_.clear();
  p_col_indices_.clear();
  p_values_.clear();
  p_row_offsets_.reserve(states_ + 1);
  p_row_offsets_.push_back(0);
  const std::vector<std::size_t>& qro = q.row_offsets();
  const std::vector<std::size_t>& qci = q.col_indices();
  const std::vector<double>& qv = q.values();
  const double inv_lambda = lambda_ > 0.0 ? 1.0 / lambda_ : 0.0;
  for (std::size_t row = 0; row < states_; ++row) {
    bool diagonal_seen = false;
    for (std::size_t k = qro[row]; k < qro[row + 1]; ++k) {
      const std::size_t col = qci[k];
      if (!diagonal_seen && col >= row) {
        diagonal_seen = true;
        if (col == row) {
          p_col_indices_.push_back(row);
          p_values_.push_back(1.0 + qv[k] * inv_lambda);
          continue;
        }
        p_col_indices_.push_back(row);
        p_values_.push_back(1.0);
      }
      p_col_indices_.push_back(col);
      p_values_.push_back(qv[k] * inv_lambda);
    }
    if (!diagonal_seen) {
      p_col_indices_.push_back(row);
      p_values_.push_back(1.0);
    }
    p_row_offsets_.push_back(p_col_indices_.size());
  }

  diagnostics_ = TransientDiagnostics{};
  diagnostics_.uniformization_rate = lambda_;
  // The SIMD layouts compile lazily on their first use; their own
  // structure-reuse fast path refreshes values without a layout rebuild.
  forward_fresh_ = false;
  backward_fresh_ = false;
}

void TransientSolver::ensure_forward_kernel() {
  if (forward_fresh_) return;
  forward_.compile(states_, states_, p_row_offsets_, p_col_indices_, p_values_);
  forward_fresh_ = true;
}

void TransientSolver::ensure_backward_kernel() {
  if (backward_fresh_) return;
  // Compiled over P^T, the kernel's x^T A is the column-vector product P v.
  const linalg::CsrMatrix p =
      linalg::CsrMatrix::from_sorted(states_, states_, p_row_offsets_, p_col_indices_, p_values_);
  backward_.compile(p.transposed());
  backward_fresh_ = true;
}

void TransientSolver::reset() {
  states_ = 0;
  lambda_ = 0.0;
  p_row_offsets_.clear();
  p_col_indices_.clear();
  p_values_.clear();
  q_row_offsets_.clear();
  q_col_indices_.clear();
  weights_.clear();
  forward_.reset();
  backward_.reset();
  forward_fresh_ = false;
  backward_fresh_ = false;
  diagnostics_ = TransientDiagnostics{};
}

void TransientSolver::poisson_window(double m) {
  weights_.clear();
  if (m <= 0.0) {
    left_ = right_ = 0;
    weights_.push_back(1.0);
    mass_ = 1.0;
    return;
  }

  // Expand outward from the mode with the ratio recurrences, in units of the
  // mode weight (so nothing ever under- or overflows); the mode weight
  // itself, exp(mode*ln m - m - lgamma(mode+1)) ~ 1/sqrt(2 pi m), converts
  // relative sums back to true Poisson mass.  The frontier thresholds bound
  // the discarded tails by ~epsilon/2 each (the left tail has at most `mode`
  // terms, each below the frontier weight; the right tail decays faster than
  // geometrically with ratio m/k < 1).
  const std::size_t mode = static_cast<std::size_t>(m);
  const double mode_weight =
      std::exp(static_cast<double>(mode) * std::log(m) - m -
               std::lgamma(static_cast<double>(mode) + 1.0));
  const double right_threshold = options_.epsilon / (4.0 * mode_weight);
  const double left_threshold =
      options_.epsilon / (4.0 * mode_weight * static_cast<double>(mode + 1));

  const auto overflow = [] {
    throw std::runtime_error(
        "uniformization: Poisson window exceeds max_terms; raise TransientOptions::max_terms "
        "(Lambda*t is too large for the configured expansion length)");
  };

  left_ = mode;
  double w = 1.0;
  double total = 1.0;
  left_scratch_.clear();  // [mode-1 .. left_], descending
  while (left_ > 0 && w > left_threshold) {
    w *= static_cast<double>(left_) / m;
    --left_;
    left_scratch_.push_back(w);
    total += w;
    if (left_scratch_.size() > options_.max_terms) overflow();
  }
  for (std::size_t i = left_scratch_.size(); i > 0; --i) weights_.push_back(left_scratch_[i - 1]);

  right_ = mode;
  w = 1.0;
  weights_.push_back(1.0);  // the mode itself
  while (w > right_threshold) {
    if (weights_.size() > options_.max_terms) overflow();
    ++right_;
    w *= m / static_cast<double>(right_);
    weights_.push_back(w);
    total += w;
  }

  // weights_ now spans [left_..right_]; normalize over the window.
  const double inv_total = 1.0 / total;
  for (double& weight : weights_) weight *= inv_total;
  mass_ = std::min(1.0, total * mode_weight);
  if (mass_ < 1e-9) {
    throw std::runtime_error(
        "uniformization truncated before any Poisson mass accumulated; raise max_terms "
        "(Lambda*t is too large for the configured expansion length)");
  }
  diagnostics_.left_point = left_;
  diagnostics_.right_point = right_;
  diagnostics_.poisson_mass = mass_;
}

void TransientSolver::check_ready() const {
  if (!prepared()) throw std::logic_error("TransientSolver: prepare() has not run");
  if (!(options_.epsilon > 0.0 && options_.epsilon < 1.0)) {
    throw std::invalid_argument("TransientSolver: epsilon must lie in (0, 1)");
  }
}

void TransientSolver::check_curve_arguments(const std::vector<double>& rewards,
                                            const std::vector<double>& time_points) const {
  check_ready();
  if (rewards.size() != states_) {
    throw std::invalid_argument("TransientSolver: reward size mismatch");
  }
  if (time_points.empty()) throw std::invalid_argument("TransientSolver: empty time grid");
  double previous = 0.0;
  for (double t : time_points) {
    if (!std::isfinite(t) || t < 0.0) {
      throw std::invalid_argument("TransientSolver: time points must be finite and non-negative");
    }
    if (t < previous) throw std::invalid_argument("TransientSolver: time grid must be ascending");
    previous = t;
  }
}

std::vector<double> TransientSolver::reward_curve_multi(
    const std::vector<std::vector<double>>& initials, const std::vector<double>& rewards,
    const std::vector<double>& time_points, std::vector<std::vector<double>>& curves) {
  check_curve_arguments(rewards, time_points);
  if (initials.empty()) throw std::invalid_argument("TransientSolver: empty panel");
  for (const std::vector<double>& initial : initials) {
    if (initial.size() != states_) {
      throw std::invalid_argument("TransientSolver: initial size mismatch");
    }
  }
  const std::size_t m = initials.size();
  std::vector<double> accumulated(m, 0.0);
  curves.assign(m, std::vector<double>(time_points.size(), 0.0));

  const auto start = Clock::now();
  diagnostics_.rhs_count = std::max(diagnostics_.rhs_count, m);

  // The initials' nonzeros in state order: point masses in every caller, so
  // each d_k costs a handful of loads instead of a dense dot.
  support_offsets_.assign(1, 0);
  support_states_.clear();
  support_mass_.clear();
  for (const std::vector<double>& initial : initials) {
    for (std::size_t s = 0; s < states_; ++s) {
      if (initial[s] == 0.0) continue;
      support_states_.push_back(s);
      support_mass_.push_back(initial[s]);
    }
    if (support_states_.size() == support_offsets_.back()) {
      throw std::domain_error("TransientSolver: initial distribution has no mass");
    }
    support_offsets_.push_back(support_states_.size());
  }

  // The horizon's window sets the series length and weighs the accumulated
  // reward.
  poisson_window(lambda_ * time_points.back());
  const std::size_t last_term = right_;
  if (last_term > options_.max_terms) {
    throw std::runtime_error(
        "uniformization: the reward series exceeds max_terms; raise TransientOptions::max_terms "
        "(Lambda*t is too large for the configured expansion length)");
  }

  // The backward series v_0 = r, v_{k+1} = P v_k, reduced against every
  // initial as it goes: d_k for column b at series_dots_[k*m + b].
  ensure_backward_kernel();
  diagnostics_.kernel = backward_.kernel_name();
  series_dots_.resize((last_term + 1) * m);
  term_ = rewards;
  for (std::size_t k = 0;; ++k) {
    for (std::size_t b = 0; b < m; ++b) {
      double dot = 0.0;
      for (std::size_t i = support_offsets_[b]; i < support_offsets_[b + 1]; ++i) {
        dot += support_mass_[i] * term_[support_states_[i]];
      }
      series_dots_[k * m + b] = dot;
    }
    if (k == last_term) break;
    backward_.left_multiply(term_, next_);
    term_.swap(next_);
    ++diagnostics_.matvec_count;
  }

  if (lambda_ <= 0.0) {
    // No transitions anywhere: the reward rate is frozen at d_0.
    for (std::size_t b = 0; b < m; ++b) accumulated[b] = series_dots_[b] * time_points.back();
  } else {
    // int_0^t_last Poisson(k; Lambda s) ds = (1 - F(k)) / Lambda.
    double cumulative = 0.0;
    for (std::size_t k = 0; k <= last_term; ++k) {
      if (k >= left_) cumulative += weights_[k - left_];
      const double survival = std::max(0.0, 1.0 - cumulative);
      for (std::size_t b = 0; b < m; ++b) {
        accumulated[b] += survival * series_dots_[k * m + b] / lambda_;
      }
    }
  }

  // Each grid point mixes the stored d_k with its own window, the horizon's
  // last so the diagnostics keep describing it.  An earlier point's window
  // never reaches past the horizon's right point; the min guards round-off.
  for (std::size_t j = 0; j < time_points.size(); ++j) {
    poisson_window(lambda_ * time_points[j]);
    const std::size_t right = std::min(right_, last_term);
    for (std::size_t b = 0; b < m; ++b) {
      double value = 0.0;
      for (std::size_t k = left_; k <= right; ++k) {
        value += weights_[k - left_] * series_dots_[k * m + b];
      }
      curves[b][j] = value;
    }
  }
  diagnostics_.wall_time_seconds += seconds_since(start);
  return accumulated;
}

void TransientSolver::distribution_at(const std::vector<double>& initial, double t,
                                      std::vector<double>& out) {
  check_ready();
  if (initial.size() != states_) {
    throw std::invalid_argument("TransientSolver: initial size mismatch");
  }
  if (!std::isfinite(t) || t < 0.0) {
    throw std::invalid_argument("TransientSolver: time must be finite and non-negative");
  }
  const auto start = Clock::now();
  out = initial;
  // t = 0, or no transitions anywhere: the distribution is frozen.
  if (t > 0.0 && lambda_ > 0.0) {
    poisson_window(lambda_ * t);
    term_ = initial;
    accum_.assign(states_, 0.0);
    diagnostics_.rhs_count = std::max<std::size_t>(diagnostics_.rhs_count, 1);
    // One fused kernel call per expansion term performs the weight
    // accumulation AND the gather-form matvec (no zero-fill of next_, no
    // per-row branch).
    ensure_forward_kernel();
    diagnostics_.kernel = forward_.kernel_name();
    next_.resize(states_);
    for (std::size_t k = 0;; ++k) {
      const double weight = k >= left_ ? weights_[k - left_] : 0.0;
      if (k >= right_) {
        forward_.reduce(term_.data(), weight, accum_.data());
        break;
      }
      forward_.step(term_.data(), next_.data(), weight, accum_.data());
      term_.swap(next_);
      ++diagnostics_.matvec_count;
    }
    // Round-off / truncation guard: the mixture of stochastic vectors is a
    // distribution up to the discarded epsilon tail.
    linalg::normalize_probability(accum_);
    out = accum_;
  }
  diagnostics_.wall_time_seconds += seconds_since(start);
}

double TransientSolver::reward_curve(const std::vector<double>& initial,
                                     const std::vector<double>& rewards,
                                     const std::vector<double>& time_points,
                                     std::vector<double>& values) {
  std::vector<std::vector<double>> curves;
  const double accumulated = reward_curve_multi({initial}, rewards, time_points, curves)[0];
  values = std::move(curves[0]);
  return accumulated;
}

}  // namespace patchsec::ctmc
