#pragma once
// Test oracle for ctmc::TransientSolver: the forward-stepped uniformization
// reference.  A curve advances the distribution between ascending grid
// points, each step through its own Fox-Glynn Poisson window, with a plain
// CSR row-scatter matvec that skips zero iterate entries, and accumulates
// the reward through the survival weights (1 - F(k)) / Lambda.  It shares no
// code with the library's one-pass backward series or its SELL-8 kernels,
// so agreement between the two is a check of both.
//
// Also the two one-point helpers tests use in place of dedicated solver
// entry points: reward_at (distribution_at, then a dot) and
// accumulated_reward (reward_curve over the one-point grid {t}).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/vector_ops.hpp"

namespace patchsec::test {

class ReferenceTransient {
 public:
  explicit ReferenceTransient(ctmc::TransientOptions options = {}) : options_(options) {}

  /// Uniformize the chain: Lambda = 1.02 * max exit rate, P = I + Q/Lambda.
  void prepare(const ctmc::Ctmc& chain) {
    const linalg::CsrMatrix q = chain.generator();
    states_ = q.rows();
    lambda_ = chain.max_exit_rate() * 1.02;
    p_row_offsets_.clear();
    p_col_indices_.clear();
    p_values_.clear();
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
    matvec_count_ = 0;
  }

  void distribution_at(const std::vector<double>& initial, double t, std::vector<double>& out) {
    out = initial;
    step(out, nullptr, t, nullptr);
  }

  /// r . pi(t_j) over an ascending grid, stepping between grid points;
  /// returns int_0^{t_back} r . pi(s) ds.
  double reward_curve(const std::vector<double>& initial, const std::vector<double>& rewards,
                      const std::vector<double>& time_points, std::vector<double>& values) {
    values.resize(time_points.size());
    std::vector<double> state = initial;
    double accumulated = 0.0;
    double previous = 0.0;
    for (std::size_t j = 0; j < time_points.size(); ++j) {
      step(state, &rewards, time_points[j] - previous, &accumulated);
      values[j] = linalg::dot(state, rewards);
      previous = time_points[j];
    }
    return accumulated;
  }

  /// One sequential reward_curve per initial.
  std::vector<double> reward_curve_multi(const std::vector<std::vector<double>>& initials,
                                         const std::vector<double>& rewards,
                                         const std::vector<double>& time_points,
                                         std::vector<std::vector<double>>& curves) {
    std::vector<double> accumulated(initials.size(), 0.0);
    curves.assign(initials.size(), std::vector<double>(time_points.size(), 0.0));
    for (std::size_t b = 0; b < initials.size(); ++b) {
      accumulated[b] = reward_curve(initials[b], rewards, time_points, curves[b]);
    }
    return accumulated;
  }

  /// Matrix sweeps since prepare(): one per column and step term.
  [[nodiscard]] std::size_t matvec_count() const { return matvec_count_; }

 private:
  // The normalized Poisson(k; m) window [left_, right_] capturing mass
  // >= 1 - epsilon, expanded outward from the mode by the ratio recurrences.
  void poisson_window(double m) {
    weights_.clear();
    if (m <= 0.0) {
      left_ = right_ = 0;
      weights_.push_back(1.0);
      return;
    }
    const std::size_t mode = static_cast<std::size_t>(m);
    const double mode_weight =
        std::exp(static_cast<double>(mode) * std::log(m) - m -
                 std::lgamma(static_cast<double>(mode) + 1.0));
    const double right_threshold = options_.epsilon / (4.0 * mode_weight);
    const double left_threshold =
        options_.epsilon / (4.0 * mode_weight * static_cast<double>(mode + 1));
    const auto overflow = [] {
      throw std::runtime_error("reference uniformization: Poisson window exceeds max_terms");
    };

    left_ = mode;
    double w = 1.0;
    double total = 1.0;
    std::vector<double> left_weights;  // [mode-1 .. left_], descending
    while (left_ > 0 && w > left_threshold) {
      w *= static_cast<double>(left_) / m;
      --left_;
      left_weights.push_back(w);
      total += w;
      if (left_weights.size() > options_.max_terms) overflow();
    }
    for (std::size_t i = left_weights.size(); i > 0; --i) weights_.push_back(left_weights[i - 1]);

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
    const double inv_total = 1.0 / total;
    for (double& weight : weights_) weight *= inv_total;
    if (std::min(1.0, total * mode_weight) < 1e-9) {
      throw std::runtime_error("reference uniformization: no Poisson mass accumulated");
    }
  }

  // Advance `state` by dt, adding int_0^dt r . pi(s) ds to *accumulated
  // when non-null.
  void step(std::vector<double>& state, const std::vector<double>* rewards, double dt,
            double* accumulated) {
    if (dt <= 0.0) return;
    if (lambda_ <= 0.0) {
      // No transitions anywhere: the distribution is frozen.
      if (accumulated != nullptr) *accumulated += linalg::dot(state, *rewards) * dt;
      return;
    }
    poisson_window(lambda_ * dt);

    std::vector<double> term = state;
    std::vector<double> next;
    std::vector<double> accum(states_, 0.0);
    double cumulative = 0.0;  // F(k): Poisson CDF over the (normalized) window
    for (std::size_t k = 0;; ++k) {
      if (k >= left_) {
        const double weight = weights_[k - left_];
        for (std::size_t i = 0; i < states_; ++i) accum[i] += weight * term[i];
        cumulative += weight;
      }
      if (accumulated != nullptr) {
        // int_0^dt Poisson(k; Lambda s) ds = (1 - F(k)) / Lambda.
        const double survival = std::max(0.0, 1.0 - cumulative);
        *accumulated += survival * linalg::dot(term, *rewards) / lambda_;
      }
      if (k >= right_) break;
      // term <- term * P (row-vector times CSR matrix), skipping the zero
      // entries a point-mass initial leaves in the early iterates.
      next.assign(states_, 0.0);
      for (std::size_t row = 0; row < states_; ++row) {
        const double v = term[row];
        if (v == 0.0) continue;
        for (std::size_t idx = p_row_offsets_[row]; idx < p_row_offsets_[row + 1]; ++idx) {
          next[p_col_indices_[idx]] += v * p_values_[idx];
        }
      }
      term.swap(next);
      ++matvec_count_;
    }
    // Round-off / truncation guard: the mixture of stochastic vectors is a
    // distribution up to the discarded epsilon tail.
    linalg::normalize_probability(accum);
    state = accum;
  }

  ctmc::TransientOptions options_;
  std::size_t states_ = 0;
  double lambda_ = 0.0;
  std::vector<std::size_t> p_row_offsets_;
  std::vector<std::size_t> p_col_indices_;
  std::vector<double> p_values_;
  std::vector<double> weights_;
  std::size_t left_ = 0;
  std::size_t right_ = 0;
  std::size_t matvec_count_ = 0;
};

/// r . pi(t) through the solver's forward step.
inline double reward_at(ctmc::TransientSolver& solver, const std::vector<double>& initial,
                        const std::vector<double>& rewards, double t) {
  std::vector<double> pi;
  solver.distribution_at(initial, t, pi);
  return linalg::dot(pi, rewards);
}

/// int_0^t r . pi(s) ds: the solver's curve over the one-point grid {t}.
inline double accumulated_reward(ctmc::TransientSolver& solver,
                                 const std::vector<double>& initial,
                                 const std::vector<double>& rewards, double t) {
  std::vector<double> values;
  return solver.reward_curve(initial, rewards, {t}, values);
}

}  // namespace patchsec::test
