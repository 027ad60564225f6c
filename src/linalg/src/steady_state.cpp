#include "patchsec/linalg/steady_state.hpp"

#include <stdexcept>

#include "patchsec/linalg/vector_ops.hpp"

namespace patchsec::linalg {

std::vector<double> birth_death_steady_state(const std::vector<double>& birth,
                                             const std::vector<double>& death) {
  if (birth.size() != death.size()) {
    throw std::invalid_argument("birth_death_steady_state: rate vectors must match in size");
  }
  constexpr double kRescaleAbove = 1e150;
  const std::size_t n = birth.size();
  std::vector<double> pi(n + 1, 0.0);
  pi[0] = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(death[i] > 0.0)) {
      throw std::domain_error("birth_death_steady_state: death rates must be positive");
    }
    pi[i + 1] = pi[i] * birth[i] / death[i];
    if (pi[i + 1] > kRescaleAbove) {
      // Rescale the prefix so the product cannot overflow; entries that
      // underflow are below 1e-150 of the running maximum.
      const double inv = 1.0 / pi[i + 1];
      for (std::size_t j = 0; j <= i + 1; ++j) pi[j] *= inv;
    }
  }
  normalize_probability(pi);
  return pi;
}

}  // namespace patchsec::linalg
