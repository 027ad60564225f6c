#include "patchsec/avail/lumped_coa.hpp"

#include <chrono>
#include <stdexcept>

namespace patchsec::avail {

LumpedNetworkModel build_lumped_network(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates) {
  LumpedNetworkModel lumped;
  lumped.net = build_network_srn(design, rates);

  unsigned total = 0;
  for (const auto& [role, up] : lumped.net.up_places) {
    lumped.split.components.push_back({up, lumped.net.down_places.at(role)});
    lumped.roles.push_back(role);
    total += design.count(role);
  }

  // COA = (1/N) sum_r #up_r * prod_{q != r} [#up_q > 0]: one term per tier,
  // the tier's own factor counts its running servers, every other tier
  // contributes its service-alive indicator.
  const std::size_t tiers = lumped.roles.size();
  for (std::size_t r = 0; r < tiers; ++r) {
    petri::SeparableReward::Term term;
    term.coefficient = 1.0 / static_cast<double>(total);
    term.factors.resize(tiers);
    for (std::size_t q = 0; q < tiers; ++q) {
      const petri::PlaceId up = lumped.net.up_places.at(lumped.roles[q]);
      if (q == r) {
        term.factors[q] = [up](const petri::Marking& m) {
          return static_cast<double>(m[up]);
        };
      } else {
        term.factors[q] = [up](const petri::Marking& m) {
          return m[up] > 0 ? 1.0 : 0.0;
        };
      }
    }
    lumped.coa.terms.push_back(std::move(term));
  }
  return lumped;
}

CoaEvaluation capacity_oriented_availability_lumped_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const petri::AnalyzerOptions& engine) {
  const LumpedNetworkModel lumped = build_lumped_network(design, rates);
  const petri::FactoredAnalyzer analyzer(lumped.net.model, lumped.split, engine);
  return CoaEvaluation{analyzer.expected_reward(lumped.coa), analyzer.diagnostics()};
}

CoaCurveEvaluation transient_coa_lumped_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::vector<double>& time_points_hours,
    const std::map<enterprise::ServerRole, unsigned>& wave, const TransientCoaOptions& options) {
  if (time_points_hours.empty()) {
    throw std::invalid_argument("transient_coa_lumped: no time points");
  }
  const auto start_time = std::chrono::steady_clock::now();

  const LumpedNetworkModel lumped = build_lumped_network(design, rates);
  petri::AnalyzerOptions analyzer_options;
  analyzer_options.reachability = options.reachability;
  const petri::FactoredAnalyzer analyzer(
      lumped.net.model, lumped.split, analyzer_options,
      patch_window_marking(lumped.net, wave));

  CoaCurveEvaluation result;
  std::vector<double> values;
  result.accumulated_coa_hours = analyzer.reward_curve(
      lumped.coa, time_points_hours, values, options.uniformization, &result.transient);
  result.curve.reserve(values.size());
  for (std::size_t j = 0; j < values.size(); ++j) {
    result.curve.push_back({time_points_hours[j], values[j]});
  }
  result.diagnostics = analyzer.diagnostics();
  result.diagnostics.solver_iterations = result.transient.matvec_count;
  result.diagnostics.converged = true;  // a finite sum, not a fixpoint iteration
  result.diagnostics.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  return result;
}

}  // namespace patchsec::avail
