#include "patchsec/avail/transient_coa.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace patchsec::avail {

namespace {

using Clock = std::chrono::steady_clock;

// The upper-layer model a transient evaluation runs on: the network SRN, its
// reachability graph and the COA reward of every tangible state.
struct TransientModel {
  NetworkSrn net;
  petri::ReachabilityGraph graph;
  std::vector<double> rewards;

  TransientModel(const enterprise::RedundancyDesign& design,
                 const std::map<enterprise::ServerRole, AggregatedRates>& rates,
                 const petri::ReachabilityOptions& reachability)
      : net(build_network_srn(design, rates)),
        graph(petri::build_reachability_graph(net.model, reachability)) {
    const petri::RewardFunction reward = net.coa_reward();
    rewards.reserve(graph.tangible_count());
    for (const petri::Marking& m : graph.tangible_markings) rewards.push_back(reward(m));
  }

  // Point mass on the patch-window entry marking of `wave`.
  [[nodiscard]] std::vector<double> initial(
      const std::map<enterprise::ServerRole, unsigned>& wave) const {
    std::vector<double> out(graph.tangible_count(), 0.0);
    out[graph.index_of(patch_window_marking(net, wave))] = 1.0;
    return out;
  }
};

// One evaluation's curve plus the diagnostics of the solve behind it.
CoaCurveEvaluation curve_evaluation(const std::vector<double>& time_points_hours,
                                    const std::vector<double>& values, double accumulated,
                                    const petri::ReachabilityGraph& graph,
                                    const ctmc::TransientSolver& solver, double wall) {
  CoaCurveEvaluation result;
  result.accumulated_coa_hours = accumulated;
  result.curve.reserve(values.size());
  for (std::size_t j = 0; j < values.size(); ++j) {
    result.curve.push_back({time_points_hours[j], values[j]});
  }
  result.transient = solver.diagnostics();
  result.diagnostics.tangible_states = graph.tangible_count();
  result.diagnostics.vanishing_markings = graph.vanishing_markings_seen;
  result.diagnostics.transitions = graph.chain.transitions().size();
  result.diagnostics.solver_iterations = result.transient.matvec_count;
  result.diagnostics.converged = true;  // a finite sum, not a fixpoint iteration
  result.diagnostics.wall_time_seconds = wall;
  return result;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::map<enterprise::ServerRole, unsigned> canonical_wave(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, unsigned>& wave) {
  std::map<enterprise::ServerRole, unsigned> canonical;
  for (const auto& [role, down] : wave) {
    const unsigned capped = std::min(down, design.count(role));
    if (capped > 0) canonical.emplace(role, capped);
  }
  return canonical;
}

petri::Marking patch_window_marking(const NetworkSrn& net,
                                    const std::map<enterprise::ServerRole, unsigned>& wave) {
  // The up place of a deployed role starts with the tier size in tokens.
  petri::Marking start = net.model.initial_marking();
  for (const auto& [role, down] : canonical_wave(net.design, wave)) {
    start[net.up_places.at(role)] -= down;
    start[net.down_places.at(role)] += down;
  }
  return start;
}

CoaCurveEvaluation transient_coa_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::vector<double>& time_points_hours,
    const std::map<enterprise::ServerRole, unsigned>& wave, const TransientCoaOptions& options,
    ctmc::TransientSolver* workspace) {
  return transient_coa_batch(design, rates, time_points_hours, {wave}, options, workspace).front();
}

std::vector<CoaCurveEvaluation> transient_coa_batch(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::vector<double>& time_points_hours,
    const std::vector<std::map<enterprise::ServerRole, unsigned>>& waves,
    const TransientCoaOptions& options, ctmc::TransientSolver* workspace) {
  if (time_points_hours.empty()) {
    throw std::invalid_argument("transient_coa_batch: no time points");
  }
  if (waves.empty()) throw std::invalid_argument("transient_coa_batch: no waves");
  const auto start_time = Clock::now();

  // One model build and one reward series serve the whole batch: the
  // per-wave marginal cost is a dot per series term, not a solve.
  const TransientModel model(design, rates, options.reachability);
  std::vector<std::vector<double>> initials;
  initials.reserve(waves.size());
  for (const auto& wave : waves) initials.push_back(model.initial(wave));

  ctmc::TransientSolver local;
  ctmc::TransientSolver& solver = workspace != nullptr ? *workspace : local;
  solver.set_options(options.uniformization);
  solver.prepare(model.graph.chain);

  std::vector<std::vector<double>> curves;
  const std::vector<double> accumulated =
      solver.reward_curve_multi(initials, model.rewards, time_points_hours, curves);

  // Shared-solve diagnostics, replicated per wave (see the header note).
  const double wall = seconds_since(start_time);
  std::vector<CoaCurveEvaluation> results;
  results.reserve(waves.size());
  for (std::size_t b = 0; b < waves.size(); ++b) {
    results.push_back(
        curve_evaluation(time_points_hours, curves[b], accumulated[b], model.graph, solver, wall));
  }
  return results;
}

}  // namespace patchsec::avail
