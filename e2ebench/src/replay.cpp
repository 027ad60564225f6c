// The traced run's layer-by-layer replay.  Nothing inside src/ is
// instrumented: each solved key is evaluated once on a bench-owned Session
// (the "core.evaluate" span) and then replayed through the public functions
// Session calls, in Session's order, with one span per call.  Where a stage
// cannot be split from outside, its span covers the whole call:
//   avail.aggregation  aggregate_server_detailed (server SRN build,
//                      reachability, generator, steady solve, rewards);
//   ctmc.generator     on the transient path, TransientSolver::prepare
//                      (generator plus the uniformized matrix).
// Every replayed result is compared bit for bit with the Session's.

#include "bench.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/enterprise/network.hpp"

namespace e2e {

namespace {

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

}  // namespace

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent, std::uint64_t op) {
  spans_.push_back(Span{name, ns_since(epoch_), 0, parent, op});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t id) { spans_[id].end_ns = ns_since(epoch_); }

double Tracer::total_ms(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

double Tracer::leaf_ms_under(std::string_view subtree) const {
  // Parents precede children, so one forward pass marks subtree membership
  // and one backward pass finds the leaves.
  std::vector<char> inside(spans_.size(), 0);
  std::vector<char> has_child(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint32_t p = spans_[i].parent;
    if (p == kNoParent) continue;
    has_child[p] = 1;
    inside[i] = inside[p] || subtree == spans_[p].name;
  }
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (inside[i] && !has_child[i]) ns += spans_[i].end_ns - spans_[i].start_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

Replayer::Replayer(core::Scenario scenario, Tracer& tracer)
    : scenario_(scenario), session_(std::move(scenario)), tracer_(tracer) {}

const std::map<enterprise::ServerRole, patchsec::avail::AggregatedRates>& Replayer::lower_layer(
    std::uint64_t op, std::uint32_t parent, double cadence) {
  const auto found = rates_.find(cadence);
  if (found != rates_.end()) return found->second;
  const core::EngineOptions& engine = scenario_.engine();
  patchsec::avail::ServerSrnOptions srn_options;
  srn_options.patch_interval_hours = cadence;
  const patchsec::petri::AnalyzerOptions analyzer = engine.analyzer_options();
  std::map<enterprise::ServerRole, patchsec::avail::AggregatedRates> rates;
  for (const auto& [role, spec] : scenario_.specs()) {
    if (engine.verify != core::VerifyMode::kOff) {
      tracer_.span("petri.verify", parent, op, [&] {
        return patchsec::petri::verify_model(
            patchsec::avail::build_server_srn(spec, srn_options).model, engine.verify_options);
      });
    }
    const patchsec::avail::ServerAggregation server =
        tracer_.span("avail.aggregation", parent, op, [&] {
          return patchsec::avail::aggregate_server_detailed(spec, srn_options, analyzer,
                                                            &aggregation_ws_);
        });
    counts_.steady_iterations += server.diagnostics.solver_iterations;
    rates.emplace(role, server.rates);
  }
  return rates_.emplace(cadence, std::move(rates)).first->second;
}

void Replayer::security(std::uint64_t op, std::uint32_t parent,
                        const enterprise::RedundancyDesign& design) {
  if (!designs_seen_.insert(design.counts).second) return;
  ++counts_.new_designs;
  const patchsec::harm::PathEnumerationOptions& paths = scenario_.engine().harm_paths;
  const patchsec::harm::Harm before = tracer_.span("harm.build", parent, op, [&] {
    return enterprise::NetworkModel(design, scenario_.specs(), scenario_.policy()).build_harm();
  });
  const patchsec::harm::SecurityMetrics metrics =
      tracer_.span("harm.evaluate", parent, op, [&] { return before.evaluate(paths); });
  const patchsec::harm::Harm after =
      tracer_.span("harm.build", parent, op, [&] { return before.after_critical_patch(); });
  (void)tracer_.span("harm.evaluate", parent, op, [&] { return after.evaluate(paths); });
  counts_.attack_paths += metrics.attack_paths;
  counts_.truncated_paths += metrics.truncated_paths;
}

void Replayer::verify_network(
    std::uint64_t op, std::uint32_t parent, const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, patchsec::avail::AggregatedRates>& rates) {
  const core::EngineOptions& engine = scenario_.engine();
  if (engine.verify == core::VerifyMode::kOff) return;
  const patchsec::avail::NetworkSrn net = tracer_.span(
      "avail.network_build", parent, op,
      [&] { return patchsec::avail::build_network_srn(design, rates); });
  tracer_.span("petri.verify", parent, op, [&] {
    std::vector<std::pair<std::string, patchsec::petri::RewardFunction>> rewards;
    rewards.emplace_back("coa", net.coa_reward());
    return patchsec::petri::verify_model(net.model, rewards, engine.verify_options);
  });
}

void Replayer::steady(std::uint64_t op, const enterprise::RedundancyDesign& design,
                      double cadence) {
  ++counts_.keys;
  const std::uint32_t root = tracer_.begin("op", Tracer::kNoParent, op);
  const core::EvalReport report =
      tracer_.span("core.evaluate", root, op, [&] { return session_.evaluate(design, cadence); });

  const std::uint32_t replay = tracer_.begin("replay", root, op);
  const auto& rates = lower_layer(op, replay, cadence);
  security(op, replay, design);
  verify_network(op, replay, design, rates);
  const patchsec::petri::AnalyzerOptions analyzer = scenario_.engine().analyzer_options();
  const std::uint32_t stage = tracer_.begin("avail.coa", replay, op);
  const patchsec::avail::NetworkSrn net = tracer_.span(
      "avail.network_build", stage, op,
      [&] { return patchsec::avail::build_network_srn(design, rates); });
  const patchsec::petri::ReachabilityGraph graph =
      tracer_.span("petri.reachability", stage, op, [&] {
        return patchsec::petri::build_reachability_graph(net.model, analyzer.reachability);
      });
  const patchsec::linalg::CsrMatrix q =
      tracer_.span("ctmc.generator", stage, op, [&] { return graph.chain.generator(); });
  const patchsec::linalg::SteadyStateResult ss = tracer_.span(
      "linalg.steady_solve", stage, op,
      [&] { return availability_ws_.solve(q, analyzer.steady_state); });
  const double coa = tracer_.span("avail.reward", stage, op, [&] {
    // SrnAnalyzer::expected_reward's loop, in its order.
    const patchsec::petri::RewardFunction reward = net.coa_reward();
    double acc = 0.0;
    for (std::size_t i = 0; i < graph.tangible_count(); ++i) {
      acc += ss.distribution[i] * reward(graph.tangible_markings[i]);
    }
    return acc;
  });
  tracer_.end(stage);
  counts_.tangible_states += graph.tangible_count();
  counts_.steady_iterations += ss.iterations;
  tracer_.end(replay);
  tracer_.end(root);
  if (!same_bits(coa, report.coa)) ++counts_.mismatches;
}

void Replayer::transient(std::uint64_t op, const enterprise::RedundancyDesign& design,
                         const std::vector<Wave>& waves, double cadence) {
  ++counts_.keys;
  const core::EngineOptions& engine = scenario_.engine();
  const std::vector<double> grid = engine.transient_grid();
  const std::uint32_t root = tracer_.begin("op", Tracer::kNoParent, op);
  const std::vector<core::EvalReport> reports = tracer_.span("core.evaluate", root, op, [&] {
    return session_.evaluate_transient_batch(design, waves, cadence);
  });

  const std::uint32_t replay = tracer_.begin("replay", root, op);
  const auto& rates = lower_layer(op, replay, cadence);
  security(op, replay, design);

  const std::uint32_t stage = tracer_.begin("avail.transient_batch", replay, op);
  const patchsec::avail::NetworkSrn net = tracer_.span(
      "avail.network_build", stage, op,
      [&] { return patchsec::avail::build_network_srn(design, rates); });
  const patchsec::petri::ReachabilityGraph graph =
      tracer_.span("petri.reachability", stage, op, [&] {
        return patchsec::petri::build_reachability_graph(net.model, engine.reachability);
      });
  std::vector<double> rewards;
  std::vector<std::vector<double>> initials(waves.size());
  tracer_.span("avail.reward", stage, op, [&] {
    const patchsec::petri::RewardFunction reward = net.coa_reward();
    rewards.reserve(graph.tangible_count());
    for (const patchsec::petri::Marking& m : graph.tangible_markings) rewards.push_back(reward(m));
    for (std::size_t b = 0; b < waves.size(); ++b) {
      initials[b].assign(graph.tangible_count(), 0.0);
      initials[b][graph.index_of(patchsec::avail::patch_window_marking(net, waves[b]))] = 1.0;
    }
  });
  tracer_.span("ctmc.generator", stage, op, [&] {
    transient_ws_.set_options(engine.uniformization);
    transient_ws_.prepare(graph.chain);
  });
  std::vector<std::vector<double>> curves;
  const std::vector<double> accumulated = tracer_.span("ctmc.uniformization", stage, op, [&] {
    return transient_ws_.reward_curve_multi(initials, rewards, grid, curves);
  });
  tracer_.end(stage);
  verify_network(op, replay, design, rates);
  tracer_.end(replay);
  tracer_.end(root);

  const patchsec::ctmc::TransientDiagnostics& diag = transient_ws_.diagnostics();
  const std::size_t nnz = graph.chain.generator().nnz();
  const std::size_t n = graph.tangible_count();
  // Per sweep: every stored entry once (8-byte value + 4-byte column index)
  // plus the panel read and written once (8 bytes per state and column).
  counts_.spmv_bytes += static_cast<double>(diag.matvec_count) *
                        (12.0 * static_cast<double>(nnz) +
                         16.0 * static_cast<double>(n) * static_cast<double>(waves.size()));
  counts_.matvecs += diag.matvec_count;
  counts_.panels += 1;
  counts_.rhs += waves.size();
  counts_.tangible_states += n;
  for (std::size_t b = 0; b < waves.size(); ++b) {
    bool same = same_bits(accumulated[b], reports[b].transient.accumulated_coa_hours) &&
                curves[b].size() == reports[b].transient.coa.size();
    for (std::size_t j = 0; same && j < curves[b].size(); ++j) {
      same = same_bits(curves[b][j], reports[b].transient.coa[j]);
    }
    if (!same) ++counts_.mismatches;
  }
}

}  // namespace e2e
