// Capacity planner: the "everything together" example — for each candidate
// redundancy design, report COA, user-visible response time under load
// (performability), the patch-day capacity dip, which server to patch first
// (HARM criticality ranking) and the annual cost, then recommend a design.

#include <cstdio>
#include <limits>

#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/core/economics.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/harm/extended_metrics.hpp"
#include "patchsec/perf/performability.hpp"

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace hm = patchsec::harm;
namespace pf = patchsec::perf;

int main() {
  const core::Session session(core::Scenario::paper_case_study());
  const auto evals = session.evaluate_all();

  // Client load: 10 req/s; per-server capacities per tier (req/h).
  pf::Workload workload;
  workload.arrival_rate = 10.0 * 3600.0;
  workload.service_rate = {{ent::ServerRole::kDns, 100.0 * 3600.0},
                           {ent::ServerRole::kWeb, 25.0 * 3600.0},
                           {ent::ServerRole::kApp, 15.0 * 3600.0},
                           {ent::ServerRole::kDb, 30.0 * 3600.0}};

  const core::CostModel costs{.server_cost_per_year = 8000.0,
                              .downtime_cost_per_hour = 20000.0,
                              .breach_cost = 500000.0,
                              .annual_attack_probability = 0.3,
                              .patch_labor_cost = 150.0,
                              .patches_per_year = 12.0};

  std::printf("%-30s %9s %12s %11s %12s\n", "design", "COA", "resp (ms)", "ASP after",
              "cost/year");
  const core::EvalReport* recommended = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& e : evals) {
    const pf::PerformabilityResult perf =
        pf::evaluate_performability(e.design, session.aggregated_rates(), workload);
    const double annual = core::annual_cost(e, costs).total();
    std::printf("%-30s %9.5f %12.3f %11.4f %12.0f\n", e.design.name().c_str(), e.coa,
                perf.mean_response_time * 3.6e6, e.after_patch.attack_success_probability,
                annual);
    if (annual < best_cost) {
      best_cost = annual;
      recommended = &e;
    }
  }

  std::printf("\nRecommended (lowest annual cost): %s\n\n", recommended->design.name().c_str());

  // Patch-day dip of the recommended design when one app server patches.
  const std::map<ent::ServerRole, unsigned> one_app{{ent::ServerRole::kApp, 1}};
  const av::CoaCurveEvaluation dip = av::transient_coa_detailed(
      recommended->design, session.aggregated_rates(), {0.0, 0.5, 1.0, 2.0, 4.0}, one_app);
  std::printf("Patch-day capacity (one app server in its window):\n");
  for (const auto& p : dip.curve) std::printf("  t=%4.1f h  COA=%.4f\n", p.hours, p.coa);

  // Which server should be patched first?  Risk-reduction ranking on the
  // before-patch HARM.
  const hm::Harm before = ent::paper_network(recommended->design).build_harm();
  std::printf("\nPatch priority (before-patch risk reduction per server):\n");
  for (const auto& c : hm::rank_node_criticality(before)) {
    std::printf("  %-8s paths through: %4.0f%%   risk reduction: %6.1f\n", c.name.c_str(),
                c.path_fraction * 100.0, c.risk_reduction);
  }
  return 0;
}
