// Patch window: what an operator sees DURING patch day — the transient
// coa(t) curve of each candidate design after a patch wave takes one server
// per tier down, computed by Session::evaluate_transient (uniformization on
// the upper-layer CTMC).  The steady-state numbers of the paper average this
// dip away; the curve shows its depth, its healing time scale, and the
// capacity lost per wave, which is what a maintenance-window SLA is written
// against.
//
// Usage: patch_window [horizon_hours]   (default 12)

#include <cstdio>
#include <cstdlib>
#include <map>

#include "patchsec/core/session.hpp"
#include "patchsec/enterprise/network.hpp"

namespace core = patchsec::core;
namespace ent = patchsec::enterprise;

int main(int argc, char** argv) {
  double horizon = 12.0;
  if (argc == 2) {
    horizon = std::atof(argv[1]);
    if (!(horizon > 0.0)) {
      std::fprintf(stderr, "horizon must be positive\n");
      return 1;
    }
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [horizon_hours]\n", argv[0]);
    return 1;
  }

  // The patch wave: one server of every tier enters its window at t = 0.
  core::EngineOptions engine;
  engine.time_points = {0.0,           horizon / 12.0,      horizon / 6.0, horizon / 3.0,
                        horizon / 2.0, horizon * 2.0 / 3.0, horizon};
  const std::map<ent::ServerRole, unsigned> wave{{ent::ServerRole::kDns, 1},
                                                 {ent::ServerRole::kWeb, 1},
                                                 {ent::ServerRole::kApp, 1},
                                                 {ent::ServerRole::kDb, 1}};
  const core::Session session(core::Scenario::paper_case_study().with_engine(engine));

  std::printf("COA(t) after a patch wave (one server per tier down at t=0)\n\n");
  std::printf("%-28s", "design \\ t (h)");
  for (double t : engine.time_points) std::printf(" %8.2f", t);
  std::printf(" %10s %9s\n", "avg COA", "lost s-h");

  for (const ent::RedundancyDesign& design : session.scenario().designs()) {
    const core::EvalReport report = session.evaluate_transient(design, wave);
    const core::EvalReport steady = session.evaluate(design);
    std::printf("%-28s", design.name().c_str());
    for (double coa : report.transient.coa) std::printf(" %8.4f", coa);
    // Capacity shortfall of the wave vs running at steady state, in
    // server-fraction hours over the window.
    const double lost = steady.coa * horizon - report.transient.accumulated_coa_hours;
    std::printf(" %10.5f %9.4f\n", report.coa, lost);
  }

  std::printf(
      "\nReading: designs without redundancy serve NOTHING at t=0 (every tier has its\n"
      "only server down); redundant tiers keep the dip shallow and heal on the\n"
      "service-recovery time scale (~1 h).  'avg COA' is the window-averaged\n"
      "coa(t) the transient engine reports; 'lost s-h' the capacity shortfall of\n"
      "one wave.  The same curves are cross-checked against finite-horizon\n"
      "Monte-Carlo replications by the transient differential harness\n"
      "(differential_runner --transient).\n");
  return 0;
}
