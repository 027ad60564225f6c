// The differential validation sweep (ctest label `differential`): >= 50
// generated scenarios, each evaluated through the analytic pipeline AND the
// Monte-Carlo replication oracle, asserting every analytic capacity-oriented
// availability falls inside the simulation's 95% confidence interval.
//
// At 95% coverage a few statistical misses are expected and budgeted
// (allowed_misses, the issue's "<= 2 documented statistical misses at
// z = 1.96"); the run is deterministic for the committed campaign seed, so
// this suite is NOT flaky — a new miss means the analytic pipeline (or the
// simulator) actually changed.  Reproduce any miss from its logged seed:
//
//   differential_runner --repro <scenario_seed>
//
// The CommittedReports tests re-run the three sweeps behind the committed
// docs/validation reports and fail when a report is stale.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "patchsec/testgen/differential_runner.hpp"

namespace tg = patchsec::testgen;

TEST(Differential, FiftyScenariosAgreeWithinConfidence) {
  tg::DifferentialOptions options;  // 50 scenarios, default replication budget
  ASSERT_GE(options.scenarios, 50u);
  ASSERT_LE(options.allowed_misses, 2u);

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  ASSERT_EQ(report.cases.size(), options.scenarios);

  for (const auto& c : report.cases) {
    EXPECT_TRUE(c.analytic_converged) << c.label << " seed=" << c.scenario_seed;
  }
  std::string misses;
  for (const auto& c : report.cases) {
    if (!c.inside_ci) {
      misses += "  seed=" + std::to_string(c.scenario_seed) + " " + c.label + "\n";
    }
  }
  EXPECT_TRUE(report.passed(options.allowed_misses))
      << report.misses << " misses exceed the statistical budget of "
      << options.allowed_misses << ":\n"
      << misses << "reproduce with: differential_runner --repro <seed>";
}

// Degenerate corners must agree too, not just the random bulk: sweep a
// dedicated stream with half the scenarios forced degenerate.  The budget is
// proportionally looser only through the same allowed-misses rule.
TEST(Differential, DegenerateHeavyStreamAgrees) {
  tg::DifferentialOptions options;
  options.scenarios = 24;
  options.allowed_misses = 2;
  options.generator.seed = 77001;
  options.generator.degenerate_fraction = 0.5;

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  std::string misses;
  for (const auto& c : report.cases) {
    if (!c.inside_ci) {
      misses += "  seed=" + std::to_string(c.scenario_seed) + " " + c.label + "\n";
    }
  }
  EXPECT_TRUE(report.passed(options.allowed_misses)) << misses;
}

// ---------- transient mode ---------------------------------------------------

// The transient differential sweep (the acceptance gate of the transient
// engine): 50 generated scenarios, each entering a patch wave (one server
// per deployed role down), the analytic coa(t) curve checked against the
// finite-horizon estimator's simultaneous 95% CI band at every grid point.
// Deterministic for the committed seed, exactly like the steady-state sweep.
TEST(TransientDifferential, FiftyScenariosCurveInsideTheBand) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kTransient;
  options.simulation.replications = 512;
  ASSERT_GE(options.scenarios, 50u);
  ASSERT_LE(options.allowed_misses, 2u);

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  ASSERT_EQ(report.cases.size(), options.scenarios);
  EXPECT_EQ(report.mode, tg::DifferentialMode::kTransient);

  std::string misses;
  for (const auto& c : report.cases) {
    EXPECT_TRUE(c.analytic_converged) << c.label << " seed=" << c.scenario_seed;
    EXPECT_EQ(c.grid_points, options.transient_grid.size());
    if (!c.inside_ci) {
      misses += "  seed=" + std::to_string(c.scenario_seed) + " " + c.label + " (" +
                std::to_string(c.points_outside) + " points outside, worst at " +
                std::to_string(c.worst_point_hours) + "h)\n";
    }
  }
  EXPECT_TRUE(report.passed(options.allowed_misses))
      << report.misses << " transient misses exceed the statistical budget of "
      << options.allowed_misses << ":\n"
      << misses << "reproduce with: differential_runner --transient --repro <seed>";
}

// The whole transient sweep — generation, analytic curves, replicated
// curves, verdicts — must be bit-identical across simulation thread counts.
TEST(TransientDifferential, SweepIsThreadCountInvariant) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kTransient;
  options.scenarios = 12;
  options.simulation.replications = 128;

  options.simulation.threads = 1;
  const tg::DifferentialReport serial = tg::DifferentialRunner(options).run();
  options.simulation.threads = 4;
  const tg::DifferentialReport threaded = tg::DifferentialRunner(options).run();

  ASSERT_EQ(serial.cases.size(), threaded.cases.size());
  EXPECT_EQ(serial.misses, threaded.misses);
  for (std::size_t i = 0; i < serial.cases.size(); ++i) {
    EXPECT_EQ(serial.cases[i].scenario_seed, threaded.cases[i].scenario_seed);
    EXPECT_EQ(serial.cases[i].analytic_coa, threaded.cases[i].analytic_coa) << "i=" << i;
    EXPECT_EQ(serial.cases[i].simulated_coa, threaded.cases[i].simulated_coa) << "i=" << i;
    EXPECT_EQ(serial.cases[i].half_width_95, threaded.cases[i].half_width_95) << "i=" << i;
    EXPECT_EQ(serial.cases[i].inside_ci, threaded.cases[i].inside_ci) << "i=" << i;
    EXPECT_EQ(serial.cases[i].worst_deviation, threaded.cases[i].worst_deviation) << "i=" << i;
  }
}

// Degenerate corners through the transient engine: glacial repair makes the
// curve nearly flat at the dip, saturated capacity blows up the state space,
// single host collapses coa(0) to zero — all must still agree.
TEST(TransientDifferential, DegenerateHeavyStreamAgrees) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kTransient;
  options.scenarios = 24;
  options.allowed_misses = 2;
  options.generator.seed = 77001;
  options.generator.degenerate_fraction = 0.5;
  options.simulation.replications = 512;

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  std::string misses;
  for (const auto& c : report.cases) {
    if (!c.inside_ci) {
      misses += "  seed=" + std::to_string(c.scenario_seed) + " " + c.label + "\n";
    }
  }
  EXPECT_TRUE(report.passed(options.allowed_misses)) << misses;
}

// One logged seed replays the full transient case (scenario, both curves,
// verdict) — the repro contract of docs/TESTING.md extended to the new mode.
TEST(TransientDifferential, RunOneReproducesACaseFromItsSeed) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kTransient;
  options.scenarios = 3;
  options.simulation.replications = 64;

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  ASSERT_EQ(report.cases.size(), 3u);
  const tg::DifferentialCase& original = report.cases[1];
  const tg::DifferentialCase replay =
      tg::DifferentialRunner::run_one(original.scenario_seed, options);
  EXPECT_EQ(replay.scenario_seed, original.scenario_seed);
  EXPECT_EQ(replay.label, original.label);
  EXPECT_EQ(replay.analytic_coa, original.analytic_coa);
  EXPECT_EQ(replay.simulated_coa, original.simulated_coa);
  EXPECT_EQ(replay.half_width_95, original.half_width_95);
  EXPECT_EQ(replay.inside_ci, original.inside_ci);
}

// The transient JSON report carries the mode and the per-case band columns.
TEST(TransientDifferential, JsonCarriesModeAndBandColumns) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kTransient;
  options.scenarios = 2;
  options.simulation.replications = 32;
  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"transient\""), std::string::npos);
  EXPECT_NE(json.find("\"grid_points\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"worst_deviation\""), std::string::npos);

  tg::DifferentialOptions steady;
  steady.scenarios = 1;
  steady.simulation.replications = 8;
  steady.simulation.warmup_hours = 100.0;
  steady.simulation.horizon_hours = 500.0;
  const std::string steady_json = tg::DifferentialRunner(steady).run().to_json();
  EXPECT_NE(steady_json.find("\"mode\": \"steady_state\""), std::string::npos);
  EXPECT_EQ(steady_json.find("\"grid_points\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Three-way (flat / lumped / simulated) mode
// ---------------------------------------------------------------------------

TEST(LumpedDifferential, FiftyScenariosThreeWayAgree) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kLumped;
  ASSERT_GE(options.scenarios, 50u);

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  ASSERT_EQ(report.cases.size(), options.scenarios);
  ASSERT_EQ(report.mode, tg::DifferentialMode::kLumped);

  // The flat-vs-lumped half of the verdict is deterministic and exact: NO
  // miss budget applies to it, only to the statistical sim comparison.
  std::string lumping_bugs;
  for (const auto& c : report.cases) {
    EXPECT_TRUE(c.analytic_converged) << c.label << " seed=" << c.scenario_seed;
    if (!c.lumped_matches_flat) {
      lumping_bugs += "  seed=" + std::to_string(c.scenario_seed) + " " + c.label +
                      " deviation=" + std::to_string(c.flat_lumped_deviation) + "\n";
    }
  }
  EXPECT_TRUE(lumping_bugs.empty())
      << "lumped COA diverged from the flat COA (exactness violation, not "
         "statistics):\n"
      << lumping_bugs;
  EXPECT_TRUE(report.passed(options.allowed_misses))
      << report.misses << " misses exceed the statistical budget of " << options.allowed_misses;
}

TEST(LumpedDifferential, JsonCarriesThreeWayColumns) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kLumped;
  options.scenarios = 3;
  options.simulation.replications = 8;
  options.simulation.warmup_hours = 500.0;
  options.simulation.horizon_hours = 4000.0;

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"lumped\""), std::string::npos);
  EXPECT_NE(json.find("\"lumped_coa\""), std::string::npos);
  EXPECT_NE(json.find("\"flat_lumped_deviation\""), std::string::npos);
  EXPECT_NE(json.find("\"lumped_matches_flat\""), std::string::npos);
}

TEST(LumpedDifferential, RunOneReproducesACaseFromItsSeed) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kLumped;
  options.scenarios = 2;
  options.simulation.replications = 8;
  options.simulation.warmup_hours = 500.0;
  options.simulation.horizon_hours = 4000.0;

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  ASSERT_FALSE(report.cases.empty());
  const tg::DifferentialCase& original = report.cases.front();
  const tg::DifferentialCase replay =
      tg::DifferentialRunner::run_one(original.scenario_seed, options);
  EXPECT_EQ(replay.label, original.label);
  EXPECT_DOUBLE_EQ(replay.analytic_coa, original.analytic_coa);
  EXPECT_DOUBLE_EQ(replay.lumped_coa, original.lumped_coa);
  EXPECT_DOUBLE_EQ(replay.simulated_coa, original.simulated_coa);
  EXPECT_EQ(replay.inside_ci, original.inside_ci);
}

// ---------------------------------------------------------------------------
// The committed reports (docs/validation/*.json)
// ---------------------------------------------------------------------------

namespace {

/// The text after `"key": ` in `text` (first occurrence at or after `from`),
/// up to the next ',' or '}'; empty when absent.
std::string json_field(const std::string& text, const std::string& key, std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + needle.size();
  return text.substr(begin, text.find_first_of(",}", begin) - begin);
}

/// Re-runs the sweep the committed report `file` records (the options its
/// regeneration command in docs/validation/README.md uses) and checks the
/// file still matches it: schema version, seed list, verdicts and analytic
/// COA.  A stale schema or a moved number means the file was not
/// regenerated with the change that moved it.
void expect_committed_report_current(const std::string& file, tg::DifferentialOptions options) {
  const std::string path = std::string(PATCHSEC_SOURCE_DIR) + "/docs/validation/" + file;
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing committed report: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string committed = buffer.str();

  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  EXPECT_EQ(json_field(committed, "schema_version"),
            json_field(report.to_json(), "schema_version"));

  std::istringstream lines(committed);
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"scenario_seed\"") == std::string::npos) continue;
    ASSERT_LT(i, report.cases.size()) << "committed report has extra cases";
    const tg::DifferentialCase& c = report.cases[i++];
    EXPECT_EQ(std::stoull(json_field(line, "scenario_seed")), c.scenario_seed) << "case " << i;
    EXPECT_EQ(json_field(line, "inside_ci"), c.inside_ci ? "true" : "false") << c.label;
    EXPECT_NEAR(std::stod(json_field(line, "analytic_coa")), c.analytic_coa, 1e-10) << c.label;
  }
  EXPECT_EQ(i, report.cases.size()) << "committed report is missing cases";
}

}  // namespace

TEST(CommittedReports, SteadyStateSweepIsCurrent) {
  expect_committed_report_current("differential_steady_50.json", {});
}

TEST(CommittedReports, TransientSweepIsCurrent) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kTransient;
  options.simulation.replications = 512;  // the runner's --transient default
  expect_committed_report_current("differential_transient_50.json", options);
}

TEST(CommittedReports, LumpedSweepIsCurrent) {
  tg::DifferentialOptions options;
  options.mode = tg::DifferentialMode::kLumped;
  expect_committed_report_current("differential_lumped_50.json", options);
}
