// Symmetry-lumping benchmarks: product-form COA evaluation vs the flat joint
// solve, across fleet sizes the flat engine can and cannot reach.  The
// headline numbers are the lumped-vs-flat state-count ratio (51^4 / 204 at
// k = 50, ~33,000x) and the wall-time consequence: the k = 50 lumped
// evaluation costs about what the k = 6 flat evaluation does.
//
// Two claims are ASSERTED on every run, not just printed:
//  * exactness — the lumped COA matches the flat COA at k = 6 to 1e-10 (and
//    the closed form at k = 50 to 1e-9);
//  * the state reduction — flat_states / tangible_states >= 100 at k = 50
//    (the ISSUE acceptance floor).
// A regression in either exits nonzero before the Google Benchmark loops.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "patchsec/avail/lumped_coa.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/enterprise/network.hpp"

namespace {

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;

const std::map<ent::ServerRole, av::AggregatedRates>& rates() {
  static const auto r = [] {
    const core::Session session(core::Scenario::paper_case_study());
    return session.aggregated_rates();
  }();
  return r;
}

ent::RedundancyDesign uniform(unsigned k) { return ent::RedundancyDesign{{k, k, k, k}}; }

// ---- asserted invariants (run from main before the GB loops) ---------------

void assert_exactness_and_reduction() {
  const av::CoaEvaluation flat6 =
      av::capacity_oriented_availability_detailed(uniform(6), rates(), {});
  const av::CoaEvaluation lumped6 =
      av::capacity_oriented_availability_lumped_detailed(uniform(6), rates());
  if (std::abs(flat6.coa - lumped6.coa) > 1e-10) {
    std::fprintf(stderr,
                 "FAIL: lumped COA diverged from flat at k=6: |%.15f - %.15f| = %.3e > 1e-10\n",
                 lumped6.coa, flat6.coa, std::abs(flat6.coa - lumped6.coa));
    std::exit(1);
  }

  const av::CoaEvaluation lumped50 =
      av::capacity_oriented_availability_lumped_detailed(uniform(50), rates());
  const double closed50 = av::coa_closed_form(uniform(50), rates());
  if (std::abs(lumped50.coa - closed50) > 1e-9) {
    std::fprintf(stderr, "FAIL: k=50 lumped COA vs closed form: %.3e > 1e-9\n",
                 std::abs(lumped50.coa - closed50));
    std::exit(1);
  }
  const std::size_t ratio =
      lumped50.diagnostics.flat_states / lumped50.diagnostics.tangible_states;
  if (ratio < 100) {
    std::fprintf(stderr, "FAIL: k=50 state reduction %zu/%zu = %zux < 100x\n",
                 lumped50.diagnostics.flat_states, lumped50.diagnostics.tangible_states, ratio);
    std::exit(1);
  }
  std::printf("=== lumping invariants ===\n");
  std::printf("k=6  lumped vs flat COA   : %.3e (<= 1e-10)\n",
              std::abs(flat6.coa - lumped6.coa));
  std::printf("k=50 lumped vs closed form: %.3e (<= 1e-9)\n",
              std::abs(lumped50.coa - closed50));
  std::printf("k=50 state reduction      : %zu flat / %zu lumped = %zux (>= 100x)\n\n",
              lumped50.diagnostics.flat_states, lumped50.diagnostics.tangible_states, ratio);
}

void print_state_count_scaling() {
  std::printf("=== lumped vs flat state counts ===\n");
  std::printf("%6s %14s %14s %10s\n", "k", "flat states", "lumped states", "ratio");
  for (unsigned k : {2u, 6u, 10u, 25u, 50u}) {
    const av::CoaEvaluation lumped =
        av::capacity_oriented_availability_lumped_detailed(uniform(k), rates());
    std::printf("%6u %14zu %14zu %9.0fx\n", k, lumped.diagnostics.flat_states,
                lumped.diagnostics.tangible_states,
                static_cast<double>(lumped.diagnostics.flat_states) /
                    static_cast<double>(lumped.diagnostics.tangible_states));
  }
  std::printf("\n");
}

// ---- Google Benchmark loops ------------------------------------------------

void BM_FlatEvaluate(benchmark::State& state) {
  const ent::RedundancyDesign design = uniform(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        av::capacity_oriented_availability_detailed(design, rates(), {}));
  }
}
BENCHMARK(BM_FlatEvaluate)->Arg(2)->Arg(4)->Arg(6);

void BM_LumpedEvaluate(benchmark::State& state) {
  const ent::RedundancyDesign design = uniform(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        av::capacity_oriented_availability_lumped_detailed(design, rates()));
  }
}
BENCHMARK(BM_LumpedEvaluate)->Arg(6)->Arg(25)->Arg(50);

void BM_LumpedTransientK50(benchmark::State& state) {
  const ent::RedundancyDesign design = uniform(50);
  std::map<ent::ServerRole, unsigned> wave;
  for (unsigned role = 0; role < ent::kRoleCount; ++role) {
    wave.emplace(static_cast<ent::ServerRole>(role), 5u);
  }
  std::vector<double> grid;
  for (int j = 1; j <= 16; ++j) grid.push_back(24.0 * j / 16.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(av::transient_coa_lumped_detailed(design, rates(), grid, wave));
  }
}
BENCHMARK(BM_LumpedTransientK50);

// Full Session::evaluate with the lumped engine.  Kept at k <= 10: the
// security half of a report enumerates attack paths, whose count grows
// ~k^4 with per-tier replication.  The cap is now configurable
// (EngineOptions::harm_paths) and the Session default truncates at the cap
// with the overflow counted in SecurityMetrics::truncated_paths instead of
// throwing, so larger k no longer *fails* — but the enumeration still walks
// (and counts) every path, so its time keeps growing ~k^4 and would dominate
// this availability-focused bench; the k = 50 availability pipeline is
// benchmarked above without the security half.
void BM_SessionEvaluateLumped(benchmark::State& state) {
  core::EngineOptions engine;
  engine.lumping = true;
  const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
  (void)session.aggregated_rates();  // pre-warm the lower layer
  const ent::RedundancyDesign design = uniform(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.evaluate(design));
  }
}
BENCHMARK(BM_SessionEvaluateLumped)->Arg(6)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  assert_exactness_and_reduction();
  print_state_count_scaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
