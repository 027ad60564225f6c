// Microbenchmarks for the allocation-free solver core: CSR transpose, CTMC
// generator assembly, steady-state solves (cold workspace vs warm reuse) and
// reachability exploration.  These are the building blocks whose constant
// factors dominate the Session evaluation loop; bench_ablation_scale measures
// the same pipeline end to end.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/linalg/stationary_solver.hpp"
#include "patchsec/petri/reachability.hpp"

namespace {

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;
namespace pt = patchsec::petri;

av::NetworkSrn network_srn(unsigned k) {
  const core::Session session(core::Scenario::paper_case_study());
  return av::build_network_srn(ent::RedundancyDesign{{k, k, k, k}}, session.aggregated_rates());
}

la::CsrMatrix network_generator(unsigned k) {
  return pt::build_reachability_graph(network_srn(k).model).chain.generator();
}

void BM_CsrTranspose(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(q.transposed());
  state.counters["nnz"] = static_cast<double>(q.nnz());
}
BENCHMARK(BM_CsrTranspose)->Arg(4)->Arg(6);

void BM_CtmcGeneratorAssembly(benchmark::State& state) {
  const pt::ReachabilityGraph g =
      pt::build_reachability_graph(network_srn(static_cast<unsigned>(state.range(0))).model);
  for (auto _ : state) benchmark::DoNotOptimize(g.chain.generator());
  state.counters["transitions"] = static_cast<double>(g.chain.transitions().size());
}
BENCHMARK(BM_CtmcGeneratorAssembly)->Arg(4)->Arg(6);

void BM_SteadyStateCold(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(la::StationarySolver().solve(q));
}
BENCHMARK(BM_SteadyStateCold)->Arg(4)->Arg(6);

void BM_SteadyStateWarmWorkspace(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  la::StationarySolver workspace;
  benchmark::DoNotOptimize(workspace.solve(q));  // prime the structure cache
  for (auto _ : state) benchmark::DoNotOptimize(workspace.solve(q));
  state.counters["rebuilds"] = static_cast<double>(workspace.transpose_rebuilds());
}
BENCHMARK(BM_SteadyStateWarmWorkspace)->Arg(4)->Arg(6);

void BM_ReachabilityExploration(benchmark::State& state) {
  const av::NetworkSrn net = network_srn(static_cast<unsigned>(state.range(0)));
  std::size_t states = 0;
  for (auto _ : state) {
    const pt::ReachabilityGraph g = pt::build_reachability_graph(net.model);
    states = g.tangible_count();
    benchmark::DoNotOptimize(states);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_ReachabilityExploration)->Arg(4)->Arg(6);

void BM_ServerSrnAnalysis(benchmark::State& state) {
  // Lower-layer server SRN end to end: build + explore + solve, one role.
  const core::Scenario scenario = core::Scenario::paper_case_study();
  const ent::ServerSpec& spec = scenario.specs().begin()->second;
  for (auto _ : state) {
    const av::ServerAggregation agg =
        av::aggregate_server_detailed(spec, av::ServerSrnOptions{}, pt::AnalyzerOptions{});
    benchmark::DoNotOptimize(agg);
  }
}
BENCHMARK(BM_ServerSrnAnalysis);

}  // namespace

int main(int argc, char** argv) {
  std::printf("solver-core microbenchmarks (see run_benchmarks for the JSON-emitting driver)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
