// Microbenchmarks for the SIMD sparse-kernel layer (linalg::SpmvKernel):
// the scalar CsrMatrix pass vs the compiled SELL-8 kernel and the fused
// uniformization step — on the k=4 and k=6 network generators whose matvec
// chains dominate the transient engine.  run_benchmarks tracks the end-to-end counterparts
// (transient_curve_k6_{warm,simd}, transient_batch8_k6) in
// BENCH_RESULTS.json; this bench isolates the kernel itself.

#include <benchmark/benchmark.h>

#include <vector>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"
#include "patchsec/petri/reachability.hpp"

namespace {

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;
namespace pt = patchsec::petri;

la::CsrMatrix network_generator(unsigned k) {
  const core::Session session(core::Scenario::paper_case_study());
  const av::NetworkSrn net =
      av::build_network_srn(ent::RedundancyDesign{{k, k, k, k}}, session.aggregated_rates());
  return pt::build_reachability_graph(net.model).chain.generator();
}

std::vector<double> uniform_vector(std::size_t n, double value) {
  return std::vector<double>(n, value);
}

// The scalar oracle: CsrMatrix::left_multiply on a dense iterate.
void BM_CsrLeftMultiply(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  const std::vector<double> x = uniform_vector(q.rows(), 1.0 / static_cast<double>(q.rows()));
  std::vector<double> y;
  for (auto _ : state) {
    q.left_multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["nnz"] = static_cast<double>(q.nnz());
}
BENCHMARK(BM_CsrLeftMultiply)->Arg(4)->Arg(6);

// The historical left_multiply body, which skipped zero entries of x, run
// on the SAME dense iterate — so the pair above/below measures exactly what
// dropping the `if (xr == 0.0) continue;` branch bought on the dense
// probability iterates of uniformization (bench/README.md records the
// numbers).
void left_multiply_zero_skip(const la::CsrMatrix& a, const std::vector<double>& x,
                             std::vector<double>& y) {
  y.assign(a.cols(), 0.0);
  const std::vector<std::size_t>& offsets = a.row_offsets();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      y[a.col_indices()[k]] += xr * a.values()[k];
    }
  }
}

void BM_CsrLeftMultiplyZeroSkipDenseInput(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  const std::vector<double> x = uniform_vector(q.rows(), 1.0 / static_cast<double>(q.rows()));
  std::vector<double> y;
  for (auto _ : state) {
    left_multiply_zero_skip(q, x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_CsrLeftMultiplyZeroSkipDenseInput)->Arg(4)->Arg(6);

// The compiled SELL-8 kernel, plain matvec (dispatched ISA).
void BM_SpmvKernelMultiply(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  la::SpmvKernel kernel;
  kernel.compile(q);
  const std::vector<double> x = uniform_vector(q.rows(), 1.0 / static_cast<double>(q.rows()));
  std::vector<double> y(q.cols());
  for (auto _ : state) {
    kernel.left_multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["padding_pct"] = 100.0 * kernel.padding_ratio();
}
BENCHMARK(BM_SpmvKernelMultiply)->Arg(4)->Arg(6);

// The fused uniformization step: matvec + weighted accumulate in one kernel
// call — what TransientSolver::distribution_at issues per expansion term.
void BM_SpmvKernelFusedStep(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  la::SpmvKernel kernel;
  kernel.compile(q);
  const std::size_t n = q.rows();
  const std::vector<double> x = uniform_vector(n, 1.0 / static_cast<double>(n));
  std::vector<double> accum(n, 0.0);
  std::vector<double> y(n);
  for (auto _ : state) {
    kernel.step(x.data(), y.data(), 1e-3, accum.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(accum.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpmvKernelFusedStep)->Arg(4)->Arg(6);

// Structure compile vs value refresh: the workspace contract the transient
// engine leans on across cadence sweeps (same sparsity, new rates).
void BM_SpmvKernelCompile(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    la::SpmvKernel kernel;
    kernel.compile(q);
    benchmark::DoNotOptimize(kernel.nnz());
  }
}
BENCHMARK(BM_SpmvKernelCompile)->Arg(4)->Arg(6);

void BM_SpmvKernelValueRefresh(benchmark::State& state) {
  const la::CsrMatrix q = network_generator(static_cast<unsigned>(state.range(0)));
  la::SpmvKernel kernel;
  kernel.compile(q);
  for (auto _ : state) {
    kernel.compile(q);  // same structure: refresh path, allocation-free
    benchmark::DoNotOptimize(kernel.structure_reuses());
  }
}
BENCHMARK(BM_SpmvKernelValueRefresh)->Arg(4)->Arg(6);

}  // namespace
