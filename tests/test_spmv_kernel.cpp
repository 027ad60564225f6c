// Tests for the SIMD sparse-kernel layer (linalg::SpmvKernel) and its
// TransientSolver integration: scalar-oracle agreement (CsrMatrix::
// left_multiply is the reference, per docs/ARCHITECTURE.md §12) on paper
// nets and seeded random matrices, fused-step semantics and their
// independence of buffer alignment, the structure-reuse contract, and the
// one-pass curve route against the forward-stepped reference of
// transient_reference.hpp — including the bit-identity of a curve column
// across panel widths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"
#include "patchsec/petri/reachability.hpp"
#include "transient_reference.hpp"

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ct = patchsec::ctmc;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;

namespace {

// Documented agreement bound of the SIMD paths against the scalar oracle:
// identical per-row accumulation order, but the SIMD lanes use explicit FMA
// (and a lane-wise association for reductions), so results differ by
// round-off only.
constexpr double kEps = 1e-13;

void expect_near_rel(const std::vector<double>& got, const std::vector<double>& want,
                     double eps, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(1.0, std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], eps * scale) << what << " index " << i;
  }
}

const std::map<ent::ServerRole, av::AggregatedRates>& rates() {
  static const auto r = [] {
    std::map<ent::ServerRole, av::AggregatedRates> out;
    for (const auto& [role, spec] : ent::paper_server_specs()) {
      out.emplace(role, av::aggregate_server(spec));
    }
    return out;
  }();
  return r;
}

/// Upper-layer generator of a paper design (the matrix the uniformization
/// hot path actually sweeps).
la::CsrMatrix paper_generator(const ent::RedundancyDesign& design) {
  const av::NetworkSrn net = av::build_network_srn(design, rates());
  const auto graph = patchsec::petri::build_reachability_graph(net.model);
  return graph.chain.generator();
}

/// Seeded random CSR with a given per-row density profile; `dense_row` and
/// `empty_row` force the ragged edge cases the SELL padding must absorb.
la::CsrMatrix random_csr(std::size_t n, double density, std::uint32_t seed,
                         bool dense_row = false, bool empty_row = false) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<la::Triplet> entries;
  for (std::size_t r = 0; r < n; ++r) {
    if (empty_row && r == n / 2) continue;
    const bool dense = dense_row && r == n / 3;
    for (std::size_t c = 0; c < n; ++c) {
      if (dense || coin(rng) < density) entries.push_back({r, c, value(rng)});
    }
  }
  return la::CsrMatrix(n, n, std::move(entries));
}

std::vector<double> random_vector(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<double> x(n);
  for (double& v : x) v = value(rng);
  return x;
}

void expect_kernel_matches_oracle(const la::CsrMatrix& a, std::uint32_t seed) {
  la::SpmvKernel kernel;
  kernel.compile(a);
  EXPECT_GE(kernel.padding_ratio(), 1.0);
  const std::vector<double> x = random_vector(a.rows(), seed);
  std::vector<double> want;
  std::vector<double> got;
  a.left_multiply(x, want);
  kernel.left_multiply(x, got);
  expect_near_rel(got, want, kEps, "kernel vs CsrMatrix::left_multiply");
}

ct::Ctmc up_down(double l, double mu) {
  ct::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, l);
  c.add_transition(1, 0, mu);
  return c;
}

/// A birth-death chain big enough that the SIMD lanes see multiple chunks.
ct::Ctmc birth_death(std::size_t n, double up, double down) {
  ct::Ctmc c;
  c.add_states(n);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    c.add_transition(s, s + 1, up * static_cast<double>(n - s));
    c.add_transition(s + 1, s, down * static_cast<double>(s + 1));
  }
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar-oracle agreement
// ---------------------------------------------------------------------------

TEST(SpmvKernel, MatchesOracleOnPaperNets) {
  expect_kernel_matches_oracle(paper_generator(ent::example_network_design()), 11);
  expect_kernel_matches_oracle(paper_generator(ent::RedundancyDesign{{1, 1, 1, 1}}), 12);
  expect_kernel_matches_oracle(paper_generator(ent::RedundancyDesign{{1, 1, 2, 1}}), 13);
  expect_kernel_matches_oracle(paper_generator(ent::RedundancyDesign{{2, 2, 2, 2}}), 14);
}

TEST(SpmvKernel, MatchesOracleOnSeededRandomMatrices) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    expect_kernel_matches_oracle(random_csr(64 + seed * 7, 0.08, seed), seed * 100);
  }
}

TEST(SpmvKernel, HandlesEmptyAndDenseRows) {
  expect_kernel_matches_oracle(random_csr(50, 0.1, 42, /*dense_row=*/true), 1);
  expect_kernel_matches_oracle(random_csr(50, 0.1, 43, false, /*empty_row=*/true), 2);
  expect_kernel_matches_oracle(random_csr(50, 0.1, 44, true, true), 3);
}

TEST(SpmvKernel, OneStateMatrix) {
  la::CsrMatrix a(1, 1, {{0, 0, 0.5}});
  la::SpmvKernel kernel;
  kernel.compile(a);
  std::vector<double> y;
  kernel.left_multiply({3.0}, y);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
}

TEST(SpmvKernel, NonSquareShapes) {
  // 3x9 and 9x3: the transpose/SELL bookkeeping must keep the two extents
  // straight (x spans rows, y spans cols).
  for (std::uint32_t seed : {7u, 8u}) {
    const std::size_t rows = seed == 7 ? 3 : 9;
    const std::size_t cols = seed == 7 ? 9 : 3;
    std::vector<la::Triplet> entries;
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> value(0.5, 1.5);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = r % 2; c < cols; c += 2) entries.push_back({r, c, value(rng)});
    }
    const la::CsrMatrix a(rows, cols, std::move(entries));
    la::SpmvKernel kernel;
    kernel.compile(a);
    const std::vector<double> x = random_vector(rows, seed);
    std::vector<double> want;
    std::vector<double> got;
    a.left_multiply(x, want);
    kernel.left_multiply(x, got);
    expect_near_rel(got, want, kEps, "non-square");
  }
}

// ---------------------------------------------------------------------------
// Fused step semantics
// ---------------------------------------------------------------------------

TEST(SpmvKernel, FusedStepMatchesUnfusedPieces) {
  const la::CsrMatrix a = random_csr(60, 0.1, 5);
  la::SpmvKernel kernel;
  kernel.compile(a);
  const std::vector<double> x = random_vector(60, 6);
  std::vector<double> accum = random_vector(60, 8);
  std::vector<double> accum_ref = accum;
  const double weight = 0.37;

  std::vector<double> y(60);
  kernel.step(x.data(), y.data(), weight, accum.data());

  std::vector<double> y_ref;
  a.left_multiply(x, y_ref);
  for (std::size_t i = 0; i < x.size(); ++i) accum_ref[i] += weight * x[i];
  expect_near_rel(y, y_ref, kEps, "fused matvec");
  expect_near_rel(accum, accum_ref, kEps, "fused accumulate");

  // reduce() = the same step without the matvec; weight 0 must leave accum
  // bitwise untouched (the below-window terms of the expansion).
  std::vector<double> accum2 = accum;
  kernel.reduce(x.data(), 0.0, accum2.data());
  for (std::size_t i = 0; i < accum.size(); ++i) EXPECT_EQ(accum2[i], accum[i]) << i;
}

TEST(SpmvKernel, FusedStepNullArguments) {
  const la::CsrMatrix a = random_csr(30, 0.2, 9);
  la::SpmvKernel kernel;
  kernel.compile(a);
  const std::vector<double> x = random_vector(30, 10);
  std::vector<double> y(30);
  // No accumulator: a plain matvec.
  kernel.step(x.data(), y.data(), 0.5, nullptr);
  std::vector<double> want;
  a.left_multiply(x, want);
  expect_near_rel(y, want, kEps, "step without fusion arguments");
}

TEST(SpmvKernel, FusedReduceDoesNotDependOnAlignment) {
  // n = 8q + 7 leaves a 7-element tail behind the AVX-512 body (3 behind
  // the AVX2 one).  The same inputs at two alignments, one shifted by a
  // double, must give bitwise-equal accumulators.
  constexpr std::size_t n = 8 * 5 + 7;
  la::SpmvKernel kernel;
  kernel.compile(random_csr(n, 0.1, 71));
  const std::vector<double> x0 = random_vector(n, 72);
  const std::vector<double> accum0 = random_vector(n, 74);
  const double weight = 0.37;

  std::vector<double> accums[2];
  for (std::size_t shift = 0; shift < 2; ++shift) {
    std::vector<double> x(n + 1);
    std::vector<double> accum(n + 1);
    std::copy(x0.begin(), x0.end(), x.begin() + static_cast<std::ptrdiff_t>(shift));
    std::copy(accum0.begin(), accum0.end(), accum.begin() + static_cast<std::ptrdiff_t>(shift));
    kernel.reduce(x.data() + shift, weight, accum.data() + shift);
    accums[shift].assign(accum.begin() + static_cast<std::ptrdiff_t>(shift),
                         accum.begin() + static_cast<std::ptrdiff_t>(shift + n));
  }
  EXPECT_EQ(accums[0], accums[1]);

  // The SIMD paths apply one fma per element, in the vector body and the
  // tail alike (the portable scalar pass leaves contraction to the
  // compiler, so it is held only to the alignment check above).
  if (kernel.isa() != la::SpmvIsa::kScalar) {
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_EQ(accums[0][s], std::fma(weight, x0[s], accum0[s])) << "s=" << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Structure-reuse contract
// ---------------------------------------------------------------------------

TEST(SpmvKernel, StructureReuseRefreshesValuesWithoutRebuild) {
  la::CsrMatrix a = random_csr(48, 0.12, 51);
  la::SpmvKernel kernel;
  kernel.compile(a);
  EXPECT_EQ(kernel.structure_builds(), 1u);
  EXPECT_EQ(kernel.structure_reuses(), 0u);

  // Same sparsity, scaled values: the refresh path must serve it — and the
  // refreshed kernel must compute with the NEW values.
  std::vector<double> scaled = a.values();
  for (double& v : scaled) v *= 3.0;
  const la::CsrMatrix b = la::CsrMatrix::from_sorted(
      a.rows(), a.cols(), a.row_offsets(), a.col_indices(), std::move(scaled));
  kernel.compile(b);
  EXPECT_EQ(kernel.structure_builds(), 1u);
  EXPECT_EQ(kernel.structure_reuses(), 1u);

  const std::vector<double> x = random_vector(48, 52);
  std::vector<double> want;
  std::vector<double> got;
  b.left_multiply(x, want);
  kernel.left_multiply(x, got);
  expect_near_rel(got, want, kEps, "refreshed values");

  // A different sparsity pattern forces a rebuild.
  kernel.compile(random_csr(48, 0.2, 53));
  EXPECT_EQ(kernel.structure_builds(), 2u);
  EXPECT_EQ(kernel.structure_reuses(), 1u);
}

TEST(SpmvKernel, ErrorsOnMisuse) {
  la::SpmvKernel kernel;
  std::vector<double> y;
  EXPECT_THROW(kernel.left_multiply({1.0}, y), std::logic_error);
  EXPECT_THROW(kernel.compile(la::CsrMatrix()), std::invalid_argument);
  kernel.compile(random_csr(10, 0.3, 61));
  EXPECT_THROW(kernel.left_multiply(std::vector<double>(9, 0.0), y), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TransientSolver integration: the one-pass route vs the forward-stepped
// reference (transient_reference.hpp)
// ---------------------------------------------------------------------------

TEST(SpmvKernelTransient, AutoKernelMatchesScalarReference) {
  for (const ct::Ctmc& chain : {up_down(0.8, 2.5), birth_death(53, 0.4, 1.1)}) {
    const std::size_t n = chain.state_count();
    std::vector<double> initial(n, 0.0);
    initial[0] = 1.0;
    std::vector<double> rewards(n);
    for (std::size_t s = 0; s < n; ++s) rewards[s] = static_cast<double>(s) / double(n);
    const std::vector<double> grid{0.1, 0.5, 1.0, 2.0, 5.0};

    patchsec::test::ReferenceTransient scalar_solver;
    scalar_solver.prepare(chain);
    std::vector<double> scalar_curve;
    const double scalar_acc = scalar_solver.reward_curve(initial, rewards, grid, scalar_curve);

    ct::TransientSolver auto_solver;
    auto_solver.prepare(chain);
    std::vector<double> auto_curve;
    const double auto_acc = auto_solver.reward_curve(initial, rewards, grid, auto_curve);
    EXPECT_EQ(auto_solver.diagnostics().kernel,
              la::spmv_isa_name(la::spmv_dispatched_isa()));
    EXPECT_EQ(auto_solver.diagnostics().rhs_count, 1u);
    // One backward series to the right truncation point of Lambda * t_last
    // serves the whole grid; the forward reference restarts a Poisson window
    // per grid segment, so it sweeps more.
    EXPECT_EQ(auto_solver.diagnostics().matvec_count, auto_solver.diagnostics().right_point);
    EXPECT_LT(auto_solver.diagnostics().matvec_count, scalar_solver.matvec_count());

    expect_near_rel(auto_curve, scalar_curve, 1e-11, "one-pass vs reference curve");
    EXPECT_NEAR(auto_acc, scalar_acc, 1e-11 * std::max(1.0, std::abs(scalar_acc)));

    // Distributions agree too (the normalize step sees round-off-level
    // differences only).
    std::vector<double> pi_scalar;
    std::vector<double> pi_auto;
    scalar_solver.distribution_at(initial, 1.7, pi_scalar);
    auto_solver.distribution_at(initial, 1.7, pi_auto);
    expect_near_rel(pi_auto, pi_scalar, 1e-11, "fused step vs reference distribution");
  }
}

TEST(SpmvKernelTransient, PanelCurveMatchesSequentialCurves) {
  const ct::Ctmc chain = birth_death(41, 0.6, 1.4);
  const std::size_t n = chain.state_count();
  std::vector<double> rewards(n);
  for (std::size_t s = 0; s < n; ++s) rewards[s] = 1.0 - static_cast<double>(s) / double(n);
  const std::vector<double> grid{0.25, 0.5, 1.0, 3.0};
  const std::size_t m = 6;
  std::vector<std::vector<double>> initials(m, std::vector<double>(n, 0.0));
  for (std::size_t b = 0; b < m; ++b) initials[b][b * 5 % n] = 1.0;

  ct::TransientSolver solver;
  solver.prepare(chain);
  std::vector<std::vector<double>> curves;
  const std::vector<double> accs = solver.reward_curve_multi(initials, rewards, grid, curves);
  ASSERT_EQ(curves.size(), m);
  ASSERT_EQ(accs.size(), m);
  EXPECT_EQ(solver.diagnostics().rhs_count, m);

  // The shared series costs one sweep per term, whatever the width.
  const std::size_t panel_sweeps = solver.diagnostics().matvec_count;

  for (std::size_t b = 0; b < m; ++b) {
    ct::TransientSolver reference;
    reference.prepare(chain);
    std::vector<double> curve;
    const double acc = reference.reward_curve(initials[b], rewards, grid, curve);
    expect_near_rel(curves[b], curve, 1e-11, "panel column vs sequential curve");
    EXPECT_NEAR(accs[b], acc, 1e-11 * std::max(1.0, std::abs(acc)));
    // The series length depends on the chain and t_last only, so each
    // sequential solve alone sweeps as often as the whole panel did.
    EXPECT_EQ(reference.diagnostics().matvec_count, panel_sweeps);
  }
}

TEST(SpmvKernelTransient, PanelMatchesScalarReferenceMode) {
  const ct::Ctmc chain = birth_death(23, 0.9, 1.7);
  const std::size_t n = chain.state_count();
  std::vector<double> rewards(n, 1.0);
  rewards[0] = 0.0;
  const std::vector<double> grid{0.5, 2.0};
  std::vector<std::vector<double>> initials(3, std::vector<double>(n, 0.0));
  for (std::size_t b = 0; b < 3; ++b) initials[b][b] = 1.0;

  ct::TransientSolver auto_solver;
  auto_solver.prepare(chain);
  std::vector<std::vector<double>> auto_curves;
  const auto auto_accs = auto_solver.reward_curve_multi(initials, rewards, grid, auto_curves);

  patchsec::test::ReferenceTransient scalar_solver;
  scalar_solver.prepare(chain);
  std::vector<std::vector<double>> scalar_curves;
  const auto scalar_accs =
      scalar_solver.reward_curve_multi(initials, rewards, grid, scalar_curves);

  for (std::size_t b = 0; b < 3; ++b) {
    expect_near_rel(auto_curves[b], scalar_curves[b], 1e-11, "panel vs reference curves");
    EXPECT_NEAR(auto_accs[b], scalar_accs[b],
                1e-11 * std::max(1.0, std::abs(scalar_accs[b])));
  }
}

TEST(SpmvKernelTransient, PanelColumnsDoNotDependOnPanelWidth) {
  // A wave's curve must not depend on which other waves share its panel:
  // every column of a 7-wide panel is bit-identical to the same initial
  // advanced alone as a 1-wide panel (the service groups waves into panels
  // by arrival, and its replies must not change with the grouping).
  const ct::Ctmc chain = birth_death(37, 0.5, 1.2);
  const std::size_t n = chain.state_count();
  std::vector<double> rewards(n);
  for (std::size_t s = 0; s < n; ++s) rewards[s] = std::sin(static_cast<double>(s));
  const std::vector<double> grid{0.2, 0.9, 2.5};
  const std::size_t m = 7;
  std::vector<std::vector<double>> initials(m, std::vector<double>(n, 0.0));
  for (std::size_t b = 0; b < m; ++b) initials[b][(b * 11) % n] = 1.0;

  ct::TransientSolver wide;
  wide.prepare(chain);
  std::vector<std::vector<double>> wide_curves;
  const std::vector<double> wide_accs =
      wide.reward_curve_multi(initials, rewards, grid, wide_curves);
  for (std::size_t b = 0; b < m; ++b) {
    ct::TransientSolver solo;
    solo.prepare(chain);
    std::vector<std::vector<double>> solo_curves;
    const std::vector<double> solo_accs =
        solo.reward_curve_multi({initials[b]}, rewards, grid, solo_curves);
    EXPECT_EQ(solo.diagnostics().rhs_count, 1u);
    ASSERT_EQ(solo_accs[0], wide_accs[b]) << "column " << b;  // bitwise
    ASSERT_EQ(solo_curves[0], wide_curves[b]) << "column " << b;
  }
}

TEST(SpmvKernelTransient, SolverReusesKernelAcrossValueRefresh) {
  ct::TransientSolver solver;
  EXPECT_EQ(solver.kernel_structure_builds(), 0u);  // lazy: nothing yet
  solver.prepare(up_down(0.5, 2.0));
  EXPECT_EQ(solver.kernel_structure_builds(), 0u);  // still lazy after prepare
  std::vector<double> out;
  solver.distribution_at({1.0, 0.0}, 1.0, out);
  EXPECT_EQ(solver.kernel_structure_builds(), 1u);
  // Same structure, new rates: the solver refresh must carry the kernel's
  // value-refresh along (one layout build total).
  solver.prepare(up_down(0.7, 1.5));
  solver.distribution_at({1.0, 0.0}, 1.0, out);
  EXPECT_EQ(solver.structure_builds(), 1u);
  EXPECT_EQ(solver.structure_reuses(), 1u);
  EXPECT_EQ(solver.kernel_structure_builds(), 1u);
  EXPECT_EQ(solver.kernel_structure_reuses(), 1u);
}

TEST(SpmvKernelTransient, OnePassMatchesScalarReferenceOnPaperDesigns) {
  // The one-pass backward series against the forward-stepped reference on
  // the five paper designs plus [6,6,6,6], at two cadences and three patch
  // waves: every curve point and the interval COA (accumulated / t_last)
  // agree within 1e-12.
  const core::Session session(core::Scenario::paper_case_study());
  const std::vector<double> grid = core::EngineOptions{}.transient_grid();
  std::vector<ent::RedundancyDesign> designs = ent::paper_designs();
  designs.push_back(ent::RedundancyDesign{{6, 6, 6, 6}});
  const std::vector<std::map<ent::ServerRole, unsigned>> waves = {
      {{ent::ServerRole::kDns, 1},
       {ent::ServerRole::kWeb, 1},
       {ent::ServerRole::kApp, 1},
       {ent::ServerRole::kDb, 1}},
      {{ent::ServerRole::kApp, 1}},
      {{ent::ServerRole::kWeb, 2}, {ent::ServerRole::kDb, 1}},
  };
  for (double hours : {720.0, 1440.0}) {
    const auto& rates = session.aggregated_rates(hours);
    for (const ent::RedundancyDesign& design : designs) {
      SCOPED_TRACE(design.name() + " @ " + std::to_string(hours) + " h");
      const std::vector<av::CoaCurveEvaluation> fast =
          av::transient_coa_batch(design, rates, grid, waves);

      // The same model and patch-window initials, advanced by the reference.
      const av::NetworkSrn net = av::build_network_srn(design, rates);
      const auto graph = patchsec::petri::build_reachability_graph(net.model);
      const patchsec::petri::RewardFunction reward = net.coa_reward();
      std::vector<double> rewards;
      for (const patchsec::petri::Marking& m : graph.tangible_markings) {
        rewards.push_back(reward(m));
      }
      std::vector<std::vector<double>> initials;
      for (const auto& wave : waves) {
        initials.emplace_back(graph.tangible_count(), 0.0);
        initials.back()[graph.index_of(av::patch_window_marking(net, wave))] = 1.0;
      }
      patchsec::test::ReferenceTransient reference;
      reference.prepare(graph.chain);
      std::vector<std::vector<double>> curves;
      const std::vector<double> accumulated =
          reference.reward_curve_multi(initials, rewards, grid, curves);

      for (std::size_t b = 0; b < waves.size(); ++b) {
        for (std::size_t j = 0; j < grid.size(); ++j) {
          EXPECT_NEAR(fast[b].curve[j].coa, curves[b][j], 1e-12)
              << "wave " << b << " t=" << grid[j];
        }
        EXPECT_NEAR(fast[b].accumulated_coa_hours / grid.back(),
                    accumulated[b] / grid.back(), 1e-12)
            << "wave " << b;
      }
      EXPECT_LT(fast.front().transient.matvec_count, reference.matvec_count());
    }
  }
}
