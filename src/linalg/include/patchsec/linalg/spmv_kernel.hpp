#pragma once
/// \file spmv_kernel.hpp
/// \brief SIMD sparse matrix-vector kernel workspace for the uniformization
/// hot path: a CsrMatrix compiled once per sparsity structure into a
/// SELL-8 (sliced-ELLPACK, chunk height 8, sigma = 1) layout of the
/// TRANSPOSE with 32-bit column indices.
///
/// Why the transpose: the probability iterates of uniformization advance by
/// y = x^T P (row-vector times matrix), which in CSR row order is a SCATTER
/// (y[col] += x[row] * v) — unvectorizable without conflict detection.  Over
/// the rows of P^T the same product is a GATHER (y[s] = sum_k v_k *
/// x[col_k]), and SELL-8 lets eight output states advance in lock-step: each
/// SIMD lane owns one row of P^T and accumulates its own sum, so no
/// horizontal reduction is paid per row and ragged rows cost only zero
/// padding (value 0, column 0 — harmless to read).  Column indices are
/// 32-bit, halving index traffic and matching the AVX2/AVX-512 gather
/// instructions' index vectors exactly.  Compiled over P^T instead, the same
/// kernel computes the column-vector product P·v — the backward reward
/// series of ctmc::TransientSolver's curve routes.
///
/// The inner loop is runtime-dispatched: an AVX-512F path (8 lanes), an
/// AVX2+FMA path (4 lanes) and a portable scalar pass over the same SELL
/// storage (the always-available fallback — and the layout-equivalence
/// anchor for the SIMD paths; the bit-level oracle in tests is
/// CsrMatrix::left_multiply).  Dispatch is decided once per process from
/// CPUID, never per call.
///
/// The matvec also exists in a FUSED form (step) that folds the other dense
/// pass of a forward uniformization step — the Poisson-weight accumulation
/// accum += w * x — into the same call, saving a full pass over the iterate
/// per expansion term.  The SIMD accumulations use one fma per element in
/// the vector body and the scalar tail alike, so their results do not
/// depend on buffer alignment.
///
/// An SpmvKernel is a workspace in the StationarySolver/TransientSolver
/// mold: compile() with a structurally identical matrix refreshes values in
/// place (allocation-free; structure_builds()/structure_reuses() expose the
/// contract).  Not thread-safe; hold one per thread.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "patchsec/linalg/csr_matrix.hpp"

namespace patchsec::linalg {

/// Which inner loop CPUID dispatch selected (fixed per process).
enum class SpmvIsa : std::uint8_t { kScalar, kAvx2, kAvx512 };

/// The dispatched ISA for this process ("sell8-avx512" / "sell8-avx2" /
/// "sell8-scalar" in kernel-name form).
[[nodiscard]] SpmvIsa spmv_dispatched_isa() noexcept;
[[nodiscard]] const char* spmv_isa_name(SpmvIsa isa) noexcept;

class SpmvKernel {
 public:
  SpmvKernel() = default;

  /// Compile (or, for an identical sparsity structure, value-refresh in
  /// place) the kernel layout from `a`.  Throws std::invalid_argument on an
  /// empty matrix or one with more than 2^32-1 rows/columns (the 32-bit
  /// index contract).
  void compile(const CsrMatrix& a);

  /// Same, from raw CSR arrays (the ctmc::TransientSolver path, whose cached
  /// uniformized matrix never materializes a CsrMatrix).  The arrays must
  /// satisfy the CsrMatrix invariants (sorted rows, merged duplicates).
  void compile(std::size_t rows, std::size_t cols,
               const std::vector<std::size_t>& row_offsets,
               const std::vector<std::size_t>& col_indices, const std::vector<double>& values);

  [[nodiscard]] bool compiled() const noexcept { return rows_ > 0; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }

  /// Stored SELL slots / nnz — the padding overhead of the chunked layout
  /// (1.0 = perfectly uniform rows).
  [[nodiscard]] double padding_ratio() const noexcept;

  /// Name of the dispatched inner loop ("sell8-avx512", "sell8-avx2",
  /// "sell8-scalar").
  [[nodiscard]] const char* kernel_name() const noexcept { return spmv_isa_name(isa_); }
  [[nodiscard]] SpmvIsa isa() const noexcept { return isa_; }

  /// compile() calls that (re)built the layout / were served by the
  /// value-refresh fast path (the structure-reuse contract; the first build
  /// counts as one build).
  [[nodiscard]] std::size_t structure_builds() const noexcept { return builds_; }
  [[nodiscard]] std::size_t structure_reuses() const noexcept { return reuses_; }

  /// y = x^T A through the SIMD path.  y is resized to cols(); agreement
  /// with the scalar oracle CsrMatrix::left_multiply is documented at
  /// ~1e-15 relative (identical per-row accumulation order; the SIMD lanes
  /// use explicit FMA where the scalar oracle relies on compiler
  /// contraction).  Throws std::logic_error when not compiled and
  /// std::invalid_argument on size mismatch.
  void left_multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Fused uniformization step over raw pointers (sizes: x rows(), y
  /// cols()):
  ///   y      = x^T A
  ///   accum += weight * x            (skipped when accum is null OR weight
  ///                                   is exactly 0 — a below-window term
  ///                                   leaves accum bitwise untouched)
  void step(const double* x, double* y, double weight, double* accum) const;

  /// The accumulation half of step() alone (the final expansion term needs
  /// no further power).
  void reduce(const double* x, double weight, double* accum) const;

  /// Drop the compiled layout (counters are kept).
  void reset();

 private:
  void build_layout(std::size_t rows, std::size_t cols,
                    const std::vector<std::size_t>& row_offsets,
                    const std::vector<std::size_t>& col_indices,
                    const std::vector<double>& values);
  void refresh_values(const std::vector<std::size_t>& row_offsets,
                      const std::vector<double>& values);
  void run(const double* x, double* y) const;

  SpmvIsa isa_ = spmv_dispatched_isa();

  std::size_t rows_ = 0;  ///< rows of A (the x extent).
  std::size_t cols_ = 0;  ///< cols of A (the y extent; rows of the stored A^T).
  std::size_t nnz_ = 0;

  // Input structure (32-bit), kept for the refresh comparison and as the
  // scatter map of the value-refresh pass.
  std::vector<std::uint32_t> a_row_offsets_;
  std::vector<std::uint32_t> a_col_indices_;

  // SELL-8 storage of A^T: per chunk of 8 consecutive output rows, `width`
  // column-major slots (entry (lane, j) of chunk c at
  // sell_offsets_[c] + j*8 + lane).  Padding slots hold (value 0, col 0).
  std::vector<std::size_t> sell_offsets_;   ///< per chunk, slot base (size chunks+1).
  std::vector<std::uint32_t> sell_widths_;  ///< per chunk, max row length.
  std::vector<std::uint32_t> sell_cols_;
  std::vector<double> sell_values_;

  // Plain CSR of A^T (32-bit): the staging of the SELL fill and the scatter
  // map of the value refresh.
  std::vector<std::uint32_t> t_row_offsets_;
  std::vector<std::uint32_t> t_col_indices_;
  std::vector<double> t_values_;

  // Scratch of the SELL fill (slot cursors per output row / transpose
  // counts), reused across builds.
  std::vector<std::uint32_t> fill_cursor_;

  std::size_t builds_ = 0;
  std::size_t reuses_ = 0;
};

}  // namespace patchsec::linalg
