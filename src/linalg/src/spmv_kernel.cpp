#include "patchsec/linalg/spmv_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

// The SIMD variants are compiled (and dispatched at runtime from CPUID) only
// on x86-64 GCC/Clang; every other toolchain gets the portable scalar pass
// over the same SELL storage.  Baseline codegen stays portable — the AVX
// bodies carry per-function target attributes, so no global -march is needed
// (see PATCHSEC_NATIVE_ARCH for local -march=native builds).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PATCHSEC_X86_SIMD 1
#include <immintrin.h>
#else
#define PATCHSEC_X86_SIMD 0
#endif

namespace patchsec::linalg {

namespace {

/// Borrowed view of the compiled SELL-8 storage handed to the ISA variants.
struct SellView {
  const std::size_t* offsets;   // per chunk, slot base
  const std::uint32_t* widths;  // per chunk, padded row length
  const std::uint32_t* cols;
  const double* vals;
  std::size_t chunks;
  std::size_t n;  // output rows (= cols of A)
};

// ---------------------------------------------------------------------------
// Scalar reference variants (always available; the portable fallback).
// ---------------------------------------------------------------------------

void sell_multiply_scalar(const SellView& a, const double* x, double* y) {
  for (std::size_t ch = 0; ch < a.chunks; ++ch) {
    const std::size_t base = a.offsets[ch];
    const std::uint32_t width = a.widths[ch];
    const std::size_t row0 = ch * 8;
    const std::size_t lanes = std::min<std::size_t>(8, a.n - row0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      double acc = 0.0;
      for (std::uint32_t j = 0; j < width; ++j) {
        const std::size_t slot = base + std::size_t{j} * 8 + lane;
        acc += a.vals[slot] * x[a.cols[slot]];
      }
      y[row0 + lane] = acc;
    }
  }
}

void fused_reduce_scalar(const double* x, std::size_t n, double weight, double* accum) {
  for (std::size_t s = 0; s < n; ++s) accum[s] += weight * x[s];
}

#if PATCHSEC_X86_SIMD

// The scalar tail [s, n) of the SIMD fused reductions, with the vector body's
// arithmetic: one explicit fma per element.  Left as `accum[s] += weight *
// x[s]`, GCC vectorizes this loop under the caller's target attribute with
// an address-dependent peel, contracting some elements to an fma and not
// others, so the last ulp would follow heap alignment.
inline void fused_reduce_tail(const double* x, std::size_t s, std::size_t n, double weight,
                              double* accum) {
  for (; s < n; ++s) accum[s] = std::fma(weight, x[s], accum[s]);
}

// ---------------------------------------------------------------------------
// AVX2+FMA variants: 4 doubles per vector; a SELL chunk is two half-chunks.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma"))) void sell_multiply_avx2(const SellView& a, const double* x,
                                                            double* y) {
  for (std::size_t ch = 0; ch < a.chunks; ++ch) {
    const std::size_t base = a.offsets[ch];
    const std::uint32_t width = a.widths[ch];
    const std::size_t row0 = ch * 8;
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    for (std::uint32_t j = 0; j < width; ++j) {
      const std::size_t slot = base + std::size_t{j} * 8;
      const __m128i idx_lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.cols + slot));
      const __m128i idx_hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.cols + slot + 4));
      // Masked gathers with an explicit zero source and an all-set mask:
      // the same vgatherdpd instruction, but unlike the unmasked intrinsic
      // the GCC 12 expansion has no undefined passthrough operand
      // (-Wmaybe-uninitialized under -Werror).
      const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
      acc_lo = _mm256_fmadd_pd(
          _mm256_loadu_pd(a.vals + slot),
          _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx_lo, all, 8), acc_lo);
      acc_hi = _mm256_fmadd_pd(
          _mm256_loadu_pd(a.vals + slot + 4),
          _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx_hi, all, 8), acc_hi);
    }
    const std::size_t lanes = std::min<std::size_t>(8, a.n - row0);
    if (lanes == 8) {
      _mm256_storeu_pd(y + row0, acc_lo);
      _mm256_storeu_pd(y + row0 + 4, acc_hi);
    } else {
      double buf[8];
      _mm256_storeu_pd(buf, acc_lo);
      _mm256_storeu_pd(buf + 4, acc_hi);
      for (std::size_t lane = 0; lane < lanes; ++lane) y[row0 + lane] = buf[lane];
    }
  }
}

__attribute__((target("avx2,fma"))) void fused_reduce_avx2(const double* x, std::size_t n,
                                                           double weight, double* accum) {
  const __m256d wv = _mm256_set1_pd(weight);
  std::size_t s = 0;
  for (; s + 4 <= n; s += 4) {
    _mm256_storeu_pd(accum + s,
                     _mm256_fmadd_pd(wv, _mm256_loadu_pd(x + s), _mm256_loadu_pd(accum + s)));
  }
  fused_reduce_tail(x, s, n, weight, accum);
}

// ---------------------------------------------------------------------------
// AVX-512F variants: 8 doubles per vector; one vector per SELL chunk.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f"))) void sell_multiply_avx512(const SellView& a, const double* x,
                                                             double* y) {
  for (std::size_t ch = 0; ch < a.chunks; ++ch) {
    const std::size_t base = a.offsets[ch];
    const std::uint32_t width = a.widths[ch];
    const std::size_t row0 = ch * 8;
    __m512d acc = _mm512_setzero_pd();
    for (std::uint32_t j = 0; j < width; ++j) {
      const std::size_t slot = base + std::size_t{j} * 8;
      const __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.cols + slot));
      // Masked gather for the same -Wmaybe-uninitialized reason as the AVX2
      // variant (the unmasked GCC expansion reads an undefined source).
      acc = _mm512_fmadd_pd(
          _mm512_loadu_pd(a.vals + slot),
          _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xff, idx, x, 8), acc);
    }
    const std::size_t lanes = std::min<std::size_t>(8, a.n - row0);
    if (lanes == 8) {
      _mm512_storeu_pd(y + row0, acc);
    } else {
      _mm512_mask_storeu_pd(y + row0, static_cast<__mmask8>((1u << lanes) - 1u), acc);
    }
  }
}

__attribute__((target("avx512f"))) void fused_reduce_avx512(const double* x, std::size_t n,
                                                            double weight, double* accum) {
  const __m512d wv = _mm512_set1_pd(weight);
  std::size_t s = 0;
  for (; s + 8 <= n; s += 8) {
    _mm512_storeu_pd(accum + s,
                     _mm512_fmadd_pd(wv, _mm512_loadu_pd(x + s), _mm512_loadu_pd(accum + s)));
  }
  fused_reduce_tail(x, s, n, weight, accum);
}

#endif  // PATCHSEC_X86_SIMD

SpmvIsa detect_isa() noexcept {
#if PATCHSEC_X86_SIMD
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return SpmvIsa::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return SpmvIsa::kAvx2;
#endif
  return SpmvIsa::kScalar;
}

}  // namespace

SpmvIsa spmv_dispatched_isa() noexcept {
  static const SpmvIsa isa = detect_isa();
  return isa;
}

const char* spmv_isa_name(SpmvIsa isa) noexcept {
  switch (isa) {
    case SpmvIsa::kAvx512:
      return "sell8-avx512";
    case SpmvIsa::kAvx2:
      return "sell8-avx2";
    case SpmvIsa::kScalar:
      break;
  }
  return "sell8-scalar";
}

void SpmvKernel::compile(const CsrMatrix& a) {
  compile(a.rows(), a.cols(), a.row_offsets(), a.col_indices(), a.values());
}

void SpmvKernel::compile(std::size_t rows, std::size_t cols,
                         const std::vector<std::size_t>& row_offsets,
                         const std::vector<std::size_t>& col_indices,
                         const std::vector<double>& values) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("SpmvKernel: empty matrix");
  constexpr auto kIndexMax = std::numeric_limits<std::uint32_t>::max();
  if (rows >= kIndexMax || cols >= kIndexMax || values.size() >= kIndexMax) {
    throw std::invalid_argument("SpmvKernel: matrix exceeds the 32-bit index layout");
  }
  if (row_offsets.size() != rows + 1 || col_indices.size() != values.size()) {
    throw std::invalid_argument("SpmvKernel: inconsistent CSR arrays");
  }

  const bool same_structure =
      compiled() && rows == rows_ && cols == cols_ && values.size() == nnz_ &&
      std::equal(row_offsets.begin(), row_offsets.end(), a_row_offsets_.begin(),
                 [](std::size_t lhs, std::uint32_t rhs) { return lhs == rhs; }) &&
      std::equal(col_indices.begin(), col_indices.end(), a_col_indices_.begin(),
                 [](std::size_t lhs, std::uint32_t rhs) { return lhs == rhs; });
  if (same_structure) {
    ++reuses_;
    refresh_values(row_offsets, values);
    return;
  }
  ++builds_;
  build_layout(rows, cols, row_offsets, col_indices, values);
}

void SpmvKernel::build_layout(std::size_t rows, std::size_t cols,
                              const std::vector<std::size_t>& row_offsets,
                              const std::vector<std::size_t>& col_indices,
                              const std::vector<double>& values) {
  rows_ = rows;
  cols_ = cols;
  nnz_ = values.size();

  a_row_offsets_.assign(row_offsets.begin(), row_offsets.end());
  a_col_indices_.assign(col_indices.begin(), col_indices.end());

  // Counting transpose into the plain 32-bit CSR of A^T (the source of the
  // SELL fill below and of the value refresh).  Source rows are walked in
  // ascending order, so each transpose row comes out sorted.
  t_row_offsets_.assign(cols_ + 1, 0);
  for (std::uint32_t c : a_col_indices_) ++t_row_offsets_[c + 1];
  for (std::size_t s = 0; s < cols_; ++s) t_row_offsets_[s + 1] += t_row_offsets_[s];
  t_col_indices_.resize(nnz_);
  t_values_.resize(nnz_);
  fill_cursor_.assign(t_row_offsets_.begin(), t_row_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      const std::uint32_t pos = fill_cursor_[col_indices[k]]++;
      t_col_indices_[pos] = static_cast<std::uint32_t>(r);
      t_values_[pos] = values[k];
    }
  }

  // SELL-8 of A^T: chunk rows eight at a time, pad each chunk to its widest
  // row with (value 0, column 0) slots, store slots column-major inside the
  // chunk so lane l of vector j is row 8*chunk+l's j-th entry.
  const std::size_t chunks = (cols_ + 7) / 8;
  sell_widths_.resize(chunks);
  sell_offsets_.resize(chunks + 1);
  sell_offsets_[0] = 0;
  for (std::size_t ch = 0; ch < chunks; ++ch) {
    std::uint32_t width = 0;
    const std::size_t row_end = std::min(cols_, ch * 8 + 8);
    for (std::size_t s = ch * 8; s < row_end; ++s) {
      width = std::max(width, t_row_offsets_[s + 1] - t_row_offsets_[s]);
    }
    sell_widths_[ch] = width;
    sell_offsets_[ch + 1] = sell_offsets_[ch] + std::size_t{width} * 8;
  }
  sell_cols_.assign(sell_offsets_[chunks], 0);
  sell_values_.assign(sell_offsets_[chunks], 0.0);
  for (std::size_t s = 0; s < cols_; ++s) {
    const std::size_t base = sell_offsets_[s / 8];
    const std::size_t lane = s % 8;
    const std::uint32_t len = t_row_offsets_[s + 1] - t_row_offsets_[s];
    for (std::uint32_t j = 0; j < len; ++j) {
      const std::size_t slot = base + std::size_t{j} * 8 + lane;
      sell_cols_[slot] = t_col_indices_[t_row_offsets_[s] + j];
      sell_values_[slot] = t_values_[t_row_offsets_[s] + j];
    }
  }
}

void SpmvKernel::refresh_values(const std::vector<std::size_t>& row_offsets,
                                const std::vector<double>& values) {
  // Same structure: only the numeric payloads move.  The transpose scatter
  // reruns over the cached index arrays, then the SELL slots are refilled in
  // place — no vector grows, so the path is allocation-free.
  fill_cursor_.assign(t_row_offsets_.begin(), t_row_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      t_values_[fill_cursor_[a_col_indices_[k]]++] = values[k];
    }
  }
  for (std::size_t s = 0; s < cols_; ++s) {
    const std::size_t base = sell_offsets_[s / 8];
    const std::size_t lane = s % 8;
    const std::uint32_t len = t_row_offsets_[s + 1] - t_row_offsets_[s];
    for (std::uint32_t j = 0; j < len; ++j) {
      sell_values_[base + std::size_t{j} * 8 + lane] = t_values_[t_row_offsets_[s] + j];
    }
  }
}

double SpmvKernel::padding_ratio() const noexcept {
  if (nnz_ == 0 || sell_offsets_.empty()) return 1.0;
  return static_cast<double>(sell_offsets_.back()) / static_cast<double>(nnz_);
}

void SpmvKernel::reset() {
  rows_ = cols_ = nnz_ = 0;
  a_row_offsets_.clear();
  a_col_indices_.clear();
  sell_offsets_.clear();
  sell_widths_.clear();
  sell_cols_.clear();
  sell_values_.clear();
  t_row_offsets_.clear();
  t_col_indices_.clear();
  t_values_.clear();
  fill_cursor_.clear();
}

void SpmvKernel::run(const double* x, double* y) const {
  const SellView view{sell_offsets_.data(), sell_widths_.data(), sell_cols_.data(),
                      sell_values_.data(), (cols_ + 7) / 8,     cols_};
#if PATCHSEC_X86_SIMD
  switch (isa_) {
    case SpmvIsa::kAvx512:
      sell_multiply_avx512(view, x, y);
      return;
    case SpmvIsa::kAvx2:
      sell_multiply_avx2(view, x, y);
      return;
    case SpmvIsa::kScalar:
      break;
  }
#endif
  sell_multiply_scalar(view, x, y);
}

void SpmvKernel::left_multiply(const std::vector<double>& x, std::vector<double>& y) const {
  if (!compiled()) throw std::logic_error("SpmvKernel: compile() has not run");
  if (x.size() != rows_) throw std::invalid_argument("SpmvKernel: x size mismatch");
  y.resize(cols_);
  run(x.data(), y.data());
}

void SpmvKernel::step(const double* x, double* y, double weight, double* accum) const {
  reduce(x, weight, accum);
  run(x, y);
}

void SpmvKernel::reduce(const double* x, double weight, double* accum) const {
  // A below-window term (weight 0) or no accumulator: accum stays untouched.
  if (weight == 0.0 || accum == nullptr) return;
#if PATCHSEC_X86_SIMD
  switch (isa_) {
    case SpmvIsa::kAvx512:
      fused_reduce_avx512(x, rows_, weight, accum);
      return;
    case SpmvIsa::kAvx2:
      fused_reduce_avx2(x, rows_, weight, accum);
      return;
    case SpmvIsa::kScalar:
      break;
  }
#endif
  fused_reduce_scalar(x, rows_, weight, accum);
}

}  // namespace patchsec::linalg
