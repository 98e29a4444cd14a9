// Register-blocked GEMM micro-kernel with packed panels.
//
// gemm_accumulate computes C += A * B on row-major operands.  At the AVX2
// dispatch level the inner kernel is a 4x8 register block (eight 256-bit
// accumulators) fed from contiguous packed panels of A (4 rows, k-major)
// and B (8 columns, k-major); edge tiles fall back to a scalar loop with
// the same per-element arithmetic.  At the scalar level a 4x4 block of C
// stays in local accumulators across the whole k extent (unpacked operands,
// mul+add per element), with the i-k-j loop on the edges.
//
// Accumulation contract: every output element is accumulated over k in
// ascending order into a single accumulator (loaded from C first), so the
// result is bit-identical to the naive i-k-j triple loop evaluated with
// the active level's per-element arithmetic (FMA at the AVX2 level,
// mul+add at the scalar level).  There is NO k-panel split — the whole k
// extent streams through the register block — which is what makes the
// packed path interchangeable with the axpy-tiled multiply_into path at a
// fixed dispatch level.
//
// Packing buffers are thread_local and grow-only, so steady-state calls
// perform zero heap allocations and concurrent callers never share
// scratch.
#pragma once

#include <cstddef>

namespace iup::linalg::kernels {

/// C(m x n, ldc) += A(m x k, lda) * B(k x n, ldb), all row-major.
void gemm_accumulate(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, std::size_t ldc,
                     std::size_t m, std::size_t k, std::size_t n);

/// True when gemm_accumulate runs the packed AVX2 block kernel (used by
/// multiply_into to decide when routing through GEMM pays off; the
/// scalar register block serves the sweep's RHS panels, not
/// multiply_into).
bool gemm_is_vectorized();

}  // namespace iup::linalg::kernels
