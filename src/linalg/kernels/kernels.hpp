// iup::linalg::kernels — the SIMD micro-kernel layer of the solver hot
// path.
//
// One dispatch header, compile-time level selection: every translation
// unit of a build sees the same level, chosen by the flags the whole
// build was compiled with (the IUP_ARCH CMake knob; scripts/bench.sh
// benches at -march=native, CI exercises both a baseline and an
// x86-64-v3 cell).
//
//   kernels::dot / axpy / axpy2 / syrk_upper / syrk_assemble_upper /
//   norm_sq / diff_norm_sq / masked_diff_norm_sq /
//   dot_panel / axpy_lanes / dot_lanes   — forward to the active level
//   kernels::gemm_accumulate             — register-blocked packed GEMM
//                                          (kernels/gemm.hpp)
//   kernels::scalar::*                   — always available (reference)
//   kernels::avx2::*                     — only at the AVX2+ levels
//   kernels::avx512::*                   — only at the AVX-512 level
//
// Determinism contract (the load-bearing guarantee):
//
//  * WITHIN one build (one dispatch level) every kernel is a pure
//    function of its operand values and length — never of alignment,
//    call site, tiling or thread count.  The solver sweep, the LRR
//    fan-out and the batched engine entry points therefore keep the PR 2
//    guarantee bit for bit: 1 thread and N threads produce identical
//    results at every dispatch level.
//  * ACROSS levels results may differ at ulp magnitude: the AVX2 and
//    AVX-512 levels contract mul+add to FMA on the element-wise kernels
//    and reduce dot/norm accumulations through vector-lane accumulators
//    (4-lane pairs at AVX2, 8-lane pairs at AVX-512) instead of one
//    scalar accumulator.  The scalar level reproduces the historical
//    (pre-kernel-layer) loops exactly.
//  * dot_panel (the trsv_multi / multi-RHS back-substitution kernel) is
//    held to a STRONGER promise: at every level, out[c] is bit-identical
//    to kernels::dot(a, column c of the panel) at that same level.  Two
//    consumers rely on it: the panel solve in linalg/cholesky.cpp, to
//    keep each RHS of a multi-RHS SPD solve exactly equal to the
//    historical one-column solve_factored_spd loop; and the OMP greedy
//    step in loc/omp.cpp, which scores all N dictionary atoms in one
//    panel pass and must pick exactly the atom (ties included) that a
//    per-column dot loop would.
//  * axpy_lanes / dot_lanes (the lane-batched SPD kernels behind
//    linalg::factor_spd_lanes) are held to the same promise per lane:
//    lane l of axpy_lanes evaluates every element with this level's
//    axpy() arithmetic, and out[l] of dot_lanes is bit-identical to this
//    level's dot() on contiguous copies of lane l.  Independent problems
//    therefore share one pass without any lane seeing its neighbours.
//  * syrk_upper / syrk_assemble_upper (the normal-matrix kernels behind
//    gram_into and every Q build of the solver sweep) are held to the
//    same kind of promise: at every level, each diagonal / upper entry is
//    bit-identical to k consecutive rank-1 updates q(a, b) +=
//    (w_t * v_t[a]) * v_t[b] evaluated one by one with that level's axpy()
//    element arithmetic (mul+add at kScalar, FMA at the SIMD levels) — the
//    historical per-row loop — while register tiles of the triangle stay
//    live across all k terms.
//  * Zero-skips (the historical rank-1 update's rows, the multiply_into
//    pivot skip) are exact no-ops on finite data: a contribution 0.0 * v
//    adds +/-0, and an accumulator seeded with +0 can never round to -0,
//    so skipping cannot change any finite result.  The same argument lets
//    the syrk kernels drop the per-row skip: their accumulators are
//    seeded with +0 or with earlier sums of the same kind (the sweep's
//    lambda*I + F^T F), never with -0.
#pragma once

#include <cstddef>

#include "linalg/kernels/scalar.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#define IUP_KERNELS_AVX2 1
#include "linalg/kernels/avx2.hpp"
#endif

#if defined(__AVX512F__)
#define IUP_KERNELS_AVX512 1
#include "linalg/kernels/avx512.hpp"
#endif

namespace iup::linalg::kernels {

/// Compile-time dispatch levels.  kAvx512 requires AVX-512F
/// (e.g. -march=x86-64-v4); kAvx2 requires both AVX2 and FMA
/// (e.g. -march=x86-64-v3); anything else runs kScalar.  A build that
/// enables AVX-512 always dispatches the AVX-512 level (AVX2 is implied
/// by every avx512f target, but the wider level wins).
enum class Level { kScalar, kAvx2, kAvx512 };

// The ONE level-selection point: every forwarding wrapper below calls
// through `active`, so adding a dispatch level (or a kernel) is a single
// edit here plus the new implementation — no per-function #if ladders
// that could drift out of sync.
#if defined(IUP_KERNELS_AVX512)
namespace active = avx512;
#elif defined(IUP_KERNELS_AVX2)
namespace active = avx2;
#else
namespace active = scalar;
#endif

constexpr Level active_level() {
#if defined(IUP_KERNELS_AVX512)
  return Level::kAvx512;
#elif defined(IUP_KERNELS_AVX2)
  return Level::kAvx2;
#else
  return Level::kScalar;
#endif
}

constexpr const char* active_level_name() {
  return active_level() == Level::kAvx512  ? "avx512"
         : active_level() == Level::kAvx2 ? "avx2"
                                          : "scalar";
}

inline double dot(const double* a, const double* b, std::size_t n) {
  return active::dot(a, b, n);
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  active::axpy(alpha, x, y, n);
}

inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  active::axpy2(a, x, b, y, out, n);
}

/// A whole normal matrix in one register-tiled pass (see SyrkPlan): per
/// diagonal / upper entry the seed, the `pre` rank-1 terms, alpha * x and
/// the `post` rank-1 terms, in that order — bit-identical to a seed copy
/// followed by one-by-one rank-1 updates and an axpy at this level.  Entry
/// (a, b) lives at q[a * ldq + b * incq] (incq = kLanes writes one lane of
/// an interleaved batch); entries below the diagonal are never touched.
inline void syrk_assemble_upper(const SyrkPlan& p, std::size_t n, double* q,
                                std::size_t ldq, std::size_t incq) {
  active::syrk_assemble_upper(p, n, q, ldq, incq);
}

/// q(a, b) += sum_t (w_t * v_t[a]) * v_t[b] for b >= a over the terms of
/// `s`: the rank-k special case of syrk_assemble_upper (no seed, no x).
inline void syrk_upper(const SyrkRows& s, std::size_t n, double* q,
                       std::size_t ldq, std::size_t incq) {
  syrk_assemble_upper({.pre = s}, n, q, ldq, incq);
}

inline double norm_sq(const double* x, std::size_t n) {
  return active::norm_sq(x, n);
}

inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  return active::diff_norm_sq(x, y, n);
}

inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  return active::masked_diff_norm_sq(mask, x, y, n);
}

/// out[c] = dot(a, column c of the row-major n x k panel `b` with leading
/// dimension ldb), for c in [0, k) — bit-identical per column to calling
/// this level's dot() on a contiguous copy of that column, vectorised
/// across the RHS columns instead of along them.  Consumers: the
/// multi-RHS SPD back substitution (linalg/cholesky.cpp) and the OMP
/// greedy correlation step (loc/omp.cpp).
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  active::dot_panel(a, b, ldb, n, k, out);
}

/// y[p*kLanes + l] += alpha[l] * x[p*kLanes + l] over n interleaved
/// elements, each with this level's axpy() element arithmetic.
inline void axpy_lanes(const double* alpha, const double* x, double* y,
                       std::size_t n) {
  active::axpy_lanes(alpha, x, y, n);
}

/// out[l] = dot(lane l of a, lane l of b) over n interleaved elements,
/// bit-identical per lane to this level's dot() on contiguous copies.
inline void dot_lanes(const double* a, const double* b, std::size_t n,
                      double* out) {
  active::dot_lanes(a, b, n, out);
}

}  // namespace iup::linalg::kernels
