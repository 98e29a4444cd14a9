// Scalar reference implementations of the micro-kernels.
//
// These are the semantic ground truth of the kernel layer: every loop is
// written exactly like the hand-rolled loops the `_into` kernels and the
// solver sweep used before the kernel layer existed, so a build at the
// scalar dispatch level (no -march / IUP_ARCH) reproduces the historical
// results bit for bit.  The AVX2 level (kernels/avx2.hpp) must match these
// within documented rounding differences (FMA contraction on the
// element-wise kernels, vector-lane accumulators on the reductions); the
// dispatch header (kernels/kernels.hpp) states the exact contract.
#pragma once

#include <cstddef>

namespace iup::linalg::kernels {

/// Lane width of the interleaved batch kernels (axpy_lanes / dot_lanes,
/// consumed by linalg::factor_spd_lanes): kLanes independent problems are
/// stored interleaved, element p of lane l at [p * kLanes + l].
inline constexpr std::size_t kLanes = 4;

}  // namespace iup::linalg::kernels

namespace iup::linalg::kernels::scalar {

/// sum_i a[i] * b[i], accumulated left to right in one scalar accumulator.
inline double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// y[i] += alpha * x[i].
inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// out[i] += a * x[i] + b * y[i] — the fused form of two consecutive
/// axpys over the same destination (one pass over `out`).
inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += a * x[i] + b * y[i];
}

/// Rank-1 update of the upper triangle of a row-major n x n matrix with
/// leading dimension ld:  q(a, b) += (weight * v[a]) * v[b] for b >= a.
/// Entries strictly below the diagonal are UNSPECIFIED after the call
/// (this level leaves them untouched; the AVX2 level streams full rows) —
/// callers mirror the upper triangle down before consuming.  Rows whose
/// scaled pivot weight*v[a] is exactly zero are skipped — an exact no-op
/// on finite data (see kernels.hpp).
inline void add_outer_upper(double weight, const double* v, std::size_t n,
                            double* q, std::size_t ld) {
  for (std::size_t a = 0; a < n; ++a) {
    const double va = weight * v[a];
    if (va == 0.0) continue;
    double* q_row = q + a * ld;
    for (std::size_t b = a; b < n; ++b) q_row[b] += va * v[b];
  }
}

/// sum_i x[i]^2.
inline double norm_sq(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

/// sum_i (x[i] - y[i])^2.
inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

/// sum_i (mask[i] * x[i] - y[i])^2 — the paper's data term
/// ||B o (L R^T) - X_B||_F^2 in one pass.
inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = mask[i] * x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

/// Panel dot (the trsv_multi back-substitution kernel): out[c] =
/// scalar::dot(a, column c of the row-major n x k panel b), bit for bit.
/// Each column keeps one sequential accumulator fed in ascending p order
/// — the exact op chain of scalar::dot — while the p-outer / c-inner loop
/// order lets the compiler vectorise across the independent columns.
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  for (std::size_t c = 0; c < k; ++c) out[c] = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const double ap = a[p];
    const double* row = b + p * ldb;
    for (std::size_t c = 0; c < k; ++c) out[c] += ap * row[c];
  }
}

/// Lane axpy: y[p*kLanes + l] += alpha[l] * x[p*kLanes + l] for p < n —
/// per element exactly axpy()'s arithmetic, one lane per problem.
inline void axpy_lanes(const double* alpha, const double* x, double* y,
                       std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      y[p * kLanes + l] += alpha[l] * x[p * kLanes + l];
    }
  }
}

/// Lane dot: out[l] = scalar::dot(lane l of a, lane l of b) over n
/// interleaved elements, bit for bit — one sequential accumulator per
/// lane, fed in ascending p order.
inline void dot_lanes(const double* a, const double* b, std::size_t n,
                      double* out) {
  double acc[kLanes] = {};
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      acc[l] += a[p * kLanes + l] * b[p * kLanes + l];
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) out[l] = acc[l];
}

}  // namespace iup::linalg::kernels::scalar
