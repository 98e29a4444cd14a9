// Scalar reference implementations of the micro-kernels.
//
// These are the semantic ground truth of the kernel layer: every loop is
// written exactly like the hand-rolled loops the `_into` kernels and the
// solver sweep used before the kernel layer existed, so a build at the
// scalar dispatch level (no -march / IUP_ARCH) reproduces the historical
// results bit for bit (the syrk tiles hold pairs of columns in 2-wide
// vector-extension registers, whose lane-wise mul and add are the same
// roundings as the loop form).  The AVX2 level (kernels/avx2.hpp) must
// match these within documented rounding differences (FMA contraction on
// the element-wise kernels, vector-lane accumulators on the reductions);
// the dispatch header (kernels/kernels.hpp) states the exact contract.
#pragma once

#include <cstddef>
#include <cstring>

namespace iup::linalg::kernels {

/// Lane width of the interleaved batch kernels (axpy_lanes / dot_lanes,
/// consumed by linalg::factor_spd_lanes): kLanes independent problems are
/// stored interleaved, element p of lane l at [p * kLanes + l].
inline constexpr std::size_t kLanes = 4;

/// The k rank-1 terms of one syrk_upper call.  Term t is row
/// `index ? index[t] : t` of the row-major panel `v` (leading dimension
/// `ldv`; ldv = 0 repeats one row), weighted by
/// `weights ? weights[t] : weight`.
struct SyrkRows {
  const double* v = nullptr;
  std::size_t ldv = 0;
  std::size_t k = 0;
  const std::size_t* index = nullptr;
  const double* weights = nullptr;
  double weight = 1.0;

  const double* row(std::size_t t) const {
    return v + (index != nullptr ? index[t] : t) * ldv;
  }
  double weight_of(std::size_t t) const {
    return weights != nullptr ? weights[t] : weight;
  }
};

/// A whole normal-matrix assembly in one syrk_assemble_upper pass.  Entry
/// (a, b) starts from seed(a, b) (row-major, leading dimension lds; a null
/// seed keeps q's current entry), accumulates the terms of `pre`, then
/// alpha * x(a, b) (row-major, leading dimension ldx; skipped when x is
/// null) with axpy()'s element arithmetic, then the terms of `post`.
struct SyrkPlan {
  const double* seed = nullptr;
  std::size_t lds = 0;
  SyrkRows pre{};
  const double* x = nullptr;
  std::size_t ldx = 0;
  double alpha = 0.0;
  SyrkRows post{};
};

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

namespace detail {

/// Two adjacent tile columns.  Vector-extension arithmetic is lane-wise
/// IEEE mul and add — the same two roundings as the scalar loop form (an
/// ISO C++ build never contracts them, and this level has no FMA) — and
/// gives the compiler a clean 2-wide register tile instead of leaving it
/// to reshuffle a scalar one.
using Pair = double __attribute__((vector_size(16)));

/// Tile columns (c, c + 1) of the C-wide column block at `p`; a column
/// past C reads as 0 (its lane is computed but never stored).
template <std::size_t C>
[[gnu::always_inline]] inline Pair load_pair(const double* p, std::size_t c) {
  if (c + 1 < C) {
    Pair v;
    std::memcpy(&v, p + c, sizeof v);
    return v;
  }
  return Pair{p[c], 0.0};
}

/// acc[r][c] += (w_t * v_t[a0 + r]) * v_t[b0 + c] over the terms of `s`,
/// ascending t: mul, then add, like axpy().
template <std::size_t R, std::size_t C>
[[gnu::always_inline]] inline void syrk_accumulate(
    const SyrkRows& s, std::size_t a0, std::size_t b0,
    Pair (&acc)[R][(C + 1) / 2]) {
  for (std::size_t t = 0; t < s.k; ++t) {
    const double* row = s.row(t);
    const double w = s.weight_of(t);
    Pair vb[(C + 1) / 2];
    for (std::size_t h = 0; h < (C + 1) / 2; ++h) {
      vb[h] = load_pair<C>(row + b0, 2 * h);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const double va = w * row[a0 + r];
      for (std::size_t h = 0; h < (C + 1) / 2; ++h) acc[r][h] += va * vb[h];
    }
  }
}

/// One R x C tile of syrk_assemble_upper at (a0, b0), held in local
/// accumulators through the whole plan: each element is loaded once, fed
/// the plan's terms in order and stored once.  A diagonal tile
/// (a0 == b0) stores only its b >= a entries.
template <std::size_t R, std::size_t C>
void syrk_tile(const SyrkPlan& p, std::size_t a0, std::size_t b0, double* q,
               std::size_t ldq, std::size_t incq) {
  constexpr std::size_t kPairs = (C + 1) / 2;
  const bool diag = a0 == b0;
  Pair acc[R][kPairs];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < 2 * kPairs; ++c) {
      acc[r][c / 2][c % 2] =
          c >= C                  ? 0.0
          : p.seed != nullptr     ? p.seed[(a0 + r) * p.lds + b0 + c]
          : !diag || c >= r       ? q[(a0 + r) * ldq + (b0 + c) * incq]
                                  : 0.0;
    }
  }
  syrk_accumulate<R, C>(p.pre, a0, b0, acc);
  if (p.x != nullptr) {
    for (std::size_t r = 0; r < R; ++r) {
      const double* x_row = p.x + (a0 + r) * p.ldx + b0;
      for (std::size_t h = 0; h < kPairs; ++h) {
        acc[r][h] += p.alpha * load_pair<C>(x_row, 2 * h);
      }
    }
  }
  syrk_accumulate<R, C>(p.post, a0, b0, acc);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = diag ? r : 0; c < C; ++c) {
      q[(a0 + r) * ldq + (b0 + c) * incq] = acc[r][c / 2][c % 2];
    }
  }
}

template <std::size_t R>
void syrk_row_block(const SyrkPlan& p, std::size_t n, std::size_t a0,
                    double* q, std::size_t ldq, std::size_t incq) {
  std::size_t b0 = a0;
  for (; b0 + 4 <= n; b0 += 4) syrk_tile<R, 4>(p, a0, b0, q, ldq, incq);
  switch (n - b0) {
    case 1: syrk_tile<R, 1>(p, a0, b0, q, ldq, incq); break;
    case 2: syrk_tile<R, 2>(p, a0, b0, q, ldq, incq); break;
    case 3: syrk_tile<R, 3>(p, a0, b0, q, ldq, incq); break;
    default: break;
  }
}

}  // namespace detail

/// Normal-matrix assembly on the upper triangle of an n x n matrix whose
/// entry (a, b) lives at q[a * ldq + b * incq]: every diagonal / upper
/// entry runs the plan's sequence (see SyrkPlan) with this level's
/// element arithmetic.  A rank-1 term is the historical rank-1 update
/// q(a, b) += (w_t * v_t[a]) * v_t[b] — the rounded product w_t * v_t[a]
/// fed through axpy()'s element arithmetic, t ascending — and the x term
/// is axpy() itself.  The historical update skipped rows with
/// w_t * v_t[a] == 0; dropping that skip is an exact no-op on finite data
/// (see kernels.hpp).  4x4 tiles of the triangle stay in registers
/// through the whole plan instead of re-reading and re-writing q once per
/// term.  Entries below the diagonal are never touched; incq = kLanes
/// addresses one lane of an interleaved batch.
inline void syrk_assemble_upper(const SyrkPlan& p, std::size_t n, double* q,
                                std::size_t ldq, std::size_t incq) {
  std::size_t a0 = 0;
  for (; a0 + 4 <= n; a0 += 4) {
    detail::syrk_row_block<4>(p, n, a0, q, ldq, incq);
  }
  switch (n - a0) {
    case 1: detail::syrk_row_block<1>(p, n, a0, q, ldq, incq); break;
    case 2: detail::syrk_row_block<2>(p, n, a0, q, ldq, incq); break;
    case 3: detail::syrk_row_block<3>(p, n, a0, q, ldq, incq); break;
    default: break;
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
