// AVX2 + FMA implementations of the micro-kernels.
//
// Only compiled when the translation unit is built with AVX2 and FMA
// enabled (-march=x86-64-v3 / native via the IUP_ARCH CMake knob); the
// dispatch header includes this file conditionally, so a baseline build
// contains no AVX2 code at all.
//
// Rounding contract relative to kernels::scalar (see kernels.hpp):
//  * element-wise kernels (axpy, axpy2, syrk_assemble_upper) evaluate each
//    element with FMA — one rounding instead of the scalar mul+add two —
//    and are position-independent: an element produces the same bits
//    whether it lands in a vector lane or in the std::fma tail, so
//    splitting a row into tile segments cannot change results;
//  * reductions (dot, norm_sq, diff_norm_sq, masked_diff_norm_sq) use two
//    4-lane accumulators combined in a fixed tree, so their value depends
//    only on the input length, never on alignment or call site.  All the
//    *_norm_sq reductions share one tree shape, which keeps identities
//    like diff_norm_sq(x, y) == norm_sq(x - y) exact.
#pragma once

#include <immintrin.h>

#include <cmath>
#include <cstddef>

namespace iup::linalg::kernels::avx2 {

namespace detail {

/// Fixed-order horizontal sum: ((v0 + v1) + (v2 + v3)).
inline double hsum(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace detail

inline double dot(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    i += 4;
  }
  // Explicit fma pins the tail arithmetic the optimiser was already
  // emitting under default FP contraction — dot_panel must be able to
  // replay it exactly (lane or scalar), so it cannot be left to flags.
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], b[i], tail);
  return detail::hsum(_mm256_add_pd(acc0, acc1)) + tail;
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i,
        _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

/// Per-element: out += round(a * x) with b * y fused in:
/// out[i] += fma(b, y[i], a * x[i]), evaluated identically in lanes and
/// tail.
inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vb = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_fmadd_pd(vb, _mm256_loadu_pd(y + i),
                                      _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), t));
  }
  for (; i < n; ++i) out[i] += std::fma(b, y[i], a * x[i]);
}

namespace detail {

/// acc[r] = fma(w_t * v_t[a0 + r], v_t[b0 .. b0 + 3], acc[r]) over the
/// terms of `s`, ascending t: axpy()'s element arithmetic (one FMA) after
/// the rounded w * v[a] product.
template <std::size_t R>
[[gnu::always_inline]] inline void syrk_accumulate(
    const SyrkRows& s, std::size_t a0, std::size_t b0, __m256i cols,
    __m256d (&acc)[R]) {
  for (std::size_t t = 0; t < s.k; ++t) {
    const double* row = s.row(t);
    const double w = s.weight_of(t);
    const __m256d vb = _mm256_maskload_pd(row + b0, cols);
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_fmadd_pd(_mm256_set1_pd(w * row[a0 + r]), vb, acc[r]);
    }
  }
}

/// One R x nc (nc <= 4) tile of syrk_assemble_upper at (a0, b0): row r of
/// the tile is one ymm accumulator, loaded once, fed the plan's terms in
/// order and stored once.  Columns past nc are masked off on load (their
/// lanes compute zeros that are never stored); a diagonal tile stores
/// only its b >= a entries.
template <std::size_t R>
void syrk_tile(const SyrkPlan& p, std::size_t a0, std::size_t b0,
               std::size_t nc, double* q, std::size_t ldq, std::size_t incq) {
  const bool diag = a0 == b0;
  const __m256i cols = _mm256_setr_epi64x(nc > 0 ? -1 : 0, nc > 1 ? -1 : 0,
                                          nc > 2 ? -1 : 0, nc > 3 ? -1 : 0);
  alignas(32) double tile[R][4];
  __m256d acc[R];
  if (p.seed != nullptr) {
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_maskload_pd(p.seed + (a0 + r) * p.lds + b0, cols);
    }
  } else {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        tile[r][c] = c < nc && (!diag || c >= r)
                         ? q[(a0 + r) * ldq + (b0 + c) * incq]
                         : 0.0;
      }
      acc[r] = _mm256_load_pd(tile[r]);
    }
  }
  syrk_accumulate(p.pre, a0, b0, cols, acc);
  if (p.x != nullptr) {
    const __m256d alpha = _mm256_set1_pd(p.alpha);
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm256_fmadd_pd(
          alpha, _mm256_maskload_pd(p.x + (a0 + r) * p.ldx + b0, cols),
          acc[r]);
    }
  }
  syrk_accumulate(p.post, a0, b0, cols, acc);
  for (std::size_t r = 0; r < R; ++r) _mm256_store_pd(tile[r], acc[r]);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = diag ? r : 0; c < nc; ++c) {
      q[(a0 + r) * ldq + (b0 + c) * incq] = tile[r][c];
    }
  }
}

template <std::size_t R>
void syrk_row_block(const SyrkPlan& p, std::size_t n, std::size_t a0,
                    double* q, std::size_t ldq, std::size_t incq) {
  for (std::size_t b0 = a0; b0 < n; b0 += 4) {
    syrk_tile<R>(p, a0, b0, n - b0 < 4 ? n - b0 : 4, q, ldq, incq);
  }
}

}  // namespace detail

/// syrk_assemble_upper (contract in kernels::scalar): 4x4 register tiles,
/// one FMA per element and rank-1 term, the x term as axpy()'s FMA.
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

inline double norm_sq(const double* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
    i += 4;
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += x[i] * x[i];
  return detail::hsum(_mm256_add_pd(acc0, acc1)) + tail;
}

inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
    i += 4;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    tail += d * d;
  }
  return detail::hsum(_mm256_add_pd(acc0, acc1)) + tail;
}

inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(mask + i),
                                    _mm256_loadu_pd(x + i)),
                      _mm256_loadu_pd(y + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(mask + i + 4),
                                    _mm256_loadu_pd(x + i + 4)),
                      _mm256_loadu_pd(y + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d d =
        _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(mask + i),
                                    _mm256_loadu_pd(x + i)),
                      _mm256_loadu_pd(y + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
    i += 4;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = mask[i] * x[i] - y[i];
    tail += d * d;
  }
  return detail::hsum(_mm256_add_pd(acc0, acc1)) + tail;
}

/// Panel dot (the trsv_multi back-substitution kernel): out[c] =
/// avx2::dot(a, column c of the row-major n x k panel b) bit for bit,
/// vectorised ACROSS the k RHS columns.  Per column the chunk/lane role
/// structure of this level's dot() is replayed exactly: eight
/// accumulators (one per mod-8 position class — acc0's four lanes are
/// classes 0..3, acc1's are 4..7), the optional 4-chunk feeding classes
/// 0..3, an fma tail chain, and the combine hsum(acc0 + acc1) + tail
/// — lane sums acc[l] + acc[l+4] first, then the fixed
/// (l0+l1)+(l2+l3) tree, then + tail.  Column blocks of 4 run in ymm
/// registers; leftover columns replay the identical op sequence in
/// scalar std::fma arithmetic.
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    __m256d acc[8];
    for (int l = 0; l < 8; ++l) acc[l] = _mm256_setzero_pd();
    std::size_t p = 0;
    for (; p + 8 <= n; p += 8) {
      for (int l = 0; l < 8; ++l) {
        acc[l] = _mm256_fmadd_pd(_mm256_set1_pd(a[p + l]),
                                 _mm256_loadu_pd(b + (p + l) * ldb + c),
                                 acc[l]);
      }
    }
    if (p + 4 <= n) {
      for (int l = 0; l < 4; ++l) {
        acc[l] = _mm256_fmadd_pd(_mm256_set1_pd(a[p + l]),
                                 _mm256_loadu_pd(b + (p + l) * ldb + c),
                                 acc[l]);
      }
      p += 4;
    }
    __m256d t = _mm256_setzero_pd();
    for (; p < n; ++p) {
      t = _mm256_fmadd_pd(_mm256_set1_pd(a[p]),
                          _mm256_loadu_pd(b + p * ldb + c), t);
    }
    // hsum(acc0 + acc1) + tail, replayed per column: lane l of
    // (acc0 + acc1) is acc[l] + acc[l + 4].
    __m256d s[4];
    for (int l = 0; l < 4; ++l) s[l] = _mm256_add_pd(acc[l], acc[l + 4]);
    const __m256d r = _mm256_add_pd(_mm256_add_pd(s[0], s[1]),
                                    _mm256_add_pd(s[2], s[3]));
    _mm256_storeu_pd(out + c, _mm256_add_pd(r, t));
  }
  for (; c < k; ++c) {
    double acc[8] = {};
    std::size_t p = 0;
    for (; p + 8 <= n; p += 8) {
      for (int l = 0; l < 8; ++l) {
        acc[l] = std::fma(a[p + l], b[(p + l) * ldb + c], acc[l]);
      }
    }
    if (p + 4 <= n) {
      for (int l = 0; l < 4; ++l) {
        acc[l] = std::fma(a[p + l], b[(p + l) * ldb + c], acc[l]);
      }
      p += 4;
    }
    double t = 0.0;
    for (; p < n; ++p) t = std::fma(a[p], b[p * ldb + c], t);
    const double s0 = acc[0] + acc[4], s1 = acc[1] + acc[5];
    const double s2 = acc[2] + acc[6], s3 = acc[3] + acc[7];
    out[c] = ((s0 + s1) + (s2 + s3)) + t;
  }
}

/// Lane axpy (kLanes == 4 problems, one per ymm lane): per element
/// fma(alpha[l], x, y), the same arithmetic as axpy()'s lanes and tail.
inline void axpy_lanes(const double* alpha, const double* x, double* y,
                       std::size_t n) {
  static_assert(kLanes == 4, "one ymm register per interleaved element");
  const __m256d va = _mm256_loadu_pd(alpha);
  for (std::size_t p = 0; p < n; ++p) {
    _mm256_storeu_pd(y + p * 4, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + p * 4),
                                                _mm256_loadu_pd(y + p * 4)));
  }
}

/// Lane dot: out[l] = avx2::dot(lane l of a, lane l of b) bit for bit.
/// The same replay of dot()'s chunk/lane roles as dot_panel (eight
/// position-class accumulators, the optional 4-chunk, the fma tail chain,
/// hsum(acc0 + acc1) + tail), with a per-lane `a` instead of a broadcast.
inline void dot_lanes(const double* a, const double* b, std::size_t n,
                      double* out) {
  const auto fma_at = [&](std::size_t p, __m256d acc) {
    return _mm256_fmadd_pd(_mm256_loadu_pd(a + p * 4),
                           _mm256_loadu_pd(b + p * 4), acc);
  };
  __m256d acc[8];
  for (int l = 0; l < 8; ++l) acc[l] = _mm256_setzero_pd();
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    for (int l = 0; l < 8; ++l) acc[l] = fma_at(p + l, acc[l]);
  }
  if (p + 4 <= n) {
    for (int l = 0; l < 4; ++l) acc[l] = fma_at(p + l, acc[l]);
    p += 4;
  }
  __m256d t = _mm256_setzero_pd();
  for (; p < n; ++p) t = fma_at(p, t);
  __m256d s[4];
  for (int l = 0; l < 4; ++l) s[l] = _mm256_add_pd(acc[l], acc[l + 4]);
  const __m256d r = _mm256_add_pd(_mm256_add_pd(s[0], s[1]),
                                  _mm256_add_pd(s[2], s[3]));
  _mm256_storeu_pd(out, _mm256_add_pd(r, t));
}

}  // namespace iup::linalg::kernels::avx2
