// AVX-512F implementations of the micro-kernels.
//
// Only compiled when the translation unit is built with AVX-512
// Foundation enabled (-march=x86-64-v4 / native via the IUP_ARCH CMake
// knob); the dispatch header includes this file conditionally, so builds
// without AVX-512 contain none of this code.  Only zmm arithmetic from
// AVX-512F is used (loadu/maskz_loadu/set1/fmadd/add/mul/store) — no
// VL/BW/DQ dependence — so any avx512f CPU runs this level.
//
// Rounding contract relative to kernels::scalar (see kernels.hpp):
//  * element-wise kernels (axpy, axpy2, syrk_assemble_upper) evaluate each
//    element with one FMA, exactly like the AVX2 level, and are
//    position-independent: an element produces the same bits in a zmm
//    lane or in the std::fma tail, so splitting a row into segments
//    cannot change results;
//  * reductions (dot, norm_sq, diff_norm_sq, masked_diff_norm_sq) use two
//    8-lane accumulators over a 16-element body, one optional 8-element
//    chunk, a scalar tail (explicit fma for dot — dot_panel replays it —
//    mul+add for the norms), and the fixed combine tree
//    hsum8(acc0 + acc1) + tail with
//    hsum8(v) = ((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7)).
//    All the *_norm_sq reductions share that tree, keeping identities
//    like diff_norm_sq(x, y) == norm_sq(x - y) exact;
//  * dot_panel reproduces THIS level's dot tree per RHS column while
//    vectorising across columns (see the contract in kernels.hpp).
#pragma once

#include <immintrin.h>

#include <cmath>
#include <cstddef>

namespace iup::linalg::kernels::avx512 {

namespace detail {

/// Fixed-order 8-lane horizontal sum:
/// ((v0 + v1) + (v2 + v3)) + ((v4 + v5) + (v6 + v7)).
inline double hsum8(__m512d v) {
  alignas(64) double lane[8];
  _mm512_store_pd(lane, v);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

}  // namespace detail

inline double dot(const double* a, const double* b, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    i += 8;
  }
  // Explicit fma pins the tail arithmetic the optimiser was already
  // emitting under default FP contraction — dot_panel must be able to
  // replay it exactly (lane or scalar), so it cannot be left to flags.
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], b[i], tail);
  return detail::hsum8(_mm512_add_pd(acc0, acc1)) + tail;
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i,
        _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

/// Per-element: out[i] += fma(b, y[i], a * x[i]), evaluated identically in
/// lanes and tail (the same per-element formula as the AVX2 level).
inline void axpy2(double a, const double* x, double b, const double* y,
                  double* out, std::size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  const __m512d vb = _mm512_set1_pd(b);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d t = _mm512_fmadd_pd(
        vb, _mm512_loadu_pd(y + i),
        _mm512_mul_pd(va, _mm512_loadu_pd(x + i)));
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(out + i), t));
  }
  for (; i < n; ++i) out[i] += std::fma(b, y[i], a * x[i]);
}

namespace detail {

/// acc[r] = fma(w_t * v_t[a0 + r], v_t[b0 .. b0 + 7], acc[r]) over the
/// terms of `s`, ascending t: axpy()'s element arithmetic (one FMA) after
/// the rounded w * v[a] product.
template <std::size_t R>
[[gnu::always_inline]] inline void syrk_accumulate(
    const SyrkRows& s, std::size_t a0, std::size_t b0, __mmask8 cols,
    __m512d (&acc)[R]) {
  for (std::size_t t = 0; t < s.k; ++t) {
    const double* row = s.row(t);
    const double w = s.weight_of(t);
    const __m512d vb = _mm512_maskz_loadu_pd(cols, row + b0);
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm512_fmadd_pd(_mm512_set1_pd(w * row[a0 + r]), vb, acc[r]);
    }
  }
}

/// One R x nc (nc <= 8) tile of syrk_assemble_upper at (a0, b0): row r of
/// the tile is one zmm accumulator, loaded once, fed the plan's terms in
/// order and stored once.  Columns past nc are masked off; a diagonal
/// tile stores only its b >= a entries.  At the sweep's ranks (<= 8) the
/// whole triangle is one tile.
template <std::size_t R>
void syrk_tile(const SyrkPlan& p, std::size_t a0, std::size_t b0,
               std::size_t nc, double* q, std::size_t ldq, std::size_t incq) {
  const bool diag = a0 == b0;
  const __mmask8 cols = static_cast<__mmask8>((1u << nc) - 1);
  alignas(64) double tile[R][8];
  __m512d acc[R];
  if (p.seed != nullptr) {
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm512_maskz_loadu_pd(cols, p.seed + (a0 + r) * p.lds + b0);
    }
  } else {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < 8; ++c) {
        tile[r][c] = c < nc && (!diag || c >= r)
                         ? q[(a0 + r) * ldq + (b0 + c) * incq]
                         : 0.0;
      }
      acc[r] = _mm512_load_pd(tile[r]);
    }
  }
  syrk_accumulate(p.pre, a0, b0, cols, acc);
  if (p.x != nullptr) {
    const __m512d alpha = _mm512_set1_pd(p.alpha);
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] = _mm512_fmadd_pd(
          alpha, _mm512_maskz_loadu_pd(cols, p.x + (a0 + r) * p.ldx + b0),
          acc[r]);
    }
  }
  syrk_accumulate(p.post, a0, b0, cols, acc);
  for (std::size_t r = 0; r < R; ++r) _mm512_store_pd(tile[r], acc[r]);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = diag ? r : 0; c < nc; ++c) {
      q[(a0 + r) * ldq + (b0 + c) * incq] = tile[r][c];
    }
  }
}

template <std::size_t R>
void syrk_row_block(const SyrkPlan& p, std::size_t n, std::size_t a0,
                    double* q, std::size_t ldq, std::size_t incq) {
  for (std::size_t b0 = a0; b0 < n; b0 += 8) {
    syrk_tile<R>(p, a0, b0, n - b0 < 8 ? n - b0 : 8, q, ldq, incq);
  }
}

}  // namespace detail

/// syrk_assemble_upper (contract in kernels::scalar): 8x8 register tiles,
/// one FMA per element and rank-1 term, the x term as axpy()'s FMA.
inline void syrk_assemble_upper(const SyrkPlan& p, std::size_t n, double* q,
                                std::size_t ldq, std::size_t incq) {
  std::size_t a0 = 0;
  for (; a0 + 8 <= n; a0 += 8) {
    detail::syrk_row_block<8>(p, n, a0, q, ldq, incq);
  }
  switch (n - a0) {
    case 1: detail::syrk_row_block<1>(p, n, a0, q, ldq, incq); break;
    case 2: detail::syrk_row_block<2>(p, n, a0, q, ldq, incq); break;
    case 3: detail::syrk_row_block<3>(p, n, a0, q, ldq, incq); break;
    case 4: detail::syrk_row_block<4>(p, n, a0, q, ldq, incq); break;
    case 5: detail::syrk_row_block<5>(p, n, a0, q, ldq, incq); break;
    case 6: detail::syrk_row_block<6>(p, n, a0, q, ldq, incq); break;
    case 7: detail::syrk_row_block<7>(p, n, a0, q, ldq, incq); break;
    default: break;
  }
}

inline double norm_sq(const double* x, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d v0 = _mm512_loadu_pd(x + i);
    const __m512d v1 = _mm512_loadu_pd(x + i + 8);
    acc0 = _mm512_fmadd_pd(v0, v0, acc0);
    acc1 = _mm512_fmadd_pd(v1, v1, acc1);
  }
  if (i + 8 <= n) {
    const __m512d v = _mm512_loadu_pd(x + i);
    acc0 = _mm512_fmadd_pd(v, v, acc0);
    i += 8;
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += x[i] * x[i];
  return detail::hsum8(_mm512_add_pd(acc0, acc1)) + tail;
}

inline double diff_norm_sq(const double* x, const double* y, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 =
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    const __m512d d1 =
        _mm512_sub_pd(_mm512_loadu_pd(x + i + 8), _mm512_loadu_pd(y + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
    i += 8;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    tail += d * d;
  }
  return detail::hsum8(_mm512_add_pd(acc0, acc1)) + tail;
}

inline double masked_diff_norm_sq(const double* mask, const double* x,
                                  const double* y, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 =
        _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(mask + i),
                                    _mm512_loadu_pd(x + i)),
                      _mm512_loadu_pd(y + i));
    const __m512d d1 =
        _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(mask + i + 8),
                                    _mm512_loadu_pd(x + i + 8)),
                      _mm512_loadu_pd(y + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m512d d =
        _mm512_sub_pd(_mm512_mul_pd(_mm512_loadu_pd(mask + i),
                                    _mm512_loadu_pd(x + i)),
                      _mm512_loadu_pd(y + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
    i += 8;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = mask[i] * x[i] - y[i];
    tail += d * d;
  }
  return detail::hsum8(_mm512_add_pd(acc0, acc1)) + tail;
}

/// Panel dot (the trsv_multi back-substitution kernel): out[c] =
/// avx512::dot(a, column c of the row-major n x k panel b) bit for bit,
/// vectorised ACROSS the k RHS columns.  Per column the chunk/lane role
/// structure of this level's dot() is replayed exactly: sixteen
/// accumulators (one per mod-16 position class), the optional 8-chunk
/// feeding classes 0..7, an fma tail chain, and the hsum8 combine
/// tree.  Column blocks of 8 run in zmm registers (18 live zmm of the
/// 32); leftover columns replay the identical op sequence in scalar
/// std::fma arithmetic.
inline void dot_panel(const double* a, const double* b, std::size_t ldb,
                      std::size_t n, std::size_t k, double* out) {
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    __m512d acc[16];
    for (int l = 0; l < 16; ++l) acc[l] = _mm512_setzero_pd();
    std::size_t p = 0;
    for (; p + 16 <= n; p += 16) {
      for (int l = 0; l < 16; ++l) {
        acc[l] = _mm512_fmadd_pd(_mm512_set1_pd(a[p + l]),
                                 _mm512_loadu_pd(b + (p + l) * ldb + c),
                                 acc[l]);
      }
    }
    if (p + 8 <= n) {
      for (int l = 0; l < 8; ++l) {
        acc[l] = _mm512_fmadd_pd(_mm512_set1_pd(a[p + l]),
                                 _mm512_loadu_pd(b + (p + l) * ldb + c),
                                 acc[l]);
      }
      p += 8;
    }
    __m512d t = _mm512_setzero_pd();
    for (; p < n; ++p) {
      t = _mm512_fmadd_pd(_mm512_set1_pd(a[p]),
                          _mm512_loadu_pd(b + p * ldb + c), t);
    }
    // hsum8(acc0 + acc1) + tail, replayed per column: lane l of
    // (acc0 + acc1) is acc[l] + acc[l + 8].
    __m512d s[8];
    for (int l = 0; l < 8; ++l) s[l] = _mm512_add_pd(acc[l], acc[l + 8]);
    const __m512d left = _mm512_add_pd(_mm512_add_pd(s[0], s[1]),
                                       _mm512_add_pd(s[2], s[3]));
    const __m512d right = _mm512_add_pd(_mm512_add_pd(s[4], s[5]),
                                        _mm512_add_pd(s[6], s[7]));
    _mm512_storeu_pd(out + c,
                     _mm512_add_pd(_mm512_add_pd(left, right), t));
  }
  for (; c < k; ++c) {
    double acc[16] = {};
    std::size_t p = 0;
    for (; p + 16 <= n; p += 16) {
      for (int l = 0; l < 16; ++l) {
        acc[l] = std::fma(a[p + l], b[(p + l) * ldb + c], acc[l]);
      }
    }
    if (p + 8 <= n) {
      for (int l = 0; l < 8; ++l) {
        acc[l] = std::fma(a[p + l], b[(p + l) * ldb + c], acc[l]);
      }
      p += 8;
    }
    double t = 0.0;
    for (; p < n; ++p) t = std::fma(a[p], b[p * ldb + c], t);
    const double s0 = acc[0] + acc[8], s1 = acc[1] + acc[9];
    const double s2 = acc[2] + acc[10], s3 = acc[3] + acc[11];
    const double s4 = acc[4] + acc[12], s5 = acc[5] + acc[13];
    const double s6 = acc[6] + acc[14], s7 = acc[7] + acc[15];
    out[c] = (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + t;
  }
}

/// Lane axpy: per element fma(alpha[l], x, y), this level's axpy()
/// element arithmetic.  Written with std::fma over the kLanes lanes so it
/// needs nothing beyond AVX-512F (the compiler vectorises the lane loop).
inline void axpy_lanes(const double* alpha, const double* x, double* y,
                       std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      y[p * kLanes + l] = std::fma(alpha[l], x[p * kLanes + l],
                                   y[p * kLanes + l]);
    }
  }
}

/// Lane dot: out[l] = avx512::dot(lane l of a, lane l of b) bit for bit —
/// dot()'s sixteen position classes, the optional 8-chunk, the fma tail
/// chain and the hsum8(acc0 + acc1) + tail combine, replayed per lane in
/// std::fma arithmetic like dot_panel's leftover columns.
inline void dot_lanes(const double* a, const double* b, std::size_t n,
                      double* out) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    // Lane l's p-th element sits at [p * kLanes + l].
    const auto term = [&](std::size_t p, double acc) {
      return std::fma(a[p * kLanes + l], b[p * kLanes + l], acc);
    };
    double acc[16] = {};
    std::size_t p = 0;
    for (; p + 16 <= n; p += 16) {
      for (int c = 0; c < 16; ++c) acc[c] = term(p + c, acc[c]);
    }
    if (p + 8 <= n) {
      for (int c = 0; c < 8; ++c) acc[c] = term(p + c, acc[c]);
      p += 8;
    }
    double t = 0.0;
    for (; p < n; ++p) t = term(p, t);
    const double s0 = acc[0] + acc[8], s1 = acc[1] + acc[9];
    const double s2 = acc[2] + acc[10], s3 = acc[3] + acc[11];
    const double s4 = acc[4] + acc[12], s5 = acc[5] + acc[13];
    const double s6 = acc[6] + acc[14], s7 = acc[7] + acc[15];
    out[l] = (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + t;
  }
}

}  // namespace iup::linalg::kernels::avx512
