// AVX-512F implementations of the micro-kernels.
//
// Only compiled when the translation unit is built with AVX-512
// Foundation enabled (-march=x86-64-v4 / native via the IUP_ARCH CMake
// knob); the dispatch header includes this file conditionally, so builds
// without AVX-512 contain none of this code.  Only zmm arithmetic from
// AVX-512F is used (loadu/set1/fmadd/add/mul/store) — no VL/BW/DQ
// dependence — so any avx512f CPU runs this level.
//
// Rounding contract relative to kernels::scalar (see kernels.hpp):
//  * element-wise kernels (axpy, axpy2, add_outer_upper) evaluate each
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

// Streams FULL rows like the AVX2 level (uniform row axpys beat the
// half-flop triangular update at the sweep's rank): the strict lower
// triangle accumulates mirrored contributions and callers re-mirror from
// the upper triangle before consuming, per the kernels.hpp contract.
inline void add_outer_upper(double weight, const double* v, std::size_t n,
                            double* q, std::size_t ld) {
  for (std::size_t a = 0; a < n; ++a) {
    const double va = weight * v[a];
    if (va == 0.0) continue;
    axpy(va, v, q + a * ld, n);
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
