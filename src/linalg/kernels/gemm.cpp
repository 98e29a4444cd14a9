#include "linalg/kernels/gemm.hpp"

#include <cmath>
#include <vector>

#include "linalg/kernels/kernels.hpp"

namespace iup::linalg::kernels {

namespace {

#if defined(IUP_KERNELS_AVX2)

constexpr std::size_t kMr = 4;  ///< rows per register block
constexpr std::size_t kNr = 8;  ///< columns per register block (2 x ymm)

// C tile (kMr x kNr at ldc) += Apanel * Bpanel over the FULL k extent.
// Apanel is k-major (kMr values per k), Bpanel is k-major (kNr values per
// k).  Eight accumulators live in registers: each output element is one
// lane of one accumulator, loaded from C first and fed ascending-k FMAs —
// the same per-element accumulation sequence as the scalar edge loop
// below and the axpy-tiled multiply_into path.
void micro_kernel(const double* ap, const double* bp, std::size_t k,
                  double* c, std::size_t ldc) {
  __m256d acc[kMr][2];
  for (std::size_t r = 0; r < kMr; ++r) {
    acc[r][0] = _mm256_loadu_pd(c + r * ldc);
    acc[r][1] = _mm256_loadu_pd(c + r * ldc + 4);
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m256d b0 = _mm256_loadu_pd(bp + kk * kNr);
    const __m256d b1 = _mm256_loadu_pd(bp + kk * kNr + 4);
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m256d a = _mm256_set1_pd(ap[kk * kMr + r]);
      acc[r][0] = _mm256_fmadd_pd(a, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(a, b1, acc[r][1]);
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    _mm256_storeu_pd(c + r * ldc, acc[r][0]);
    _mm256_storeu_pd(c + r * ldc + 4, acc[r][1]);
  }
}

// Scalar edge path with the micro-kernel's per-element arithmetic (FMA,
// single accumulator, ascending k).
void edge_block(const double* a, std::size_t lda, const double* b,
                std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c[i * ldc + j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = std::fma(a[i * lda + kk], b[kk * ldb + j], acc);
      }
      c[i * ldc + j] = acc;
    }
  }
}

// Grow-only per-thread packing scratch: steady-state calls never allocate
// and concurrent callers (the parallel sweep, batched updates) never
// share buffers.
thread_local std::vector<double> t_apack;
thread_local std::vector<double> t_bpack;

void gemm_avx2(const double* a, std::size_t lda, const double* b,
               std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
               std::size_t k, std::size_t n) {
  const std::size_t m4 = m - m % kMr;
  const std::size_t n8 = n - n % kNr;

  // Pack every full kMr-row panel of A once (panel-major, k-major inside).
  t_apack.resize(m4 * k);
  for (std::size_t ic = 0; ic < m4; ic += kMr) {
    double* ap = t_apack.data() + ic * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t r = 0; r < kMr; ++r) {
        ap[kk * kMr + r] = a[(ic + r) * lda + kk];
      }
    }
  }

  t_bpack.resize(k * kNr);
  for (std::size_t jc = 0; jc < n8; jc += kNr) {
    double* bp = t_bpack.data();
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t cix = 0; cix < kNr; ++cix) {
        bp[kk * kNr + cix] = b[kk * ldb + jc + cix];
      }
    }
    for (std::size_t ic = 0; ic < m4; ic += kMr) {
      micro_kernel(t_apack.data() + ic * k, bp, k, c + ic * ldc + jc, ldc);
    }
  }

  // Right edge (n % kNr columns) over the full-tile rows, then the bottom
  // edge rows over all columns.
  if (n8 < n) {
    edge_block(a, lda, b + n8, ldb, c + n8, ldc, m4, k, n - n8);
  }
  if (m4 < m) {
    edge_block(a + m4 * lda, lda, b, ldb, c + m4 * ldc, ldc, m - m4, k, n);
  }
}

#else  // !IUP_KERNELS_AVX2

constexpr std::size_t kMr = 4;  ///< rows per register block
constexpr std::size_t kNr = 4;  ///< columns per register block

// Naive i-k-j with the row of C as the accumulator: per element this is
// ascending-k mul+add, the scalar level's reference order.  Handles the
// edges of the register-blocked path below.
void ikj_block(const double* a, std::size_t lda, const double* b,
               std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
               std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    double* c_row = c + i * ldc;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i * lda + kk];
      const double* b_row = b + kk * ldb;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += aik * b_row[j];
    }
  }
}

// C tile (kMr x kNr) += A rows * B columns over the full k extent, the
// tile held in local accumulators instead of re-reading and re-writing C
// once per k: each element is still one accumulator loaded from C and
// fed ascending-k mul+add, so the result equals ikj_block bit for bit.
void micro_kernel(const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* c, std::size_t ldc,
                  std::size_t k) {
  double acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < kNr; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* b_row = b + kk * ldb;
    for (std::size_t r = 0; r < kMr; ++r) {
      const double ark = a[r * lda + kk];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += ark * b_row[j];
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

void gemm_scalar(const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                 std::size_t k, std::size_t n) {
  const std::size_t m4 = m - m % kMr;
  const std::size_t n4 = n - n % kNr;
  for (std::size_t i = 0; i < m4; i += kMr) {
    for (std::size_t j = 0; j < n4; j += kNr) {
      micro_kernel(a + i * lda, lda, b + j, ldb, c + i * ldc + j, ldc, k);
    }
  }
  if (n4 < n) ikj_block(a, lda, b + n4, ldb, c + n4, ldc, m4, k, n - n4);
  if (m4 < m) {
    ikj_block(a + m4 * lda, lda, b, ldb, c + m4 * ldc, ldc, m - m4, k, n);
  }
}

#endif  // IUP_KERNELS_AVX2

}  // namespace

void gemm_accumulate(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, std::size_t ldc,
                     std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
#if defined(IUP_KERNELS_AVX2)
  gemm_avx2(a, lda, b, ldb, c, ldc, m, k, n);
#else
  gemm_scalar(a, lda, b, ldb, c, ldc, m, k, n);
#endif
}

bool gemm_is_vectorized() {
#if defined(IUP_KERNELS_AVX2)
  return true;
#else
  return false;
#endif
}

}  // namespace iup::linalg::kernels
