// The SIMD micro-kernel layer (src/linalg/kernels/): scalar-vs-active
// level agreement over odd lengths, unaligned offsets and tail
// remainders, the packed-GEMM accumulation contract, and the exactness
// identities the dispatch header documents.
//
// In a scalar-level build (no IUP_ARCH) the active kernels ARE the scalar
// kernels and the comparisons are trivially exact; the AVX2 CI cell
// (-march=x86-64-v3) is where the cross-level tolerances do real work:
// element-wise kernels may differ from scalar by one FMA rounding per
// element, reductions by the two-lane accumulator reorder.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/kernels/gemm.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"
#include "test_util.hpp"

namespace iup::linalg::kernels {
namespace {

// Lengths straddling every vector-width boundary: sub-lane, one lane,
// lane+tail, the 8-wide unrolled body, and awkward primes.
const std::size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 11, 13,
                                16, 17, 23, 31, 32, 37, 64, 67};

// Offsets 0..3 shift the operands off 32-byte alignment in every way a
// row_span suffix can.
constexpr std::size_t kMaxOffset = 4;

std::vector<double> random_vec(std::size_t n, rng::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

TEST(KernelDispatch, LevelNameIsConsistent) {
  if (active_level() == Level::kAvx512) {
    EXPECT_STREQ(active_level_name(), "avx512");
    // The packed GEMM runs its AVX2 block kernel at every SIMD level.
    EXPECT_TRUE(gemm_is_vectorized());
  } else if (active_level() == Level::kAvx2) {
    EXPECT_STREQ(active_level_name(), "avx2");
    EXPECT_TRUE(gemm_is_vectorized());
  } else {
    EXPECT_STREQ(active_level_name(), "scalar");
    EXPECT_FALSE(gemm_is_vectorized());
  }
}

TEST(KernelDot, MatchesScalarWithinReductionTolerance) {
  rng::Rng rng(101);
  for (const std::size_t n : kLengths) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const auto a = random_vec(n + off, rng);
      const auto b = random_vec(n + off, rng);
      const double got = dot(a.data() + off, b.data() + off, n);
      const double ref = scalar::dot(a.data() + off, b.data() + off, n);
      const double tol =
          1e-15 * static_cast<double>(n) * (std::abs(ref) + 1.0);
      EXPECT_NEAR(got, ref, tol) << "n=" << n << " off=" << off;
    }
  }
}

TEST(KernelDot, ValueIndependentOfAlignment) {
  // The reduction tree depends only on the length — the same data at a
  // different offset must produce the same bits.
  rng::Rng rng(102);
  const std::size_t n = 37;
  const auto a = random_vec(n, rng);
  const auto b = random_vec(n, rng);
  const double base = dot(a.data(), b.data(), n);
  for (std::size_t off = 1; off < kMaxOffset; ++off) {
    std::vector<double> as(n + off), bs(n + off);
    std::copy(a.begin(), a.end(), as.begin() + off);
    std::copy(b.begin(), b.end(), bs.begin() + off);
    EXPECT_EQ(dot(as.data() + off, bs.data() + off, n), base) << off;
  }
}

TEST(KernelAxpy, MatchesScalarWithinOneFmaRounding) {
  rng::Rng rng(103);
  for (const std::size_t n : kLengths) {
    for (std::size_t off = 0; off < kMaxOffset; ++off) {
      const auto x = random_vec(n + off, rng);
      auto got = random_vec(n + off, rng);
      auto ref = got;
      axpy(0.73, x.data() + off, got.data() + off, n);
      scalar::axpy(0.73, x.data() + off, ref.data() + off, n);
      for (std::size_t i = 0; i < n + off; ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-14 * (std::abs(ref[i]) + 1.0))
            << "n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(KernelAxpy, PositionIndependentPerElement) {
  // Splitting a row into tile segments must not change any element: the
  // same (alpha, x, y) triple produces the same bits in a lane or a tail.
  rng::Rng rng(104);
  const std::size_t n = 29;
  const auto x = random_vec(n, rng);
  const auto y0 = random_vec(n, rng);
  auto whole = y0;
  axpy(-1.37, x.data(), whole.data(), n);
  for (const std::size_t split : {1ul, 4ul, 5ul, 13ul, 28ul}) {
    auto parts = y0;
    axpy(-1.37, x.data(), parts.data(), split);
    axpy(-1.37, x.data() + split, parts.data() + split, n - split);
    EXPECT_EQ(parts, whole) << "split=" << split;
  }
}

TEST(KernelAxpy2, MatchesTwoAxpysWithinRounding) {
  rng::Rng rng(105);
  for (const std::size_t n : kLengths) {
    const auto x = random_vec(n, rng);
    const auto y = random_vec(n, rng);
    auto got = random_vec(n, rng);
    auto ref = got;
    axpy2(0.31, x.data(), -1.7, y.data(), got.data(), n);
    scalar::axpy2(0.31, x.data(), -1.7, y.data(), ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], ref[i], 2e-14 * (std::abs(ref[i]) + 1.0))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelNorms, ReductionsMatchScalarAndShareTreeShape) {
  rng::Rng rng(106);
  for (const std::size_t n : kLengths) {
    const auto x = random_vec(n, rng);
    const auto y = random_vec(n, rng);
    std::vector<double> mask(n);
    for (double& v : mask) v = rng.uniform() < 0.5 ? 1.0 : 0.0;

    const double tol = 1e-14 * static_cast<double>(n);
    EXPECT_NEAR(norm_sq(x.data(), n), scalar::norm_sq(x.data(), n),
                tol * (scalar::norm_sq(x.data(), n) + 1.0));
    EXPECT_NEAR(diff_norm_sq(x.data(), y.data(), n),
                scalar::diff_norm_sq(x.data(), y.data(), n),
                tol * (scalar::diff_norm_sq(x.data(), y.data(), n) + 1.0));
    EXPECT_NEAR(
        masked_diff_norm_sq(mask.data(), x.data(), y.data(), n),
        scalar::masked_diff_norm_sq(mask.data(), x.data(), y.data(), n),
        tol *
            (scalar::masked_diff_norm_sq(mask.data(), x.data(), y.data(), n) +
             1.0));

    // Shared-tree identity (exact at every level): diff_norm_sq(x, y)
    // == norm_sq of the materialised difference.
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) d[i] = x[i] - y[i];
    EXPECT_EQ(diff_norm_sq(x.data(), y.data(), n), norm_sq(d.data(), n));
    // And the masked form == diff form on the pre-masked operand.
    std::vector<double> mx(n);
    for (std::size_t i = 0; i < n; ++i) mx[i] = mask[i] * x[i];
    EXPECT_EQ(masked_diff_norm_sq(mask.data(), x.data(), y.data(), n),
              diff_norm_sq(mx.data(), y.data(), n));
  }
}

// The contract's reference for the syrk kernels: the historical rank-1
// update of the upper triangle, one row at a time through the active
// level's axpy (rows whose pivot w * v[a] is exactly zero skipped).
void rank1_upper(double w, const double* v, std::size_t n, double* q,
                 std::size_t ld) {
  for (std::size_t a = 0; a < n; ++a) {
    const double va = w * v[a];
    if (va == 0.0) continue;
    axpy(va, v + a, q + a * ld + a, n - a);
  }
}

TEST(KernelSyrk, UpperTriangleMatchesScalar) {
  rng::Rng rng(107);
  for (const std::size_t n : {1ul, 2ul, 3ul, 5ul, 8ul, 11ul, 16ul}) {
    const auto v = random_vec(3 * n, rng);
    const auto seed = random_vec(n * n, rng);
    auto got = seed;
    auto ref = seed;
    const SyrkRows rows{.v = v.data(), .ldv = n, .k = 3, .weight = 0.83};
    syrk_upper(rows, n, got.data(), n, 1);
    scalar::syrk_assemble_upper({.pre = rows}, n, ref.data(), n, 1);
    // Across levels one FMA rounding per term separates the results.
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a; b < n; ++b) {
        EXPECT_NEAR(got[a * n + b], ref[a * n + b],
                    1e-14 * (std::abs(ref[a * n + b]) + 1.0))
            << n << " @" << a << "," << b;
      }
    }
  }
}

// syrk_upper against its contract: every diagonal / upper entry equals k
// consecutive rank1_upper calls at the active level, bit for bit.
// Shapes cover every tile edge at every level (n = 1..12 includes the
// library's rank 6 and the 4- and 8-wide tile boundaries), k = 0..40,
// the weight forms (none, one shared weight, a per-term list with +/-1
// and general values), exact zeros in the rows, strided and gathered
// rows, and a lane-interleaved destination.
TEST(KernelSyrk, BitIdenticalToConsecutiveRank1Updates) {
  rng::Rng rng(114);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t n = 1; n <= 12; ++n) {
    for (std::size_t k = 0; k <= 40; ++k) {
      const std::size_t ldv = n + 3;  // strided panel with row padding
      const std::size_t rows = k + 5;
      auto v = random_vec(rows * ldv, rng);
      // Exact zeros: whole pivots and scattered entries.
      for (std::size_t i = 0; i < v.size(); i += 7) v[i] = 0.0;
      std::vector<std::size_t> index(k);
      for (std::size_t t = 0; t < k; ++t) index[t] = rng.uniform_index(rows);
      std::vector<double> weights(k);
      for (std::size_t t = 0; t < k; ++t) {
        weights[t] = t % 3 == 0 ? 1.0 : t % 3 == 1 ? -1.0 : rng.normal();
      }
      const int form = static_cast<int>((n + k) % 4);
      SyrkRows s{.v = v.data(), .ldv = ldv, .k = k};
      if (form == 1) s.weight = -1.0;
      if (form == 2) s.weights = weights.data();
      if (form == 3) s.index = index.data();
      if (form == 3 && k % 2 == 1) s.weights = weights.data();

      const auto seed = random_vec(n * n, rng);
      auto ref = seed;
      for (std::size_t t = 0; t < k; ++t) {
        rank1_upper(s.weight_of(t), s.row(t), n, ref.data(), n);
      }
      auto got = seed;
      syrk_upper(s, n, got.data(), n, 1);
      // The same update into lane 2 of a kLanes-interleaved batch.
      std::vector<double> lanes(n * n * kLanes, 7.0);
      for (std::size_t e = 0; e < n * n; ++e) lanes[e * kLanes + 2] = seed[e];
      syrk_upper(s, n, lanes.data() + 2, n * kLanes, kLanes);
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
          const std::size_t e = a * n + b;
          if (b >= a) {
            ASSERT_EQ(bits(got[e]), bits(ref[e]))
                << "n=" << n << " k=" << k << " form=" << form << " @" << a
                << "," << b;
            ASSERT_EQ(bits(lanes[e * kLanes + 2]), bits(ref[e]));
          } else {
            ASSERT_EQ(bits(got[e]), bits(seed[e]))
                << "lower entry touched: n=" << n << " @" << a << "," << b;
            ASSERT_EQ(lanes[e * kLanes + 2], seed[e]);
          }
          for (std::size_t l = 0; l < kLanes; ++l) {
            if (l != 2) ASSERT_EQ(lanes[e * kLanes + l], 7.0);
          }
        }
      }
    }
  }
}

TEST(KernelSyrk, AssemblyPlanMatchesSeedCopyTermsAndAxpy) {
  // syrk_assemble_upper runs a whole normal-matrix build in one pass; per
  // upper entry it must equal the unfused sequence at the active level:
  // copy the seed, the `pre` rank1_upper calls, one axpy of alpha * x, the
  // `post` rank1_upper calls.  Every optional part is toggled, into a
  // plain and a lane-interleaved destination.
  rng::Rng rng(116);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t n = 1; n <= 12; ++n) {
    for (std::size_t variant = 0; variant < 16; ++variant) {
      const bool with_seed = (variant & 1) != 0;
      const bool with_x = (variant & 2) != 0;
      const std::size_t k_pre = (variant & 4) != 0 ? n + 3 : 0;
      const std::size_t k_post = (variant & 8) != 0 ? 2 : 0;
      const auto v = random_vec((k_pre + 4) * n, rng);
      const auto band = random_vec(n, rng);
      const auto seed = random_vec(n * n, rng);
      const auto x = random_vec(n * n, rng);
      const auto start = random_vec(n * n, rng);
      std::vector<std::size_t> index(k_pre);
      for (std::size_t t = 0; t < k_pre; ++t) {
        index[t] = (3 * t + 1) % (k_pre + 4);
      }
      const double post_w[2] = {0.61, -2.5};
      const SyrkPlan plan{
          .seed = with_seed ? seed.data() : nullptr,
          .lds = n,
          .pre = {.v = v.data(), .ldv = n, .k = k_pre, .index = index.data(),
                  .weight = -1.0},
          .x = with_x ? x.data() : nullptr,
          .ldx = n,
          .alpha = 0.37,
          .post = {.v = band.data(), .ldv = 0, .k = k_post,
                   .weights = post_w}};

      auto ref = with_seed ? seed : start;
      for (std::size_t t = 0; t < k_pre; ++t) {
        rank1_upper(-1.0, v.data() + index[t] * n, n, ref.data(), n);
      }
      if (with_x) axpy(0.37, x.data(), ref.data(), n * n);
      for (std::size_t t = 0; t < k_post; ++t) {
        rank1_upper(post_w[t], band.data(), n, ref.data(), n);
      }
      auto got = start;
      syrk_assemble_upper(plan, n, got.data(), n, 1);
      std::vector<double> lanes(n * n * kLanes, 7.0);
      for (std::size_t e = 0; e < n * n; ++e) lanes[e * kLanes + 1] = start[e];
      syrk_assemble_upper(plan, n, lanes.data() + 1, n * kLanes, kLanes);
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a; b < n; ++b) {
          const std::size_t e = a * n + b;
          ASSERT_EQ(bits(got[e]), bits(ref[e]))
              << "n=" << n << " variant=" << variant << " @" << a << "," << b;
          ASSERT_EQ(bits(lanes[e * kLanes + 1]), bits(ref[e]));
        }
        for (std::size_t b = 0; b < a; ++b) {
          ASSERT_EQ(got[a * n + b], start[a * n + b]) << "lower touched";
        }
      }
    }
  }
}

TEST(KernelSyrk, GramIntoMatchesThePerRowLoop) {
  // gram_into routes through syrk_upper; it must equal the historical
  // loop — one rank-1 update per row, then the mirror — bit for bit.
  rng::Rng rng(115);
  for (const auto& [rows, cols] : std::vector<std::pair<std::size_t,
                                                        std::size_t>>{
           {0, 3}, {1, 1}, {12, 8}, {96, 8}, {21, 6}, {9, 13}, {40, 16}}) {
    Matrix a = test::random_matrix(rows, cols, rng);
    for (std::size_t i = 0; i < rows; i += 3) a(i, cols / 2) = 0.0;
    Matrix ref(cols, cols, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      rank1_upper(1.0, a.row_span(i).data(), cols, ref.data().data(), cols);
    }
    for (std::size_t p = 0; p < cols; ++p) {
      for (std::size_t q = 0; q < p; ++q) ref(p, q) = ref(q, p);
    }
    Matrix got;
    gram_into(a, got);
    EXPECT_EQ(got, ref) << rows << "x" << cols;
    EXPECT_EQ(a.gram(), ref) << rows << "x" << cols;
  }
}

TEST(KernelGemm, AccumulatesAscendingKAtTheActiveLevel) {
  // Contract: every output element is a single accumulator fed ascending
  // k with the active level's element arithmetic — FMA at kAvx2, mul+add
  // at kScalar.  Exact comparison against that reference, odd shapes
  // covering full tiles, row/column remainders and k tails.
  // The second half sweeps every m, n in 1..9 — each register block
  // shape with every row/column remainder — over short and long k.
  rng::Rng rng(108);
  std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},  {3, 5, 7},    {4, 16, 8},   {5, 17, 9},
      {8, 32, 24}, {13, 19, 23}, {16, 16, 96}, {33, 7, 65}};
  for (std::size_t m = 1; m <= 9; ++m) {
    for (std::size_t n = 1; n <= 9; ++n) {
      for (const std::size_t k : {1ul, 3ul, 8ul, 96ul, 200ul}) {
        shapes.push_back({m, k, n});
      }
    }
  }
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const auto a = random_vec(m * k, rng);
    const auto b = random_vec(k * n, rng);
    auto got = random_vec(m * n, rng);
    auto ref = got;
    gemm_accumulate(a.data(), k, b.data(), n, got.data(), n, m, k, n);
    const bool fma = active_level() != Level::kScalar;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = ref[i * n + j];
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc = fma ? std::fma(a[i * k + kk], b[kk * n + j], acc)
                    : acc + a[i * k + kk] * b[kk * n + j];
        }
        ref[i * n + j] = acc;
      }
    }
    EXPECT_EQ(got, ref) << m << "x" << k << "x" << n;
  }
}

TEST(KernelGemm, RespectsLeadingDimensions) {
  // Operate on an interior block of larger row-major buffers.
  rng::Rng rng(109);
  const std::size_t m = 6, k = 10, n = 9;
  const std::size_t lda = k + 3, ldb = n + 2, ldc = n + 5;
  const auto a = random_vec(m * lda, rng);
  const auto b = random_vec(k * ldb, rng);
  auto got = random_vec(m * ldc, rng);
  auto ref = got;
  gemm_accumulate(a.data(), lda, b.data(), ldb, got.data(), ldc, m, k, n);
  const bool fma = active_level() != Level::kScalar;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = ref[i * ldc + j];
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = fma ? std::fma(a[i * lda + kk], b[kk * ldb + j], acc)
                  : acc + a[i * lda + kk] * b[kk * ldb + j];
      }
      ref[i * ldc + j] = acc;
    }
  }
  EXPECT_EQ(got, ref);
  // Elements outside the written block are untouched.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = n; j < ldc; ++j) {
      SCOPED_TRACE(i);
      EXPECT_EQ(got[i * ldc + j], ref[i * ldc + j]);
    }
  }
}

TEST(KernelDotPanel, EveryColumnBitIdenticalToDot) {
  // The trsv_multi contract: out[c] must reproduce the active level's
  // dot() on a contiguous copy of panel column c, bit for bit — this is
  // what lets the multi-RHS SPD back substitution keep every RHS equal to
  // the historical single-column solve.  Cover sub-lane, lane-boundary
  // and tail lengths in BOTH dimensions plus padded leading dimensions.
  rng::Rng rng(111);
  for (const std::size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul,
                              12ul, 15ul, 16ul, 17ul, 31ul, 37ul}) {
    for (const std::size_t k : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul,
                                11ul, 16ul, 19ul}) {
      for (const std::size_t pad : {0ul, 3ul}) {
        const std::size_t ld = k + pad;
        const auto a = random_vec(n, rng);
        const auto panel = random_vec(n * ld + 1, rng);
        std::vector<double> out(k, -1.0);
        dot_panel(a.data(), panel.data(), ld, n, k, out.data());
        for (std::size_t c = 0; c < k; ++c) {
          std::vector<double> col(n);
          for (std::size_t p = 0; p < n; ++p) col[p] = panel[p * ld + c];
          EXPECT_EQ(out[c], dot(a.data(), col.data(), n))
              << "n=" << n << " k=" << k << " ld=" << ld << " c=" << c;
        }
      }
    }
  }
}

TEST(KernelDotPanel, ScalarLevelMatchesScalarDot) {
  // The always-available reference level obeys the same contract.
  rng::Rng rng(112);
  const std::size_t n = 13, k = 6;
  const auto a = random_vec(n, rng);
  const auto panel = random_vec(n * k, rng);
  std::vector<double> out(k);
  scalar::dot_panel(a.data(), panel.data(), k, n, k, out.data());
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<double> col(n);
    for (std::size_t p = 0; p < n; ++p) col[p] = panel[p * k + c];
    EXPECT_EQ(out[c], scalar::dot(a.data(), col.data(), n)) << c;
  }
}

TEST(KernelLanes, EveryLaneBitIdenticalToDotAndAxpy) {
  // The lane-batched SPD contract: lane l of dot_lanes / axpy_lanes must
  // reproduce the active level's dot() / axpy() on contiguous copies of
  // that lane, across every chunk and tail length of the dot tree.
  rng::Rng rng(113);
  for (std::size_t n = 0; n <= 40; ++n) {
    const auto a = random_vec(n * kLanes, rng);
    const auto b = random_vec(n * kLanes, rng);
    const auto alpha = random_vec(kLanes, rng);
    double dots[kLanes];
    dot_lanes(a.data(), b.data(), n, dots);
    auto y = b;
    axpy_lanes(alpha.data(), a.data(), y.data(), n);
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::vector<double> al(n), bl(n);
      for (std::size_t p = 0; p < n; ++p) {
        al[p] = a[p * kLanes + l];
        bl[p] = b[p * kLanes + l];
      }
      EXPECT_EQ(dots[l], dot(al.data(), bl.data(), n)) << n << " lane " << l;
      axpy(alpha[l], al.data(), bl.data(), n);
      for (std::size_t p = 0; p < n; ++p) {
        EXPECT_EQ(y[p * kLanes + l], bl[p]) << n << " lane " << l;
      }
    }
  }
}

TEST(KernelContract, ZeroSkipIsExactOnFiniteData) {
  // The documented claim behind every pivot zero-skip: adding 0.0 * v
  // contributions cannot change a finite accumulation.
  rng::Rng rng(110);
  const std::size_t n = 24;
  const auto x = random_vec(n, rng);
  auto with = random_vec(n, rng);
  const auto without = with;
  axpy(0.0, x.data(), with.data(), n);
  EXPECT_EQ(with, without);
}

}  // namespace
}  // namespace iup::linalg::kernels
