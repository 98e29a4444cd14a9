// The batched multi-RHS SPD pipeline: solve_factored_spd_multi must be
// bit-identical, column for column, to the single-RHS solve_factored_spd
// loop it replaces (the contract in linalg/cholesky.hpp), and the
// mask-grouped Algorithm-1 sweep built on it must be bit-identical to the
// ungrouped sweep at every thread count.  All comparisons here are exact
// (operator==), never tolerances — the CI matrix runs this suite at every
// kernel dispatch level (scalar, AVX2, AVX-512).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "api/engine.hpp"
#include "core/self_augmented.hpp"
#include "eval/experiment.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"
#include "test_util.hpp"

namespace iup {
namespace {

/// Well-conditioned SPD matrix: Gram of a random tall factor + lambda*I.
linalg::Matrix random_spd(std::size_t n, rng::Rng& rng) {
  linalg::Matrix a = test::random_matrix(n + 4, n, rng).gram();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.05;
  return a;
}

/// Per-column reference: factor once, solve_factored_spd per column.
linalg::Matrix solve_columns_one_by_one(const linalg::Matrix& factor,
                                        const linalg::Matrix& rhs_panel) {
  linalg::Matrix out = rhs_panel;
  std::vector<double> col(rhs_panel.rows());
  for (std::size_t c = 0; c < rhs_panel.cols(); ++c) {
    rhs_panel.copy_col_into(c, col);
    linalg::solve_factored_spd(factor, col);
    out.set_col(c, col);
  }
  return out;
}

TEST(SpdSolveMulti, EveryColumnBitIdenticalToSingleRhsSolve) {
  rng::Rng rng(301);
  for (const std::size_t n : {1ul, 2ul, 3ul, 5ul, 8ul, 11ul, 13ul, 16ul}) {
    for (const std::size_t k : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul,
                                12ul, 17ul}) {
      linalg::Matrix factor = random_spd(n, rng);
      std::vector<double> diag(n);
      ASSERT_TRUE(linalg::factor_spd(factor, diag)) << n;

      const linalg::Matrix rhs = test::random_matrix(n, k, rng);
      linalg::Matrix panel = rhs;
      std::vector<double> dots(k);
      linalg::solve_factored_spd_multi(factor, panel, dots);

      EXPECT_EQ(panel, solve_columns_one_by_one(factor, rhs))
          << "n=" << n << " k=" << k << " level="
          << linalg::kernels::active_level_name();
    }
  }
}

TEST(SpdSolveMulti, DuplicatedRhsColumnsProduceIdenticalSolutions) {
  // The mask-group aliasing case: several grid columns can carry the same
  // right-hand side; their panel columns must come out bit-equal.
  rng::Rng rng(302);
  const std::size_t n = 8, k = 6;
  linalg::Matrix factor = random_spd(n, rng);
  std::vector<double> diag(n);
  ASSERT_TRUE(linalg::factor_spd(factor, diag));

  const std::vector<double> b = test::random_matrix(n, 1, rng).col(0);
  linalg::Matrix panel(n, k);
  for (std::size_t c = 0; c < k; ++c) panel.set_col(c, b);
  std::vector<double> dots(k);
  linalg::solve_factored_spd_multi(factor, panel, dots);
  for (std::size_t c = 1; c < k; ++c) {
    EXPECT_EQ(panel.col(c), panel.col(0)) << c;
  }
}

TEST(SpdSolveMulti, RetryBumpFactorMatchesSingleRhsSolve) {
  // Rank-deficient Gram: the plain factorisation fails and factor_spd
  // recovers via the deterministic diagonal bump.  The bumped factor must
  // feed the multi solve exactly like the single-RHS path.
  rng::Rng rng(303);
  const std::size_t n = 6, k = 5;
  const linalg::Matrix low = test::random_low_rank(n, n, 2, rng);
  linalg::Matrix a = low.gram();  // rank 2, PSD, not PD

  linalg::reset_spd_stats();
  linalg::Matrix factor = a;
  std::vector<double> diag(n);
  ASSERT_TRUE(linalg::factor_spd(factor, diag));
  const linalg::SpdStats stats = linalg::spd_stats();
  EXPECT_EQ(stats.cholesky_failures, 1u);
  EXPECT_EQ(stats.bump_recoveries, 1u);

  const linalg::Matrix rhs = test::random_matrix(n, k, rng);
  linalg::Matrix panel = rhs;
  std::vector<double> dots(k);
  linalg::solve_factored_spd_multi(factor, panel, dots);
  EXPECT_EQ(panel, solve_columns_one_by_one(factor, rhs));
}

TEST(SpdSolveMulti, RejectsShapeAndScratchMismatch) {
  rng::Rng rng(304);
  linalg::Matrix factor = random_spd(4, rng);
  std::vector<double> diag(4);
  ASSERT_TRUE(linalg::factor_spd(factor, diag));
  linalg::Matrix bad_rows(3, 2);
  std::vector<double> dots(2);
  EXPECT_THROW(linalg::solve_factored_spd_multi(factor, bad_rows, dots),
               std::invalid_argument);
  linalg::Matrix panel(4, 3);
  EXPECT_THROW(linalg::solve_factored_spd_multi(factor, panel, dots),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Lane-batched SPD factor + solve (linalg::factor_spd_lanes).
// ---------------------------------------------------------------------------

constexpr std::size_t kL = linalg::kernels::kLanes;

/// Interleave `mats` (each n x n) into the factor_spd_lanes layout; lanes
/// past mats.size() get the identity.
std::vector<double> interleave(const std::vector<linalg::Matrix>& mats,
                               std::size_t n) {
  std::vector<double> lanes(n * n * kL);
  for (std::size_t l = 0; l < kL; ++l) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        lanes[(a * n + b) * kL + l] =
            l < mats.size() ? mats[l](a, b) : (a == b ? 1.0 : 0.0);
      }
    }
  }
  return lanes;
}

/// Run a batch: factor the lanes, solve `rhs[l]` in lane l.  Returns the
/// ok mask; `factors[l]` / `solutions[l]` receive lane l's results.
unsigned solve_batch(const std::vector<linalg::Matrix>& mats,
                     const std::vector<std::vector<double>>& rhs,
                     std::size_t n, std::vector<linalg::Matrix>& factors,
                     std::vector<std::vector<double>>& solutions) {
  std::vector<double> lanes = interleave(mats, n);
  std::vector<double> bx(n * kL, 0.0);
  for (std::size_t l = 0; l < rhs.size(); ++l) {
    for (std::size_t a = 0; a < n; ++a) bx[a * kL + l] = rhs[l][a];
  }
  const unsigned ok = linalg::factor_spd_lanes(lanes, n);
  linalg::solve_factored_spd_lanes(lanes, bx, n);
  factors.assign(mats.size(), linalg::Matrix(n, n));
  solutions.assign(mats.size(), std::vector<double>(n));
  for (std::size_t l = 0; l < mats.size(); ++l) {
    for (std::size_t a = 0; a < n; ++a) {
      solutions[l][a] = bx[a * kL + l];
      for (std::size_t b = a; b < n; ++b) {
        factors[l](a, b) = lanes[(a * n + b) * kL + l];
      }
    }
  }
  return ok;
}

/// The single-system reference: factor_spd, then solve_factored_spd;
/// `factor` keeps only the diagonal and upper triangle (the factor).
void solve_single(const linalg::Matrix& a, std::vector<double>& x,
                  linalg::Matrix& factor) {
  const std::size_t n = a.rows();
  linalg::Matrix work = a;
  std::vector<double> diag(n);
  ASSERT_TRUE(linalg::factor_spd(work, diag));
  linalg::solve_factored_spd(work, x);
  factor = linalg::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) factor(i, j) = work(i, j);
  }
}

TEST(SpdLanes, EveryLaneBitIdenticalToSingleSystemPath) {
  rng::Rng rng(310);
  for (std::size_t n = 1; n <= 16; ++n) {
    std::vector<linalg::Matrix> mats;
    std::vector<std::vector<double>> rhs;
    for (std::size_t l = 0; l < kL; ++l) {
      mats.push_back(random_spd(n, rng));
      rhs.push_back(test::random_matrix(n, 1, rng).col(0));
    }
    std::vector<linalg::Matrix> factors;
    std::vector<std::vector<double>> solutions;
    ASSERT_EQ(solve_batch(mats, rhs, n, factors, solutions), (1u << kL) - 1);
    for (std::size_t l = 0; l < kL; ++l) {
      std::vector<double> x = rhs[l];
      linalg::Matrix factor;
      solve_single(mats[l], x, factor);
      EXPECT_EQ(factors[l], factor) << "n=" << n << " lane " << l;
      EXPECT_EQ(solutions[l], x) << "n=" << n << " lane " << l << " level="
                                 << linalg::kernels::active_level_name();
    }
  }
}

TEST(SpdLanes, PartialBatchesAndNeighboursDoNotChangeALane) {
  // A lane's bits depend on its own system only: the same system gives
  // the same answer alone (identity padding), in a partial batch, and in
  // any position of a full batch.
  rng::Rng rng(311);
  const std::size_t n = 8;
  const linalg::Matrix target = random_spd(n, rng);
  const std::vector<double> b = test::random_matrix(n, 1, rng).col(0);
  std::vector<double> expected = b;
  linalg::Matrix expected_factor;
  solve_single(target, expected, expected_factor);
  for (std::size_t count = 1; count <= kL; ++count) {
    for (std::size_t pos = 0; pos < count; ++pos) {
      std::vector<linalg::Matrix> mats;
      std::vector<std::vector<double>> rhs;
      for (std::size_t l = 0; l < count; ++l) {
        mats.push_back(l == pos ? target : random_spd(n, rng));
        rhs.push_back(l == pos ? b : test::random_matrix(n, 1, rng).col(0));
      }
      std::vector<linalg::Matrix> factors;
      std::vector<std::vector<double>> solutions;
      EXPECT_EQ(solve_batch(mats, rhs, n, factors, solutions),
                (1u << kL) - 1);  // padding lanes factor the identity
      EXPECT_EQ(solutions[pos], expected) << count << " lanes, pos " << pos;
      EXPECT_EQ(factors[pos], expected_factor);
    }
  }
}

TEST(SpdLanes, FailingLaneMidBatchReplaysTheSingleSystemLadder) {
  // Lanes 1 and 2 fail their first attempt: a rank-deficient Gram (the
  // single path rescues it with a diagonal bump) and an indefinite matrix
  // (LU fallback).  The batch must flag exactly those lanes, count
  // nothing itself, leave the healthy lanes exact — and re-solving the
  // flagged lanes through solve_spd_into, as the sweep does, must give
  // the results and SpdStats deltas of solve_spd_into alone.
  rng::Rng rng(312);
  const std::size_t n = 6;
  linalg::Matrix indefinite = random_spd(n, rng);
  indefinite(2, 2) = -3.0;
  const std::vector<linalg::Matrix> mats = {
      random_spd(n, rng), test::random_low_rank(n, n, 2, rng).gram(),
      indefinite, random_spd(n, rng)};
  std::vector<std::vector<double>> rhs;
  for (std::size_t l = 0; l < kL; ++l) {
    rhs.push_back(test::random_matrix(n, 1, rng).col(0));
  }

  // Reference: every lane through solve_spd_into on its own.
  linalg::reset_spd_stats();
  std::vector<std::vector<double>> expected;
  for (std::size_t l = 0; l < kL; ++l) {
    linalg::Matrix work = mats[l];
    std::vector<double> x = rhs[l];
    std::vector<double> diag(n);
    linalg::solve_spd_into(work, x, diag);
    expected.push_back(x);
  }
  const linalg::SpdStats reference = linalg::spd_stats();
  ASSERT_EQ(reference.cholesky_failures, 2u);
  ASSERT_EQ(reference.bump_recoveries, 1u);
  ASSERT_EQ(reference.lu_fallbacks, 1u);

  linalg::reset_spd_stats();
  std::vector<linalg::Matrix> factors;
  std::vector<std::vector<double>> solutions;
  const unsigned ok = solve_batch(mats, rhs, n, factors, solutions);
  EXPECT_EQ(ok, 0b1001u);
  const linalg::SpdStats after_batch = linalg::spd_stats();
  EXPECT_EQ(after_batch.cholesky_failures, 0u);
  EXPECT_EQ(after_batch.bump_recoveries, 0u);
  EXPECT_EQ(after_batch.lu_fallbacks, 0u);
  for (std::size_t l = 0; l < kL; ++l) {
    if ((ok & (1u << l)) != 0) {
      EXPECT_EQ(solutions[l], expected[l]) << "lane " << l;
      continue;
    }
    linalg::Matrix work = mats[l];
    std::vector<double> x = rhs[l];
    std::vector<double> diag(n);
    linalg::solve_spd_into(work, x, diag);
    EXPECT_EQ(x, expected[l]) << "lane " << l;
  }
  const linalg::SpdStats replayed = linalg::spd_stats();
  EXPECT_EQ(replayed.cholesky_failures, reference.cholesky_failures);
  EXPECT_EQ(replayed.bump_recoveries, reference.bump_recoveries);
  EXPECT_EQ(replayed.lu_fallbacks, reference.lu_fallbacks);
}

TEST(SpdLanes, RejectsSizeMismatch) {
  std::vector<double> lanes(3 * 3 * kL);
  std::vector<double> bx(3 * kL);
  EXPECT_THROW((void)linalg::factor_spd_lanes(lanes, 4),
               std::invalid_argument);
  EXPECT_THROW(linalg::solve_factored_spd_lanes(lanes, bx, 4),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mask-grouped sweep identities.
// ---------------------------------------------------------------------------

core::RsvdProblem structured_problem(const core::BandLayout& layout,
                                     rng::Rng& rng) {
  // A mask with realistic sharing: whole bands blank out a common row
  // pattern, plus some per-column noise — so the sweep sees a mix of
  // multi-column groups and unique masks (both paths exercised).
  const std::size_t m = layout.links;
  const std::size_t n = layout.num_cells();
  const linalg::Matrix x_full = test::random_low_rank(m, n, 3, rng);
  core::RsvdProblem problem;
  problem.b = linalg::Matrix(m, n, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    problem.b(layout.band_of(j), j) = 0.0;  // shared in-band pattern
    if (rng.uniform() < 0.15) {
      problem.b(rng.uniform_index(m), j) = 0.0;  // occasional unique mask
    }
  }
  problem.x_b = problem.b.hadamard(x_full);
  problem.p = x_full;
  for (double& v : problem.p.data()) v += rng.normal(0.0, 0.01);
  return problem;
}

core::RsvdResult solve_grouped(const core::RsvdProblem& problem,
                               const core::BandLayout& layout, bool grouped,
                               std::size_t threads,
                               bool constraint2 = true) {
  core::RsvdOptions options;
  options.max_iters = 6;
  options.group_masks = grouped;
  options.threads = threads;
  options.use_constraint2 = constraint2;
  return core::SelfAugmentedRsvd(layout, options).solve(problem);
}

TEST(MaskGroupedSweep, GroupedBitIdenticalToUngrouped) {
  rng::Rng rng(305);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = structured_problem(layout, rng);

  const core::RsvdResult plain = solve_grouped(problem, layout, false, 1);
  const core::RsvdResult grouped = solve_grouped(problem, layout, true, 1);
  ASSERT_GT(grouped.mask_groups, 0u);
  ASSERT_GT(grouped.grouped_columns, grouped.mask_groups);
  EXPECT_EQ(plain.mask_groups, 0u);  // knob off => no grouping ran
  EXPECT_EQ(grouped.l, plain.l);
  EXPECT_EQ(grouped.r, plain.r);
  EXPECT_EQ(grouped.x_hat, plain.x_hat);
  EXPECT_EQ(grouped.objective_history, plain.objective_history);
}

TEST(MaskGroupedSweep, GroupedBitIdenticalAcrossThreadCounts) {
  rng::Rng rng(306);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = structured_problem(layout, rng);

  const core::RsvdResult base = solve_grouped(problem, layout, true, 1);
  for (const std::size_t threads : {2u, 3u, 8u, 0u /* auto */}) {
    const core::RsvdResult other =
        solve_grouped(problem, layout, true, threads);
    EXPECT_EQ(other.l, base.l) << threads << " threads";
    EXPECT_EQ(other.r, base.r) << threads << " threads";
    EXPECT_EQ(other.x_hat, base.x_hat) << threads << " threads";
    EXPECT_EQ(other.objective_history, base.objective_history);
    EXPECT_EQ(other.mask_groups, base.mask_groups);
  }
}

TEST(MaskGroupedSweep, RowGroupingWithoutConstraint2MatchesUngrouped) {
  // With Constraint 2 off, the L-update rows group by unobserved-column
  // set too; results must still match the ungrouped sweep exactly.
  rng::Rng rng(307);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = structured_problem(layout, rng);

  const core::RsvdResult plain =
      solve_grouped(problem, layout, false, 1, /*constraint2=*/false);
  const core::RsvdResult grouped =
      solve_grouped(problem, layout, true, 4, /*constraint2=*/false);
  EXPECT_EQ(grouped.l, plain.l);
  EXPECT_EQ(grouped.r, plain.r);
  EXPECT_EQ(grouped.x_hat, plain.x_hat);
  EXPECT_EQ(grouped.objective_history, plain.objective_history);
}

TEST(MaskGroupedSweep, PaperLiteralModeGroupedMatchesUngrouped) {
  // kPaperLiteral takes the other similarity-curvature branch of
  // c2_curvature (||H(:, ii)||^2 instead of the Gauss-Seidel neighbour
  // count); grouping must stay exact there too.
  rng::Rng rng(308);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = structured_problem(layout, rng);
  core::RsvdOptions options;
  options.max_iters = 6;
  options.c2_mode = core::Constraint2Mode::kPaperLiteral;
  options.group_masks = false;
  const auto plain = core::SelfAugmentedRsvd(layout, options).solve(problem);
  options.group_masks = true;
  options.threads = 4;
  const auto grouped =
      core::SelfAugmentedRsvd(layout, options).solve(problem);
  ASSERT_GT(grouped.mask_groups, 0u);
  EXPECT_EQ(grouped.l, plain.l);
  EXPECT_EQ(grouped.r, plain.r);
  EXPECT_EQ(grouped.x_hat, plain.x_hat);
  EXPECT_EQ(grouped.objective_history, plain.objective_history);
}

TEST(MaskGroupedSweep, FusedRhsSharedWalkExtremes) {
  // Mask extremes for the panel RHS and the grouped solve, against the
  // ungrouped sweep: a fully-observed mask (one group spanning every
  // column, empty unobserved list) and a near-empty mask (few observed
  // rows, mostly zero source entries), both with Constraint 1 driving the
  // second GEMM block and with it disabled.
  rng::Rng rng(309);
  const core::BandLayout layout{8, 12};
  const std::size_t m = layout.links;
  const std::size_t n = layout.num_cells();
  const linalg::Matrix x_full = test::random_low_rank(m, n, 3, rng);

  for (const double observed_fraction : {1.0, 0.2}) {
    for (const bool with_c1 : {true, false}) {
      core::RsvdProblem problem;
      problem.b = linalg::Matrix(m, n, 1.0);
      if (observed_fraction < 1.0) {
        // Shared sparse pattern: the same few rows observed in every
        // column, so ALL columns land in one group with a long unobserved
        // list and a short shared walk.
        for (std::size_t i = 0; i < m; ++i) {
          if (static_cast<double>(i) >= observed_fraction * m) {
            for (std::size_t j = 0; j < n; ++j) problem.b(i, j) = 0.0;
          }
        }
      }
      problem.x_b = problem.b.hadamard(x_full);
      if (with_c1) {
        problem.p = x_full;
        for (double& v : problem.p.data()) v += rng.normal(0.0, 0.01);
      }

      const core::RsvdResult plain =
          solve_grouped(problem, layout, false, 1, /*constraint2=*/false);
      const core::RsvdResult grouped =
          solve_grouped(problem, layout, true, 3, /*constraint2=*/false);
      ASSERT_GT(grouped.mask_groups, 0u)
          << "obs=" << observed_fraction << " c1=" << with_c1;
      EXPECT_EQ(grouped.grouped_columns, n);  // one signature, all columns
      EXPECT_EQ(grouped.l, plain.l)
          << "obs=" << observed_fraction << " c1=" << with_c1;
      EXPECT_EQ(grouped.r, plain.r);
      EXPECT_EQ(grouped.x_hat, plain.x_hat);
      EXPECT_EQ(grouped.objective_history, plain.objective_history);
    }
  }
}

TEST(MaskGroupedSweep, FailingLaneInTheSweepMatchesUngroupedBitsAndStats) {
  // lambda = 0 and one fully unobserved grid column: that column's Q is
  // exactly zero, so its lane fails inside a batch (every column has its
  // own mask here, so it is group 5: lane 1 of the second batch) and is
  // rescued by the diagonal bump of the unbatched ladder.  Grouped and
  // ungrouped sweeps must agree bit for bit AND in SpdStats.
  rng::Rng rng(313);
  const std::size_t m = 6, n = 10;
  const linalg::Matrix x_full = test::random_low_rank(m, n, 2, rng);
  core::RsvdProblem problem;
  problem.b = linalg::Matrix(m, n, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    problem.b(j % m, j) = 0.0;
    if (j >= m) problem.b((j + 1) % m, j) = 0.0;
  }
  for (std::size_t i = 0; i < m; ++i) problem.b(i, 5) = 0.0;
  problem.x_b = problem.b.hadamard(x_full);
  problem.l0 = test::random_matrix(m, 2, rng);

  core::RsvdOptions options;
  options.lambda = 0.0;
  options.rank = 2;
  options.max_iters = 4;
  options.use_constraint1 = false;
  options.use_constraint2 = false;
  const auto run = [&](bool grouped, linalg::SpdStats& stats) {
    options.group_masks = grouped;
    linalg::reset_spd_stats();
    auto result = core::SelfAugmentedRsvd(core::BandLayout{0, 0}, options)
                      .solve(problem);
    stats = linalg::spd_stats();
    return result;
  };
  linalg::SpdStats plain_stats, grouped_stats;
  const core::RsvdResult plain = run(false, plain_stats);
  const core::RsvdResult grouped = run(true, grouped_stats);
  EXPECT_GE(plain_stats.cholesky_failures, options.max_iters);
  EXPECT_EQ(grouped_stats.cholesky_failures, plain_stats.cholesky_failures);
  EXPECT_EQ(grouped_stats.bump_recoveries, plain_stats.bump_recoveries);
  EXPECT_EQ(grouped_stats.lu_fallbacks, plain_stats.lu_fallbacks);
  EXPECT_EQ(grouped.l, plain.l);
  EXPECT_EQ(grouped.r, plain.r);
  EXPECT_EQ(grouped.x_hat, plain.x_hat);
  EXPECT_EQ(grouped.objective_history, plain.objective_history);
}

TEST(MaskGroupedSweep, FailingLUpdateLaneMatchesPerRowSolveBitsAndStats) {
  // Constraint 2 on: every L row is its own group and rows solve kLanes at
  // a time.  lambda = 0 and a fully unobserved link (row 2, lane 2 of the
  // first batch) leave that row's Q = R^T R minus every outer product
  // (roundoff) plus the Constraint-2 curvature of its two band cells —
  // rank 2 of 4 — so its lane fails mid-batch in most sweeps (and no
  // other system fails).  The failed lane must
  // re-run the per-row ladder: bits AND SpdStats equal the unbatched
  // sweep, which solves every row through solve_spd_into.
  rng::Rng rng(314);
  const core::BandLayout layout{6, 2};
  const std::size_t m = layout.links;
  const std::size_t n = layout.num_cells();
  const linalg::Matrix x_full = test::random_low_rank(m, n, 4, rng);
  core::RsvdProblem problem;
  problem.b = linalg::Matrix(m, n, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    problem.b(layout.band_of(j), j) = 0.0;
    problem.b(2, j) = 0.0;
  }
  problem.x_b = problem.b.hadamard(x_full);
  problem.l0 = test::random_matrix(m, 4, rng);

  core::RsvdOptions options;
  options.lambda = 0.0;
  options.rank = 4;
  options.max_iters = 6;
  options.use_constraint1 = false;
  const auto run = [&](bool batched, linalg::SpdStats& stats) {
    options.group_masks = batched;
    linalg::reset_spd_stats();
    auto result = core::SelfAugmentedRsvd(layout, options).solve(problem);
    stats = linalg::spd_stats();
    return result;
  };
  linalg::SpdStats plain_stats, batched_stats;
  const core::RsvdResult plain = run(false, plain_stats);
  const core::RsvdResult batched = run(true, batched_stats);
  EXPECT_GE(plain_stats.cholesky_failures, 1u);
  EXPECT_EQ(batched_stats.cholesky_failures, plain_stats.cholesky_failures);
  EXPECT_EQ(batched_stats.bump_recoveries, plain_stats.bump_recoveries);
  EXPECT_EQ(batched_stats.lu_fallbacks, plain_stats.lu_fallbacks);
  for (const double v : plain.l.data()) ASSERT_TRUE(std::isfinite(v));
  EXPECT_EQ(batched.l, plain.l);
  EXPECT_EQ(batched.r, plain.r);
  EXPECT_EQ(batched.x_hat, plain.x_hat);
  EXPECT_EQ(batched.objective_history, plain.objective_history);
}

TEST(MaskGroupedSweep, OfficeTestbedReconstructionIsGroupedAndIdentical) {
  // The real pipeline: the office testbed's physically-structured mask
  // concentrates the grid columns on a handful of signatures; the grouped
  // default must reproduce the ungrouped reconstruction bit for bit.
  const auto& run = test::office_run();
  core::RsvdOptions plain_rsvd;
  plain_rsvd.group_masks = false;
  api::Engine grouped;
  api::Engine plain(api::EngineConfig().rsvd(plain_rsvd));
  ASSERT_TRUE(eval::register_run(grouped, run, "office").ok());
  ASSERT_TRUE(eval::register_run(plain, run, "office").ok());
  const auto cells = grouped.reference_cells("office").value();
  const auto request = eval::collect_update_request(run, "office", cells, 45);
  const auto a = grouped.reconstruct(request);
  const auto b = plain.reconstruct(request);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  EXPECT_GT(a.value().solver.mask_groups, 0u);
  EXPECT_GE(a.value().solver.grouped_columns, run.b_mask.cols() / 2);
  EXPECT_EQ(a.value().x_hat(), b.value().x_hat());
  EXPECT_EQ(a.value().solver.objective_history,
            b.value().solver.objective_history);
}

}  // namespace
}  // namespace iup
