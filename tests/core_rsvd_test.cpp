// Basic RSVD and the self-augmented solver (Algorithm 1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/rsvd.hpp"
#include "core/self_augmented.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "test_util.hpp"

namespace iup::core {
namespace {

// Synthetic completion problem: exactly low-rank matrix observed on a
// random mask.
struct CompletionFixture {
  linalg::Matrix x_true;
  linalg::Matrix b;
  linalg::Matrix x_b;
};

CompletionFixture make_completion(std::size_t m, std::size_t n,
                                  std::size_t rank, double observe_frac,
                                  std::uint64_t seed) {
  rng::Rng rng(seed);
  CompletionFixture f;
  f.x_true = iup::test::random_low_rank(m, n, rank, rng);
  f.b = linalg::Matrix(m, n);
  f.x_b = linalg::Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform() < observe_frac) {
        f.b(i, j) = 1.0;
        f.x_b(i, j) = f.x_true(i, j);
      }
    }
  }
  return f;
}

TEST(BasicRsvd, CompletesLowRankFromPartialObservations) {
  const auto f = make_completion(8, 40, 2, 0.7, 61);
  RsvdOptions opt;
  opt.rank = 2;
  opt.lambda = 1e-3;
  opt.max_iters = 80;
  const auto result = basic_rsvd(f.x_b, f.b, opt);
  EXPECT_LT(linalg::relative_error(result.x_hat, f.x_true), 0.05);
}

TEST(BasicRsvd, ObjectiveDecreasesMonotonically) {
  const auto f = make_completion(6, 30, 3, 0.6, 62);
  RsvdOptions opt;
  opt.rank = 3;
  const auto result = basic_rsvd(f.x_b, f.b, opt);
  ASSERT_GE(result.objective_history.size(), 2u);
  for (std::size_t k = 1; k < result.objective_history.size(); ++k) {
    EXPECT_LE(result.objective_history[k],
              result.objective_history[k - 1] * 1.000001)
        << "iteration " << k;
  }
}

TEST(BasicRsvd, RandomInitReducesObjective) {
  // Plain masked ALS from a random factor can stall in spurious local
  // minima (which is why kWarmStart is the default); the paper's random
  // initialisation is still required to make solid progress.
  const auto f = make_completion(8, 40, 2, 0.75, 63);
  RsvdOptions opt;
  opt.rank = 2;
  opt.lambda = 1e-3;
  opt.max_iters = 120;
  opt.init = FactorInit::kRandom;
  const auto result = basic_rsvd(f.x_b, f.b, opt);
  ASSERT_FALSE(result.objective_history.empty());
  EXPECT_LT(result.objective_history.back(),
            0.5 * result.objective_history.front());
}

TEST(SelfAugmented, StagnationTolDefaultLeavesResultsUnchanged) {
  // The early stop is strictly opt-in: a default-constructed config and an
  // explicit stagnation_tol = 0 must produce the identical trajectory.
  const auto f = make_completion(8, 40, 2, 0.7, 64);
  RsvdOptions defaults;
  defaults.rank = 4;
  defaults.max_iters = 30;
  RsvdOptions explicit_off = defaults;
  explicit_off.stagnation_tol = 0.0;
  const BandLayout layout{8, 5};
  RsvdProblem problem;
  problem.x_b = f.x_b;
  problem.b = f.b;
  const auto a = SelfAugmentedRsvd(layout, defaults).solve(problem);
  const auto b = SelfAugmentedRsvd(layout, explicit_off).solve(problem);
  EXPECT_EQ(a.l, b.l);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.x_hat, b.x_hat);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_FALSE(a.stagnated);
  EXPECT_FALSE(b.stagnated);
}

TEST(SelfAugmented, StagnationTolOptInStopsEarlyNearTheSameObjective) {
  const auto f = make_completion(8, 40, 2, 0.7, 65);
  RsvdOptions full;
  full.rank = 4;
  full.max_iters = 60;
  RsvdOptions early = full;
  early.stagnation_tol = 1e-4;
  const BandLayout layout{8, 5};
  RsvdProblem problem;
  problem.x_b = f.x_b;
  problem.b = f.b;
  const auto ref = SelfAugmentedRsvd(layout, full).solve(problem);
  const auto cut = SelfAugmentedRsvd(layout, early).solve(problem);
  ASSERT_FALSE(ref.objective_history.empty());
  ASSERT_FALSE(cut.objective_history.empty());
  EXPECT_TRUE(cut.stagnated);
  ASSERT_LT(cut.iterations, ref.iterations);
  // The truncated run IS a prefix of the full one (same sweeps, earlier
  // exit), and the abandoned tail was already flat by construction.
  for (std::size_t k = 0; k < cut.objective_history.size(); ++k) {
    EXPECT_EQ(cut.objective_history[k], ref.objective_history[k]) << k;
  }
  EXPECT_NEAR(cut.objective_history.back(), ref.objective_history.back(),
              2e-2 * std::abs(ref.objective_history.back()));
}

TEST(SelfAugmented, RandomInitMatchesWarmStartOnRealPipeline) {
  // On the real (constraint-anchored) problem the paper's random init and
  // our warm start land in the same place.
  const auto& run = iup::test::office_run();
  const auto& x0 = run.ground_truth.at_day(0);
  const auto mic = extract_mic(x0);
  const auto lrr = solve_lrr(mic.x_mic, x0);
  sim::Sampler sampler(run.testbed, "init-compare");
  const auto x_b = sim::measure_no_decrease_matrix(sampler, run.b_mask, 45);
  const auto x_r =
      sim::measure_reference_matrix(sampler, mic.reference_cells, 45);
  RsvdProblem p;
  p.x_b = x_b;
  p.b = run.b_mask;
  p.p = x_r * lrr.z;

  const auto err_with = [&](FactorInit init) {
    RsvdOptions opt;
    opt.init = init;
    opt.max_iters = 120;
    const SelfAugmentedRsvd solver(band_layout_of(x0), opt);
    const auto result = solver.solve(p);
    return eval::mean_of(eval::reconstruction_errors_db(
        result.x_hat, run.ground_truth.at_day(45), run.b_mask));
  };
  const double warm = err_with(FactorInit::kWarmStart);
  const double random = err_with(FactorInit::kRandom);
  EXPECT_NEAR(random, warm, 0.35 * warm + 0.15);
}

TEST(BasicRsvd, RankZeroDefaultsToRowCount) {
  const auto f = make_completion(5, 20, 2, 0.8, 64);
  const auto result = basic_rsvd(f.x_b, f.b);
  EXPECT_EQ(result.l.cols(), 5u);
}

TEST(BasicRsvd, FitsObservedEntries) {
  const auto f = make_completion(6, 24, 2, 0.65, 65);
  RsvdOptions opt;
  opt.rank = 2;
  opt.lambda = 1e-4;
  const auto result = basic_rsvd(f.x_b, f.b, opt);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 24; ++j) {
      if (f.b(i, j) != 0.0) {
        EXPECT_NEAR(result.x_hat(i, j), f.x_true(i, j), 0.4);
      }
    }
  }
}

TEST(SelfAugmented, ShapeMismatchesThrow) {
  const BandLayout layout{2, 3};
  RsvdOptions opt;
  const SelfAugmentedRsvd solver(layout, opt);
  RsvdProblem p;
  p.x_b = linalg::Matrix(2, 6);
  p.b = linalg::Matrix(2, 5);  // mismatch
  EXPECT_THROW((void)solver.solve(p), std::invalid_argument);
  p.b = linalg::Matrix(3, 6);  // layout mismatch
  p.x_b = linalg::Matrix(3, 6);
  EXPECT_THROW((void)solver.solve(p), std::invalid_argument);
}

TEST(SelfAugmented, Constraint2RequiresLayout) {
  RsvdOptions opt;
  opt.use_constraint2 = true;
  EXPECT_THROW(SelfAugmentedRsvd(BandLayout{0, 0}, opt),
               std::invalid_argument);
}

TEST(SelfAugmented, ThresholdStopsEarly) {
  const auto f = make_completion(6, 24, 2, 0.8, 66);
  RsvdOptions opt;
  opt.rank = 2;
  opt.max_iters = 200;
  // v_th is relative to ||X_B||_F^2; a generous value stops immediately.
  opt.v_threshold = 10.0;
  const auto result = basic_rsvd(f.x_b, f.b, opt);
  EXPECT_TRUE(result.reached_threshold);
  EXPECT_LT(result.iterations, 200u);
}

TEST(SelfAugmented, MaxItersZeroReturnsInitialFactors) {
  const auto f = make_completion(4, 8, 2, 0.9, 67);
  RsvdOptions opt;
  opt.rank = 2;
  opt.max_iters = 0;
  const auto result = basic_rsvd(f.x_b, f.b, opt);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.x_hat.rows(), 4u);
  EXPECT_EQ(result.x_hat.cols(), 8u);
}

// Cross-commit pin of the default solver bits.  Every other identity test
// compares two runs of the same build; this one compares one run against
// constants, so a change that moves any bit of the default Algorithm-1
// trajectory (a reordered accumulation, a new kernel, a refactored RHS or
// SPD path) fails here even when it stays internally consistent.  The
// problem is built from integer LCG draws scaled by powers of two — every
// conversion is exact, so nothing but the solver's own sqrt touches libm.
// Pinned once per kernel level: the SIMD levels legitimately round
// differently from scalar, but each level's bits are just as fixed.
struct GoldenLcg {
  std::uint64_t state;
  std::int64_t next(std::int64_t modulus) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::int64_t>((state >> 33) %
                                     static_cast<std::uint64_t>(modulus));
  }
};

RsvdProblem golden_office_problem(const BandLayout& layout) {
  const std::size_t m = layout.links;
  const std::size_t n = layout.num_cells();
  GoldenLcg lcg{20170605};
  // Exactly rank-3 truth: small integer factors over 16, so every product
  // and sum below is exact in double.
  linalg::Matrix a(m, 3), c(n, 3);
  for (double& v : a.data()) v = static_cast<double>(lcg.next(65) - 32) / 16;
  for (double& v : c.data()) v = static_cast<double>(lcg.next(65) - 32) / 16;
  RsvdProblem p;
  p.b = linalg::Matrix(m, n, 1.0);
  p.x_b = linalg::Matrix(m, n);
  p.p = linalg::Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double x = -60.0;
      for (std::size_t k = 0; k < 3; ++k) x += a(i, k) * c(j, k);
      // The largely-decrease band entry is never observed; about one in
      // ten other entries drops out too (~79% observed overall).
      if (i == layout.band_of(j) || lcg.next(10) == 0) {
        p.b(i, j) = 0.0;
      } else {
        p.x_b(i, j) = x + static_cast<double>(lcg.next(33) - 16) / 64;
      }
      p.p(i, j) = x + static_cast<double>(lcg.next(33) - 16) / 128;
    }
  }
  p.l0 = linalg::Matrix(m, m);
  for (double& v : p.l0.data()) v = static_cast<double>(lcg.next(129) - 64) / 32;
  return p;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int b = 0; b < 64; b += 8) {
    h ^= (bits >> b) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t result_hash(const RsvdResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const linalg::Matrix* mat : {&r.x_hat, &r.l, &r.r}) {
    for (const double v : mat->data()) h = fnv1a(h, v);
  }
  for (const double v : r.objective_history) h = fnv1a(h, v);
  return h;
}

TEST(SelfAugmented, DefaultBitsMatchPinnedHashes) {
  struct Pinned {
    std::uint64_t full;
    std::uint64_t rows;
  };
  const Pinned pinned = [] {
    switch (linalg::kernels::active_level()) {
      case linalg::kernels::Level::kAvx2:
        return Pinned{0x92181f9000b6ae0cull, 0x5e9c0ffe8bbf1219ull};
      case linalg::kernels::Level::kAvx512:
        return Pinned{0x31e49e6ec6749613ull, 0xbe427e9691223b77ull};
      case linalg::kernels::Level::kScalar:
        break;
    }
    return Pinned{0xa19143af2b6b9a9eull, 0x436394d430593647ull};
  }();
  const BandLayout layout{8, 12};
  const RsvdProblem problem = golden_office_problem(layout);
  RsvdOptions c1c2;  // the defaults: C1 + Gauss-Seidel C2, grouped, 60 sweeps
  RsvdOptions c1_only;
  c1_only.use_constraint2 = false;  // reaches the row-grouped L-update
  const RsvdResult full = SelfAugmentedRsvd(layout, c1c2).solve(problem);
  const RsvdResult rows = SelfAugmentedRsvd(layout, c1_only).solve(problem);
  ASSERT_EQ(full.iterations, 60u);
  ASSERT_GT(full.mask_groups, 0u);
  EXPECT_EQ(result_hash(full), pinned.full)
      << "level " << linalg::kernels::active_level_name();
  EXPECT_EQ(result_hash(rows), pinned.rows)
      << "level " << linalg::kernels::active_level_name();
}

// The pipeline-level fixture: reconstruct the office at day 45 with
// different constraint configurations and verify the paper's ordering
// (Fig. 16): basic RSVD > +C1 > +C1+C2 in reconstruction error.
struct AblationResult {
  double rsvd;
  double c1;
  double c1c2;
};

AblationResult run_ablation(Constraint2Mode mode, double w2, double w3) {
  // Averaged over three independent survey campaigns, the way the paper's
  // Fig. 16 bars average over its measurement set — a single draw leaves
  // the C1-vs-C1C2 margin inside the sampling noise.
  const auto& run = iup::test::office_run();
  const auto& x0 = run.ground_truth.at_day(0);
  const std::size_t day = 45;

  const auto mic = extract_mic(x0);
  const auto lrr = solve_lrr(mic.x_mic, x0);
  const BandLayout layout = band_layout_of(x0);

  AblationResult acc{0.0, 0.0, 0.0};
  const int campaigns = 3;
  for (int c = 0; c < campaigns; ++c) {
    sim::Sampler sampler(run.testbed, "ablation-" + std::to_string(c));
    const auto x_b =
        sim::measure_no_decrease_matrix(sampler, run.b_mask, day);
    const auto x_r =
        sim::measure_reference_matrix(sampler, mic.reference_cells, day);

    const auto solve_with = [&](bool c1, bool c2) {
      RsvdOptions opt;
      opt.use_constraint1 = c1;
      opt.use_constraint2 = c2;
      opt.c2_mode = mode;
      opt.w_continuity = w2;
      opt.w_similarity = w3;
      const SelfAugmentedRsvd solver(layout, opt);
      RsvdProblem p;
      p.x_b = x_b;
      p.b = run.b_mask;
      if (c1) p.p = x_r * lrr.z;
      const auto result = solver.solve(p);
      const auto errs = eval::reconstruction_errors_db(
          result.x_hat, run.ground_truth.at_day(day), run.b_mask);
      return eval::mean_of(errs);
    };
    acc.rsvd += solve_with(false, false);
    acc.c1 += solve_with(true, false);
    acc.c1c2 += solve_with(true, true);
  }
  acc.rsvd /= campaigns;
  acc.c1 /= campaigns;
  acc.c1c2 /= campaigns;
  return acc;
}

TEST(SelfAugmented, ConstraintAblationOrderingGaussSeidel) {
  const auto r = run_ablation(Constraint2Mode::kGaussSeidel, 0.3, 0.05);
  EXPECT_GT(r.rsvd, r.c1) << "Constraint 1 must reduce the error";
  EXPECT_GT(r.c1, r.c1c2) << "Constraint 2 must reduce the error further";
}

TEST(SelfAugmented, PaperLiteralModeStillBeatsBasicRsvd) {
  // The published C4=C5=0 curvature acts as absolute shrinkage of the
  // largely-decrease entries, so it is only stable with weights far below
  // the Gauss-Seidel mode (the comment block at the top of
  // src/core/self_augmented.cpp documents the repair).
  const auto r = run_ablation(Constraint2Mode::kPaperLiteral, 0.01, 0.01);
  EXPECT_GT(r.rsvd, r.c1);
  EXPECT_LT(r.c1c2, r.rsvd);
}

TEST(SelfAugmented, AutoScaleRunsAndStaysFinite) {
  const auto f = make_completion(4, 12, 2, 0.7, 68);
  RsvdOptions opt;
  opt.rank = 2;
  opt.auto_scale = true;
  opt.use_constraint2 = true;
  opt.c2_mode = Constraint2Mode::kGaussSeidel;
  const SelfAugmentedRsvd solver(BandLayout{4, 3}, opt);
  RsvdProblem p;
  p.x_b = f.x_b;
  p.b = f.b;
  const auto result = solver.solve(p);
  for (double v : result.x_hat.data()) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace iup::core
