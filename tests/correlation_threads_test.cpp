// The warm state each published bundle carries: the converged solver
// factor and the LRR ADMM state, including their bit-identity across
// engine thread counts (the solver sweep is the engine's one intra-solve
// fan-out; the correlation pipeline is serial).  Equality checks are
// exact (operator==), not tolerances, wherever the contract is bit-level —
// mirroring solver_threads_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "api/engine.hpp"
#include "core/self_augmented.hpp"
#include "eval/experiment.hpp"
#include "linalg/norms.hpp"
#include "test_util.hpp"

namespace iup {
namespace {

TEST(SolverWarmStart, ExplicitL0ReproducesDefaultInitialisationExactly) {
  // Passing the solver's own initial factor through RsvdProblem::l0 must
  // change nothing: same iterates, bit for bit.
  const auto& run = test::office_run();
  const core::BandLayout layout = core::band_layout_of(run.b_mask);
  core::RsvdOptions options;
  options.max_iters = 6;
  const core::SelfAugmentedRsvd solver(layout, options);

  core::RsvdProblem problem;
  problem.x_b = run.b_mask.hadamard(run.ground_truth.at_day(45));
  problem.b = run.b_mask;
  problem.p = run.ground_truth.at_day(0);

  const core::RsvdResult cold = solver.solve(problem);
  core::RsvdProblem warmed = problem;
  warmed.l0 = solver.initial_factor(problem);
  const core::RsvdResult warm = solver.solve(warmed);
  EXPECT_EQ(warm.l, cold.l);
  EXPECT_EQ(warm.r, cold.r);
  EXPECT_EQ(warm.x_hat, cold.x_hat);
  EXPECT_EQ(warm.objective_history, cold.objective_history);
}

TEST(SolverWarmStart, ShapeMismatchThrows) {
  const auto& run = test::office_run();
  const core::BandLayout layout = core::band_layout_of(run.b_mask);
  core::RsvdOptions options;
  options.max_iters = 1;
  const core::SelfAugmentedRsvd solver(layout, options);
  core::RsvdProblem problem;
  problem.x_b = run.b_mask.hadamard(run.ground_truth.at_day(45));
  problem.b = run.b_mask;
  problem.p = run.ground_truth.at_day(0);
  problem.l0 = linalg::Matrix(3, 2);
  EXPECT_THROW((void)solver.solve(problem), std::invalid_argument);
}

/// The warm state of the site's published bundle.
serve::WarmState warm_of(const api::Engine& engine) {
  return engine.published("office").value()->warm;
}

TEST(EngineWarmState, EveryUpdatePublishesItsConvergedFactor) {
  const auto& run = test::office_run();
  api::Engine engine{api::EngineConfig{}};
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  // Registration commits version 1 without a solve: no factor yet.
  EXPECT_EQ(warm_of(engine).factor, nullptr);

  const auto cells = engine.reference_cells("office").value();
  for (const std::size_t day : {15u, 45u}) {
    const auto r =
        engine.update(eval::collect_update_request(run, "office", cells, day));
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    const auto bundle = engine.published("office").value();
    EXPECT_EQ(bundle->snapshot->version(), r.value().committed_version);
    ASSERT_NE(bundle->warm.factor, nullptr) << "day " << day;
    EXPECT_TRUE(*bundle->warm.factor == r.value().solver.l) << "day " << day;
  }

  ASSERT_TRUE(engine.drop_site("office").ok());
  EXPECT_FALSE(engine.published("office").ok());
}

TEST(EngineWarmState, SetReferenceCellsPublishesNoFactor) {
  // set_reference_cells commits version 3 without running the solver, so
  // its bundle carries no factor: the next solve must initialise cold —
  // exactly like an engine that never warm-starts — and then publish its
  // own factor.
  const auto& run = test::office_run();
  api::Engine engine{api::EngineConfig{}};
  api::Engine cold(api::EngineConfig().warm_start(false));
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  ASSERT_TRUE(eval::register_run(cold, run, "office").ok());
  const auto cells = engine.reference_cells("office").value();

  const auto request15 = eval::collect_update_request(run, "office", cells, 15);
  ASSERT_TRUE(engine.update(request15).ok());
  ASSERT_TRUE(cold.update(request15).ok());
  ASSERT_NE(warm_of(engine).factor, nullptr);

  ASSERT_TRUE(engine.set_reference_cells("office", cells).ok());
  ASSERT_TRUE(cold.set_reference_cells("office", cells).ok());
  ASSERT_EQ(engine.published("office").value()->snapshot->version(), 3u);
  EXPECT_EQ(warm_of(engine).factor, nullptr);

  const auto request45 = eval::collect_update_request(run, "office", cells, 45);
  const auto r2 = engine.update(request45);
  const auto c2 = cold.update(request45);
  ASSERT_TRUE(r2.ok()) << r2.status().to_string();
  ASSERT_TRUE(c2.ok()) << c2.status().to_string();
  EXPECT_EQ(r2.value().committed_version, 4u);
  EXPECT_EQ(r2.value().x_hat(), c2.value().x_hat());
  ASSERT_NE(warm_of(engine).factor, nullptr);
  EXPECT_TRUE(*warm_of(engine).factor == r2.value().solver.l);
}

TEST(EngineWarmState, DisabledEngineNeverPublishesAFactor) {
  const auto& run = test::office_run();
  api::Engine engine(api::EngineConfig().warm_start(false));
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  const auto cells = engine.reference_cells("office").value();
  const auto r1 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(warm_of(engine).factor, nullptr);
}

TEST(EngineWarmState, BackendThatIgnoresL0NeverPublishesAFactor) {
  // A kRandom-init solver never consumes problem.l0
  // (SolverBackend::uses_warm_start() is false), so the engine must not
  // pay for factor copies or retain their memory for it.
  const auto& run = test::office_run();
  core::RsvdOptions options;
  options.init = core::FactorInit::kRandom;
  api::Engine engine(api::EngineConfig().rsvd(options));
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  const auto cells = engine.reference_cells("office").value();
  const auto r1 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r1.ok()) << r1.status().to_string();
  EXPECT_EQ(warm_of(engine).factor, nullptr);
}

TEST(EngineWarmState, WarmAndColdChainsStayThreadInvariant) {
  // The headline guarantee survives the warm start: a serial and a
  // parallel engine publish identical warm state and bit-identical
  // chains.
  const auto& run = test::office_run();
  api::Engine serial(api::EngineConfig().threads(1));
  api::Engine parallel(api::EngineConfig().threads(8));
  ASSERT_TRUE(eval::register_run(serial, run, "office").ok());
  ASSERT_TRUE(eval::register_run(parallel, run, "office").ok());
  const auto cells = serial.reference_cells("office").value();

  for (const std::size_t day : {15u, 45u, 90u}) {
    const auto request =
        eval::collect_update_request(run, "office", cells, day);
    const auto a = serial.update(request);
    const auto b = parallel.update(request);
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    EXPECT_EQ(b.value().x_hat(), a.value().x_hat()) << "day " << day;
    EXPECT_EQ(b.value().snapshot->correlation(),
              a.value().snapshot->correlation())
        << "day " << day;
    EXPECT_EQ(*warm_of(parallel).factor, *warm_of(serial).factor)
        << "day " << day;
    EXPECT_EQ(warm_of(parallel).lrr->y1, warm_of(serial).lrr->y1)
        << "day " << day;
  }
}

TEST(EngineLrrWarmState, PublishedAtRegistrationAndByEveryCommit) {
  const auto& run = test::office_run();
  api::Engine engine{api::EngineConfig{}};
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  // Registration itself publishes ADMM state (unlike the solver factor,
  // which needs an update's converged solve).  Its Z is the committed
  // correlation.
  const auto expect_lrr_of_latest = [&](const char* step) {
    const auto bundle = engine.published("office").value();
    ASSERT_NE(bundle->warm.lrr, nullptr) << step;
    EXPECT_TRUE(bundle->warm.lrr->z == bundle->snapshot->correlation())
        << step;
  };
  expect_lrr_of_latest("register");
  const auto registered = warm_of(engine).lrr;

  const auto cells = engine.reference_cells("office").value();
  const auto r1 =
      engine.update(eval::collect_update_request(run, "office", cells, 15));
  ASSERT_TRUE(r1.ok()) << r1.status().to_string();
  expect_lrr_of_latest("update");
  EXPECT_NE(warm_of(engine).lrr, registered);

  // set_reference_cells re-acquires cold and publishes that state.
  const auto updated = warm_of(engine).lrr;
  ASSERT_TRUE(engine.set_reference_cells("office", cells).ok());
  expect_lrr_of_latest("set_reference_cells");
  EXPECT_NE(warm_of(engine).lrr, updated);

  ASSERT_TRUE(engine.drop_site("office").ok());
  EXPECT_FALSE(engine.published("office").ok());
}

TEST(EngineLrrWarmState, DisabledEngineMatchesColdRefreshesExactly) {
  // lrr_warm_start(false) must reproduce the cold-refresh chain bit for
  // bit, and never retain ADMM state.
  const auto& run = test::office_run();
  api::Engine warm_engine{api::EngineConfig{}};
  api::Engine cold_engine(api::EngineConfig().lrr_warm_start(false));
  ASSERT_TRUE(eval::register_run(warm_engine, run, "office").ok());
  ASSERT_TRUE(eval::register_run(cold_engine, run, "office").ok());
  EXPECT_EQ(warm_of(cold_engine).lrr, nullptr);
  // Registration is a cold solve either way: identical snapshots.
  EXPECT_EQ(warm_engine.snapshot("office").value()->correlation(),
            cold_engine.snapshot("office").value()->correlation());

  const auto cells = warm_engine.reference_cells("office").value();
  const auto request =
      eval::collect_update_request(run, "office", cells, 45);
  const auto warm_result = warm_engine.update(request);
  const auto cold_result = cold_engine.update(request);
  ASSERT_TRUE(warm_result.ok());
  ASSERT_TRUE(cold_result.ok());
  // Same reconstruction (the solve itself never sees the LRR state)...
  EXPECT_EQ(warm_result.value().x_hat(), cold_result.value().x_hat());
  // ...and refreshed correlations that agree to the ADMM fixed point,
  // warm vs cold.
  const auto& zw = warm_result.value().snapshot->correlation();
  const auto& zc = cold_result.value().snapshot->correlation();
  EXPECT_LT(linalg::relative_error(zw, zc), 1e-5);
  EXPECT_EQ(warm_of(cold_engine).lrr, nullptr);
}

}  // namespace
}  // namespace iup
