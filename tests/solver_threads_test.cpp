// Thread-count invariance: the headline guarantee of the parallel sweep is
// that 1 thread and N threads produce bit-identical results — every
// column/row owns its output slot and no floating-point reduction is ever
// reordered.  These tests compare exact (operator==) equality, not
// tolerances.
#include <gtest/gtest.h>

#include <vector>

#include "api/engine.hpp"
#include "core/self_augmented.hpp"
#include "eval/experiment.hpp"
#include "test_util.hpp"

namespace iup {
namespace {

core::RsvdProblem synthetic_problem(const core::BandLayout& layout,
                                    rng::Rng& rng) {
  const std::size_t m = layout.links;
  const std::size_t n = layout.num_cells();
  const linalg::Matrix x_full = test::random_low_rank(m, n, 4, rng);
  core::RsvdProblem problem;
  problem.b = linalg::Matrix(m, n);
  for (double& v : problem.b.data()) v = rng.uniform() < 0.8 ? 1.0 : 0.0;
  problem.x_b = problem.b.hadamard(x_full);
  problem.p = x_full;
  for (double& v : problem.p.data()) v += rng.normal(0.0, 0.01);
  return problem;
}

core::RsvdResult solve_with_threads(const core::RsvdProblem& problem,
                                    const core::BandLayout& layout,
                                    std::size_t threads) {
  core::RsvdOptions options;
  options.max_iters = 8;
  options.threads = threads;
  const core::SelfAugmentedRsvd solver(layout, options);
  return solver.solve(problem);
}

TEST(SolverThreadInvariance, BitIdenticalAcrossThreadCounts) {
  rng::Rng rng(42);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = synthetic_problem(layout, rng);

  const core::RsvdResult base = solve_with_threads(problem, layout, 1);
  ASSERT_GT(base.iterations, 0u);
  for (const std::size_t threads : {2u, 3u, 8u, 0u /* auto */}) {
    const core::RsvdResult other =
        solve_with_threads(problem, layout, threads);
    EXPECT_EQ(other.l, base.l) << threads << " threads";
    EXPECT_EQ(other.r, base.r) << threads << " threads";
    EXPECT_EQ(other.x_hat, base.x_hat) << threads << " threads";
    EXPECT_EQ(other.objective_history, base.objective_history);
    EXPECT_EQ(other.iterations, base.iterations);
  }
}

TEST(SolverThreadInvariance, PaperLiteralModeToo) {
  rng::Rng rng(43);
  const core::BandLayout layout{8, 12};
  const core::RsvdProblem problem = synthetic_problem(layout, rng);
  core::RsvdOptions options;
  options.max_iters = 5;
  options.c2_mode = core::Constraint2Mode::kPaperLiteral;

  options.threads = 1;
  const auto base = core::SelfAugmentedRsvd(layout, options).solve(problem);
  options.threads = 8;
  const auto par = core::SelfAugmentedRsvd(layout, options).solve(problem);
  EXPECT_EQ(par.l, base.l);
  EXPECT_EQ(par.r, base.r);
  EXPECT_EQ(par.x_hat, base.x_hat);
}

// Register + one update at threads(1) and threads(n): reference cells,
// correlation, reconstruction and solver trajectory must match bit for bit.
void expect_update_thread_invariant(const eval::EnvironmentRun& run,
                                    std::size_t threads) {
  api::Engine serial(api::EngineConfig().threads(1));
  api::Engine parallel(api::EngineConfig().threads(threads));
  ASSERT_TRUE(eval::register_run(serial, run, "site").ok());
  ASSERT_TRUE(eval::register_run(parallel, run, "site").ok());

  const auto cells = serial.reference_cells("site").value();
  ASSERT_EQ(cells, parallel.reference_cells("site").value());
  EXPECT_EQ(parallel.snapshot("site").value()->correlation(),
            serial.snapshot("site").value()->correlation());
  const auto request = eval::collect_update_request(run, "site", cells, 45);

  const auto serial_result = serial.update(request);
  const auto parallel_result = parallel.update(request);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().to_string();
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().to_string();
  EXPECT_EQ(parallel_result.value().x_hat(), serial_result.value().x_hat());
  EXPECT_EQ(parallel_result.value().snapshot->correlation(),
            serial_result.value().snapshot->correlation());
  EXPECT_EQ(parallel_result.value().solver.objective_history,
            serial_result.value().solver.objective_history);
  EXPECT_EQ(parallel_result.value().committed_version,
            serial_result.value().committed_version);
}

TEST(EngineThreadInvariance, UpdateResultBitIdenticalOnOfficeTestbed) {
  {
    SCOPED_TRACE("office, 8 threads");
    expect_update_thread_invariant(test::office_run(), 8);
  }
  // A 24-link site: the size the sweep fan-out is kept for.
  sim::MixedRadioOptions options;
  options.num_links = 24;
  const eval::EnvironmentRun mixed(sim::make_mixed_radio_testbed(options));
  SCOPED_TRACE("24-link mixed radio, 4 threads");
  expect_update_thread_invariant(mixed, 4);
}

TEST(EngineThreadInvariance, MultiSiteUpdateBatchMatchesSequential) {
  const auto& run = test::office_run();

  api::Engine serial(api::EngineConfig().threads(1));
  api::Engine parallel(api::EngineConfig().threads(4));
  for (const char* site : {"north", "south", "east"}) {
    ASSERT_TRUE(eval::register_run(serial, run, site).ok());
    ASSERT_TRUE(eval::register_run(parallel, run, site).ok());
  }
  const auto cells = serial.reference_cells("north").value();

  // Interleaved sites with two updates per site: the batch must keep the
  // per-site chains ordered (day 15 before day 45) while fanning the
  // sites out.
  std::vector<api::UpdateRequest> requests;
  for (const std::size_t day : {15u, 45u}) {
    for (const char* site : {"north", "south", "east"}) {
      requests.push_back(eval::collect_update_request(run, site, cells, day));
    }
  }

  const auto serial_results = serial.update_batch(requests);
  const auto parallel_results = parallel.update_batch(requests);
  ASSERT_EQ(serial_results.size(), requests.size());
  ASSERT_EQ(parallel_results.size(), requests.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    ASSERT_TRUE(serial_results[k].ok());
    ASSERT_TRUE(parallel_results[k].ok())
        << parallel_results[k].status().to_string();
    EXPECT_EQ(parallel_results[k].value().x_hat(),
              serial_results[k].value().x_hat())
        << "request " << k;
    EXPECT_EQ(parallel_results[k].value().committed_version,
              serial_results[k].value().committed_version);
  }
  // Both engines end in the same store state.
  for (const char* site : {"north", "south", "east"}) {
    EXPECT_EQ(serial.store().version_count(site), 3u);
    EXPECT_EQ(parallel.store().version_count(site), 3u);
    EXPECT_EQ(parallel.snapshot(site).value()->database(),
              serial.snapshot(site).value()->database());
  }
}

TEST(EngineThreadInvariance, LocalizeBatchMatchesSequential) {
  const auto& run = test::office_run();
  api::Engine serial(api::EngineConfig().threads(1));
  api::Engine parallel(api::EngineConfig().threads(8));
  ASSERT_TRUE(eval::register_run(serial, run, "office").ok());
  ASSERT_TRUE(eval::register_run(parallel, run, "office").ok());

  const auto& x = run.ground_truth.at_day(0);
  std::vector<std::vector<double>> measurements;
  for (std::size_t j = 0; j < x.cols(); j += 7) {
    measurements.push_back(x.col(j));
  }

  const auto serial_estimates = serial.localize_batch("office", measurements);
  const auto parallel_estimates =
      parallel.localize_batch("office", measurements);
  ASSERT_TRUE(serial_estimates.ok());
  ASSERT_TRUE(parallel_estimates.ok());
  ASSERT_EQ(serial_estimates.value().size(), measurements.size());
  ASSERT_EQ(parallel_estimates.value().size(), measurements.size());
  for (std::size_t k = 0; k < measurements.size(); ++k) {
    EXPECT_EQ(parallel_estimates.value()[k].cell,
              serial_estimates.value()[k].cell);
    EXPECT_EQ(parallel_estimates.value()[k].score,
              serial_estimates.value()[k].score);
  }
}

}  // namespace
}  // namespace iup
