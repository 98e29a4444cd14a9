// The continuous-update pipeline: observation validation/quarantine, EWMA
// drift detection, deterministic fault injection and the supervisor's
// retry/backoff/breaker state machine — including the core robustness
// guarantee that a failing site keeps serving its last-good bundle
// bit-identically and recovers once faults clear.
#include "ingest/supervisor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "eval/experiment.hpp"
#include "ingest/buffer.hpp"
#include "ingest/drift.hpp"
#include "ingest/faults.hpp"
#include "test_util.hpp"

namespace iup::ingest {
namespace {

using api::StatusCode;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ObservationBuffer, QuarantinesByReasonAndKeepsMeans) {
  serve::SiteHealthCounters health;
  ObservationBuffer buffer(8, 96, health);

  EXPECT_EQ(buffer.push({0, 0, kNan, 1, {}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buffer.push({0, 0, kInf, 1, {}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buffer.push({0, 0, -300.0, 1, {}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buffer.push({0, 0, 400.0, 1, {}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buffer.push({8, 0, -50.0, 1, {}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(buffer.push({0, 96, -50.0, 1, {}}).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(health.quarantine_non_finite.load(), 2u);
  EXPECT_EQ(health.quarantine_out_of_range.load(), 2u);
  EXPECT_EQ(health.quarantine_unknown_link.load(), 1u);
  EXPECT_EQ(health.quarantine_unknown_cell.load(), 1u);
  EXPECT_EQ(health.observations_accepted.load(), 0u);
  EXPECT_EQ(buffer.size(), 0u);

  // Accepted readings fold into per-entry means and stamp the day.
  ASSERT_TRUE(buffer.push({2, 40, -50.0, 5, {}}).ok());
  ASSERT_TRUE(buffer.push({2, 40, -60.0, 7, {}}).ok());
  ASSERT_TRUE(buffer.push({3, 41, -45.0, 6, {}}).ok());
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.coverage(), 2u);
  EXPECT_DOUBLE_EQ(buffer.mean(2, 40).value(), -55.0);
  EXPECT_DOUBLE_EQ(buffer.mean(3, 41).value(), -45.0);
  EXPECT_FALSE(buffer.mean(0, 0).has_value());
  EXPECT_EQ(health.observations_accepted.load(), 3u);
  EXPECT_EQ(health.last_observed_day.load(), 7u);

  buffer.consume();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.mean(2, 40).has_value());
  // Tallies are cumulative across epochs.
  EXPECT_EQ(health.observations_accepted.load(), 3u);
}

TEST(ObservationBuffer, SourceTableQuarantinesMisattributedReadings) {
  serve::SiteHealthCounters health;
  std::vector<SourceInfo> sources;
  for (std::size_t i = 0; i < 8; ++i) {
    sources.push_back({SourceId(500 + i), Technology::kBle});
  }
  ObservationBuffer buffer(8, 96, sources, health);
  EXPECT_EQ(buffer.sources(), sources);

  // Correct attribution is accepted.
  Observation good{2, 40, -50.0, 5, SourceId(502)};
  ASSERT_TRUE(buffer.push(good).ok());

  // Another link's source, an unknown id, and an unattributed reading
  // are all quarantined as kUnknownSource.
  Observation wrong_link = good;
  wrong_link.source = SourceId(503);
  EXPECT_EQ(buffer.push(wrong_link).code(), StatusCode::kInvalidArgument);
  Observation unknown = good;
  unknown.source = SourceId(9999);
  EXPECT_EQ(buffer.push(unknown).code(), StatusCode::kInvalidArgument);
  Observation unattributed = good;
  unattributed.source = SourceId();
  const auto status = buffer.push(unattributed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("(unspecified)"), std::string::npos)
      << status.message();

  EXPECT_EQ(health.quarantine_unknown_source.load(), 3u);
  EXPECT_EQ(health.observations_accepted.load(), 1u);
  EXPECT_EQ(buffer.size(), 1u);

  // The legacy two-ctor path never source-checks.
  serve::SiteHealthCounters legacy_health;
  ObservationBuffer legacy(8, 96, legacy_health);
  EXPECT_TRUE(legacy.sources().empty());
  EXPECT_TRUE(legacy.push(unattributed).ok());
  EXPECT_TRUE(legacy.push(unknown).ok());
  EXPECT_EQ(legacy_health.quarantine_unknown_source.load(), 0u);
}

TEST(UpdateSupervisor, WatchWiresTheRegisteredSourceTableIntoTheBuffer) {
  const auto& run = iup::test::office_run();
  std::vector<SourceInfo> sources;
  for (std::size_t i = 0; i < 8; ++i) {
    sources.push_back({SourceId(100 + i), Technology::kWifi});
  }
  api::Engine engine;
  ASSERT_TRUE(engine
                  .register_site("office", run.ground_truth.at_day(0),
                                 run.b_mask, sources)
                  .ok());
  UpdateSupervisor supervisor(engine);
  ASSERT_TRUE(supervisor.watch("office").ok());
  // A misattributed reading is quarantined at the site's front door and
  // lands in the site's own health counters.
  EXPECT_EQ(supervisor.observe("office", {0, 0, -50.0, 1, SourceId(101)})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      supervisor.observe("office", {0, 0, -50.0, 1, SourceId(100)}).ok());
  const auto health = engine.site_health("office").value();
  EXPECT_EQ(health.quarantine_unknown_source, 1u);
  EXPECT_EQ(health.observations_accepted, 1u);
}

TEST(ObservationBuffer, CapacityBackPressureIsResourceExhausted) {
  serve::SiteHealthCounters health;
  ObservationBufferOptions options;
  options.capacity = 4;
  ObservationBuffer buffer(8, 96, health, options);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(buffer.push({0, i, -50.0, 1, {}}).ok());
  }
  EXPECT_EQ(buffer.push({0, 5, -50.0, 1, {}}).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(health.quarantine_overflow.load(), 1u);
  // consume() opens the next epoch.
  buffer.consume();
  EXPECT_TRUE(buffer.push({0, 5, -50.0, 1, {}}).ok());
}

TEST(ObservationBuffer, AssembleUsesFreshMeansWithServedFallback) {
  const auto& run = iup::test::office_run();
  api::Engine engine;
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  const api::SnapshotPtr snapshot = engine.snapshot("office").value();
  const linalg::Matrix& x = snapshot->database();
  const linalg::Matrix& mask = snapshot->mask();

  serve::SiteHealthCounters health;
  ObservationBuffer buffer(x.rows(), x.cols(), health);
  // Shape mismatch is rejected.
  ObservationBuffer wrong(4, 12, health);
  EXPECT_EQ(wrong.assemble(*snapshot).status().code(),
            StatusCode::kInvalidArgument);

  const std::size_t ref0 = snapshot->reference_cells()[0];
  ASSERT_TRUE(buffer.push({1, ref0, -40.0, 5, {}}).ok());
  // A masked entry, measured twice.
  std::size_t mi = 0, mj = 0;
  bool found = false;
  for (std::size_t i = 0; i < x.rows() && !found; ++i) {
    for (std::size_t j = 0; j < x.cols() && !found; ++j) {
      if (mask(i, j) != 0.0) {
        mi = i;
        mj = j;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  ASSERT_TRUE(buffer.push({mi, mj, -48.0, 5, {}}).ok());
  ASSERT_TRUE(buffer.push({mi, mj, -52.0, 5, {}}).ok());

  const auto inputs = buffer.assemble(*snapshot);
  ASSERT_TRUE(inputs.ok()) << inputs.status().to_string();
  const core::UpdateInputs& in = inputs.value();
  ASSERT_EQ(in.x_b.rows(), x.rows());
  ASSERT_EQ(in.x_b.cols(), x.cols());
  ASSERT_EQ(in.x_r.cols(), snapshot->reference_cells().size());

  EXPECT_DOUBLE_EQ(in.x_b(mi, mj), -50.0);  // fresh mean
  EXPECT_DOUBLE_EQ(in.x_r(1, 0), -40.0);    // fresh mean at the reference
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      // Skip the two measured entries: the reference reading at (1, ref0)
      // feeds X_B too when that entry is masked — fresh data is fresh data.
      if ((i == mi && j == mj) || (i == 1 && j == ref0)) continue;
      if (mask(i, j) != 0.0) {
        EXPECT_DOUBLE_EQ(in.x_b(i, j), x(i, j));  // served fallback
      } else {
        EXPECT_DOUBLE_EQ(in.x_b(i, j), 0.0);  // off-mask stays zero
      }
    }
  }
  for (std::size_t k = 1; k < snapshot->reference_cells().size(); ++k) {
    const std::size_t cell = snapshot->reference_cells()[k];
    for (std::size_t i = 0; i < x.rows(); ++i) {
      EXPECT_DOUBLE_EQ(in.x_r(i, k), x(i, cell));
    }
  }
}

TEST(EwmaDriftDetector, NeedsSupportAndThresholdThenLatchesUntilReset) {
  DriftDetectorOptions options;
  options.alpha = 0.5;
  options.threshold_db = 2.0;
  options.min_observations = 4;
  EwmaDriftDetector detector(options);
  EXPECT_FALSE(detector.drifted());

  for (int i = 0; i < 3; ++i) detector.observe(3.0);
  EXPECT_FALSE(detector.drifted());  // support too small
  detector.observe(-3.0);            // residuals are absolute
  EXPECT_TRUE(detector.drifted());
  EXPECT_DOUBLE_EQ(detector.ewma(), 3.0);

  detector.reset();
  EXPECT_FALSE(detector.drifted());
  EXPECT_EQ(detector.count(), 0u);

  // A quiet stream never fires no matter how long it runs.
  for (int i = 0; i < 100; ++i) detector.observe(0.5);
  EXPECT_FALSE(detector.drifted());
}

TEST(FaultInjector, SchedulesAreDeterministicAndClearable) {
  FaultInjector fi(1234);
  // Disarmed kinds never fire and advance nothing.
  EXPECT_FALSE(fi.fire(FaultKind::kSolverFailure));
  EXPECT_EQ(fi.fired(FaultKind::kSolverFailure), 0u);

  // start=1, count=2, every=2 over attempts 0..5 -> fires at 1 and 3.
  fi.arm(FaultKind::kSolverFailure, {1, 2, 2});
  std::vector<bool> pattern;
  for (int i = 0; i < 6; ++i) pattern.push_back(fi.fire(FaultKind::kSolverFailure));
  EXPECT_EQ(pattern, (std::vector<bool>{false, true, false, true, false, false}));
  EXPECT_EQ(fi.fired(FaultKind::kSolverFailure), 2u);

  // count=0 means unlimited while armed; clear() freezes.
  fi.arm(FaultKind::kSlowSolve, {0, 0, 1});
  EXPECT_TRUE(fi.fire(FaultKind::kSlowSolve));
  EXPECT_TRUE(fi.fire(FaultKind::kSlowSolve));
  fi.clear();
  EXPECT_FALSE(fi.fire(FaultKind::kSlowSolve));
  EXPECT_EQ(fi.fired(FaultKind::kSlowSolve), 2u);

  // Same seed -> same corruption sequence; every corruption quarantines.
  FaultInjector a(77), b(77);
  serve::SiteHealthCounters health;
  ObservationBuffer buffer(8, 96, health);
  for (int i = 0; i < 16; ++i) {
    Observation oa{0, 0, -50.0, 1, {}}, ob{0, 0, -50.0, 1, {}};
    a.corrupt(oa);
    b.corrupt(ob);
    EXPECT_EQ(oa.link, ob.link);
    EXPECT_EQ(oa.rss_db == ob.rss_db ||
                  (oa.rss_db != oa.rss_db && ob.rss_db != ob.rss_db),
              true);
    EXPECT_FALSE(buffer.push(oa).ok());
  }
  EXPECT_EQ(health.observations_accepted.load(), 0u);
}

// --- supervisor end-to-end -------------------------------------------

/// Zero-wait options so every retry/probe is immediately due: tests drive
/// the state machine through pump() alone, no clocks involved.
SupervisorOptions immediate_options() {
  SupervisorOptions options;
  options.backoff_initial = std::chrono::milliseconds(0);
  options.backoff_max = std::chrono::milliseconds(0);
  options.breaker_threshold = 3;
  options.breaker_cooldown = std::chrono::milliseconds(0);
  return options;
}

TEST(UpdateSupervisor, WatchValidatesItsArguments) {
  const auto& run = iup::test::office_run();
  api::Engine engine;
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  UpdateSupervisor supervisor(engine);

  EXPECT_EQ(supervisor.watch("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(supervisor.watch("office").ok());
  EXPECT_EQ(supervisor.watch("office").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(supervisor.observe("nope", {0, 0, -50.0, 1, {}}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(supervisor.trigger("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(supervisor.pump(), 0u);  // nothing pending
  ASSERT_TRUE(supervisor.unwatch("office").ok());
  EXPECT_EQ(supervisor.unwatch("office").code(), StatusCode::kNotFound);
}

TEST(UpdateSupervisor, DriftAgainstServedSnapshotTriggersAnUpdate) {
  const auto& run = iup::test::office_run();
  api::Engine engine;
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  UpdateSupervisor supervisor(engine, immediate_options());

  WatchOptions watch;
  watch.drift.alpha = 0.5;
  watch.drift.threshold_db = 2.0;
  watch.drift.min_observations = 8;
  ASSERT_TRUE(supervisor.watch("office", watch).ok());

  // Stream readings 3 dB off the SERVED values at day 45: exactly the
  // "fingerprints went stale" signal the detector watches for.
  const linalg::Matrix& served = engine.snapshot("office").value()->database();
  std::size_t fed = 0;
  for (std::size_t j = 0; j < 96 && fed < 8; j += 13, ++fed) {
    const double rss = served(2, j) + 3.0;
    ASSERT_TRUE(supervisor.observe("office", {2, j, rss, 45, {}}).ok());
  }

  const auto before = engine.site_health("office").value();
  EXPECT_GE(before.drift_triggers, 1u);
  EXPECT_EQ(before.last_observed_day, 45u);
  EXPECT_EQ(before.staleness_days, 45u);  // serving day 0, stream at day 45

  ASSERT_EQ(supervisor.pump(), 1u);
  const auto after = engine.site_health("office").value();
  EXPECT_EQ(after.state, serve::SiteState::kHealthy);
  EXPECT_EQ(after.updates_ok, 1u);
  EXPECT_EQ(after.update_attempts, 1u);
  EXPECT_EQ(after.serving_version, 2u);
  EXPECT_EQ(after.serving_day, 45u);
  EXPECT_EQ(after.staleness_days, 0u);  // caught up
  EXPECT_EQ(supervisor.pump(), 0u);     // nothing pending any more
}

TEST(UpdateSupervisor, BackoffBreakerDegradedThenRecovery) {
  const auto& run = iup::test::office_run();
  FaultInjector faults(99);
  api::Engine engine(
      api::EngineConfig().update_hooks(faults.engine_hooks()));
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  UpdateSupervisor supervisor(engine, immediate_options());
  ASSERT_TRUE(supervisor.watch("office").ok());

  const serve::PublishedPtr last_good = engine.published("office").value();
  faults.arm(FaultKind::kSolverFailure);  // every solve fails
  ASSERT_TRUE(supervisor.trigger("office").ok());

  // Failures 1 and 2: retrying under backoff.
  ASSERT_EQ(supervisor.pump(), 1u);
  auto health = engine.site_health("office").value();
  EXPECT_EQ(health.state, serve::SiteState::kBackoff);
  EXPECT_EQ(health.consecutive_failures, 1u);
  ASSERT_EQ(supervisor.pump(), 1u);
  health = engine.site_health("office").value();
  EXPECT_EQ(health.state, serve::SiteState::kBackoff);
  EXPECT_EQ(health.consecutive_failures, 2u);
  EXPECT_EQ(health.breaker_trips, 0u);

  // Failure 3 opens the breaker: degraded, still serving last-good.
  ASSERT_EQ(supervisor.pump(), 1u);
  health = engine.site_health("office").value();
  EXPECT_EQ(health.state, serve::SiteState::kDegraded);
  EXPECT_EQ(health.breaker_trips, 1u);
  EXPECT_EQ(health.updates_failed, 3u);

  // Probes while still faulty: stays degraded, no double-counted trips,
  // and the published bundle is THE SAME object as before the faults —
  // bit-identical serving, not a rebuilt copy.
  ASSERT_EQ(supervisor.pump(), 1u);
  health = engine.site_health("office").value();
  EXPECT_EQ(health.state, serve::SiteState::kDegraded);
  EXPECT_EQ(health.breaker_trips, 1u);
  EXPECT_EQ(engine.published("office").value().get(), last_good.get());
  EXPECT_EQ(health.serving_version, 1u);

  // Faults clear -> the next probe commits and the site recovers.
  faults.clear();
  ASSERT_EQ(supervisor.pump(), 1u);
  health = engine.site_health("office").value();
  EXPECT_EQ(health.state, serve::SiteState::kHealthy);
  EXPECT_EQ(health.recoveries, 1u);
  EXPECT_EQ(health.consecutive_failures, 0u);
  EXPECT_EQ(health.updates_ok, 1u);
  EXPECT_EQ(health.serving_version, 2u);
  EXPECT_EQ(supervisor.pump(), 0u);
}

TEST(UpdateSupervisor, DeadlineAbortsCommitAndLastGoodKeepsServing) {
  const auto& run = iup::test::office_run();
  FaultInjector faults;
  api::Engine engine(
      api::EngineConfig().update_hooks(faults.engine_hooks()));
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  UpdateSupervisor supervisor(engine, immediate_options());
  ASSERT_TRUE(supervisor.watch("office").ok());

  const serve::PublishedPtr last_good = engine.published("office").value();
  faults.set_deadline(std::chrono::nanoseconds(1));  // nothing can make it

  ASSERT_TRUE(supervisor.trigger("office").ok());
  ASSERT_EQ(supervisor.pump(), 1u);
  auto health = engine.site_health("office").value();
  EXPECT_EQ(health.deadline_trips, 1u);
  EXPECT_EQ(health.updates_failed, 1u);
  EXPECT_EQ(health.serving_version, 1u);
  EXPECT_EQ(health.latest_version, 1u);  // the commit truly aborted
  EXPECT_EQ(engine.published("office").value().get(), last_good.get());

  faults.set_deadline(std::chrono::nanoseconds(0));  // deadline clears
  ASSERT_EQ(supervisor.pump(), 1u);
  health = engine.site_health("office").value();
  EXPECT_EQ(health.state, serve::SiteState::kHealthy);
  EXPECT_EQ(health.serving_version, 2u);
}

TEST(UpdateSupervisor, CorruptStreamIsQuarantinedNotSolved) {
  const auto& run = iup::test::office_run();
  api::Engine engine;
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  UpdateSupervisor supervisor(engine, immediate_options());
  ASSERT_TRUE(supervisor.watch("office").ok());

  FaultInjector faults(4242);
  faults.arm(FaultKind::kCorruptObservation, {0, 0, 2});  // every other
  const linalg::Matrix& served = engine.snapshot("office").value()->database();
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    Observation obs{i % 8, (i * 7) % 96, 0.0, 5, {}};
    obs.rss_db = served(obs.link, obs.cell) + 1.0;
    if (faults.fire(FaultKind::kCorruptObservation)) faults.corrupt(obs);
    if (!supervisor.observe("office", obs).ok()) ++rejected;
  }
  EXPECT_EQ(rejected, 10u);
  const auto health = engine.site_health("office").value();
  EXPECT_EQ(health.quarantined_total(), 10u);
  EXPECT_EQ(health.observations_accepted, 10u);
  // The clean half was ~1 dB residual: no drift trigger, no update.
  EXPECT_EQ(health.drift_triggers, 0u);
  EXPECT_EQ(supervisor.pump(), 0u);
}

TEST(UpdateSupervisor, BackgroundThreadRunsTheSameLoop) {
  const auto& run = iup::test::office_run();
  api::Engine engine;
  ASSERT_TRUE(eval::register_run(engine, run, "office").ok());
  SupervisorOptions options = immediate_options();
  options.poll_period = std::chrono::milliseconds(1);
  UpdateSupervisor supervisor(engine, options);
  ASSERT_TRUE(supervisor.watch("office").ok());
  EXPECT_FALSE(supervisor.running());

  supervisor.start();
  EXPECT_TRUE(supervisor.running());
  ASSERT_TRUE(supervisor.trigger("office").ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.site_health("office").value().updates_ok == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  supervisor.stop();
  EXPECT_FALSE(supervisor.running());
  EXPECT_GE(engine.site_health("office").value().updates_ok, 1u);
  EXPECT_EQ(engine.site_health("office").value().serving_version, 2u);
}

}  // namespace
}  // namespace iup::ingest
