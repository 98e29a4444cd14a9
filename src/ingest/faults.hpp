// Deterministic, seeded fault injection for the update pipeline.
//
// The chaos soak (bench_serve_soak --chaos) and the robustness tests need
// to make the pipeline fail on demand — solver outages, corrupt readings,
// solves that blow their deadline — without touching production code
// paths.  FaultInjector is that control panel: each FaultKind is armed
// with a schedule over that kind's own attempt counter (deterministic —
// no clocks, no real randomness beyond the seed), and the injector's
// engine_hooks() compiles the armed state into the api::UpdateHooks seams
// the Engine consults.  Everything is runtime-re-armable: the soak arms
// faults mid-run, lets sites degrade, then clear()s and asserts every
// site recovers.
//
// Thread-safe: schedules sit behind a mutex (cold path), the delay /
// deadline knobs are relaxed atomics read by the hooks.
#pragma once

#include <chrono>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "api/engine_config.hpp"
#include "ingest/observation.hpp"
#include "rng/rng.hpp"

namespace iup::ingest {

enum class FaultKind : std::uint32_t {
  kSolverFailure = 0,       ///< on_solve returns kUnavailable
  kCorruptObservation = 1,  ///< corrupt() mangles a reading (sampled by
                            ///< the producer via fire())
  kSlowSolve = 3,           ///< on_solve sleeps solve_delay (then the
                            ///< deadline trips at before_publish)
};

/// When an armed fault fires, over the kind's own 0-based attempt
/// counter n (each fire() consultation advances it while armed):
/// fires when n >= start, (n - start) % every == 0, and fewer than
/// `count` firings have happened (count == 0 means unlimited).
struct FaultSchedule {
  std::uint64_t start = 0;
  std::uint64_t count = 0;
  std::uint64_t every = 1;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0xfa0175eedULL);

  /// Arm `kind` with `schedule` (re-arming resets that kind's counters).
  void arm(FaultKind kind, FaultSchedule schedule = {});

  /// Disarm one kind / every kind ("faults clear").  Attempt counters
  /// freeze; fired totals remain readable.
  void clear(FaultKind kind);
  void clear();

  /// Consult `kind`: advances its attempt counter iff armed, returns
  /// whether the schedule says this attempt faults.  Always false (and
  /// counter-neutral) while disarmed — a cleared injector is free.
  bool fire(FaultKind kind);

  /// Times one kind has fired since it was last armed.
  std::uint64_t fired(FaultKind kind) const;

  /// Deterministically mangle a reading into one of the quarantine
  /// classes (NaN, +Inf, out-of-range, unknown link) — which one is a
  /// seeded draw, so a given seed yields a reproducible corruption
  /// sequence.  Callers gate on fire(kCorruptObservation).
  void corrupt(Observation& observation);

  // --- runtime knobs read by the hooks (relaxed atomics) ---------------
  void set_solve_delay(std::chrono::nanoseconds delay);
  /// Cooperative update deadline enforced at before_publish; zero (the
  /// default) disables enforcement.
  void set_deadline(std::chrono::nanoseconds deadline);
  std::chrono::nanoseconds deadline() const;

  /// Compile this injector into the Engine's failure-path seams.  The
  /// returned hooks hold a pointer to *this (the injector must outlive
  /// the engine):
  ///   on_solve: a kSlowSolve firing sleeps solve_delay and lets the
  ///     solve proceed (so the *deadline* trips, not the solver); else a
  ///     kSolverFailure firing returns kUnavailable.
  ///   before_publish: with a deadline set, an over-budget elapsed
  ///     returns kDeadlineExceeded — the Engine aborts the commit and the
  ///     site keeps serving its last-good bundle.
  api::UpdateHooks engine_hooks();

 private:
  struct KindState {
    bool armed = false;
    FaultSchedule schedule;
    std::uint64_t attempts = 0;
    std::uint64_t fired = 0;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::uint32_t, KindState> kinds_;
  rng::Rng rng_;
  std::atomic<std::int64_t> solve_delay_ns_{0};
  std::atomic<std::int64_t> deadline_ns_{0};
};

}  // namespace iup::ingest
