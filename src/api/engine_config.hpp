// Fluent configuration for iup::api::Engine.
//
//   core::RsvdOptions nlc_only;  // Constraint 1 + location continuity
//   nlc_only.w_similarity = 0.0;
//   auto engine = api::Engine(api::EngineConfig()
//                                 .rsvd(nlc_only)
//                                 .localizer(api::LocalizerKind::kKnn)
//                                 .history_limit(8));
//
// Setters return *this; unset fields keep the paper's defaults (self-
// augmented RSVD, OMP localization).  The engine always selects reference
// cells by QRCP MIC extraction and re-derives the correlation Z from
// every committed reconstruction (the paper's "original or latest
// updated" phrasing).
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "api/snapshot.hpp"
#include "api/solver_backend.hpp"
#include "api/status.hpp"
#include "core/rsvd.hpp"
#include "serve/shard.hpp"

namespace iup::api {

/// Which localizer Engine::localize builds over a site's database.
enum class LocalizerKind {
  kOmp,   ///< the paper's sparse-recovery matcher (Sec. V)
  kKnn,   ///< RADAR-style nearest fingerprints
  kRass,  ///< SVR baseline; needs Engine::attach_deployment
};

/// One successfully committed snapshot, as observed by the after_commit
/// hook: the exact immutable state a durability layer must write to make
/// a later restore bit-identical — the snapshot and the warm state its
/// published bundle carries.  Persisting the warm state matters because
/// it seeds later solves, so a replay that re-solved cold would drift
/// from the uninterrupted run at the byte level.
struct CommitEvent {
  SnapshotPtr snapshot;  ///< the committed version (never null)
  serve::WarmState warm;
};

/// Failure-path and durability seams on the update pipeline, default-empty
/// (and then completely free: a null hook is never consulted, so the
/// default-config update trajectory is byte-identical with or without this
/// struct).  ingest::FaultInjector::engine_hooks() builds closures for the
/// failure seams; persist::DurabilityManager::engine_hooks() adds the
/// after_commit durability tap (and can compose around an inner injector's
/// hooks).  Hooks may be called concurrently (one per in-flight update)
/// and must be thread-safe.
struct UpdateHooks {
  /// Consulted by every solve (update / reconstruct / update_batch) after
  /// request validation, before the solver runs.  A non-OK return fails
  /// the solve with exactly that status — no state has been touched.
  std::function<Status()> on_solve;
  /// Consulted once per update() after the solve and correlation refresh,
  /// before the commit lock is taken; `elapsed` is the wall-clock time
  /// since the update entered the engine.  A non-OK return aborts the
  /// commit — nothing is published, the site keeps serving its last-good
  /// bundle — which is how a cooperative deadline is enforced (return
  /// kDeadlineExceeded when `elapsed` is past budget).
  std::function<Status(std::chrono::nanoseconds elapsed)> before_publish;
  /// Fired once per committed snapshot (register_site,
  /// set_reference_cells and every update() commit), after publication,
  /// OUTSIDE the commit lock.  The commit is already visible to readers,
  /// so the hook cannot veto it — a durability layer that crashes between
  /// publish and its WAL append loses at most this in-flight commit, never
  /// a published prefix.  Runs on the committing thread; keep it cheap or
  /// hand off.
  std::function<void(const CommitEvent&)> after_commit;
};

class EngineConfig {
 public:
  EngineConfig() = default;

  EngineConfig& rsvd(core::RsvdOptions value) {
    rsvd_ = value;
    return *this;
  }
  /// Reuse the previous snapshot's converged factor as the solver's L0
  /// (carried in the site's published bundle, so only the update that
  /// committed a version seeds the next solve; registration and
  /// set_reference_cells publish none) instead of paying for a fresh
  /// warm-start SVD on every update.  Only backends that consume the
  /// factor participate (FactorInit::kWarmStart).  NOTE: on by default,
  /// which changes the second-and-later update() iterates (and thus
  /// committed x_hat values) relative to releases without the cache — the
  /// solver starts from a different, better L0.  Results remain
  /// bit-identical across thread counts and across engines replaying the
  /// same per-site request sequence; set warm_start(false) to reproduce
  /// cold-start-era numbers exactly.
  EngineConfig& warm_start(bool value) {
    warm_start_ = value;
    return *this;
  }
  /// Warm-start each post-commit correlation refresh from the previous
  /// snapshot's ADMM state (Z + multipliers + penalty, carried in the
  /// published bundle like the solver factor above) instead of solving
  /// the LRR cold — roughly a 3-4x cut in refresh iterations on
  /// slowly-drifting databases.  set_reference_cells solves its own
  /// refresh cold and publishes that state, so stale state can never
  /// leak across reference sets.  Changes refreshed Z values at
  /// iterate level (same fixed point within the ADMM tolerance); results
  /// remain bit-identical across thread counts and across engines
  /// replaying the same request sequence.  Set false for cold-refresh
  /// numbers.
  EngineConfig& lrr_warm_start(bool value) {
    lrr_warm_start_ = value;
    return *this;
  }
  /// Inject a concrete backend instance instead of the default
  /// SelfAugmentedBackend built from rsvd().  The engine uses it as is:
  /// threads() is NOT applied to an injected backend, so a decorator that
  /// wraps SelfAugmentedBackend copies the thread count into its options
  /// itself.
  EngineConfig& solver(std::shared_ptr<const SolverBackend> backend) {
    solver_backend_ = std::move(backend);
    return *this;
  }
  EngineConfig& localizer(LocalizerKind value) {
    localizer_ = value;
    return *this;
  }
  /// Snapshot versions retained per site (0 = unlimited).
  EngineConfig& history_limit(std::size_t value) {
    history_limit_ = value;
    return *this;
  }
  /// Worker threads (0 = all hardware threads; default 1).  The one
  /// parallelism setting of the engine: it fans out the solver sweep
  /// (RsvdOptions::threads is overridden when the engine builds its
  /// backend, regardless of setter order), update_batch across sites and
  /// localize_batch across measurements.  The correlation pipeline (MIC
  /// and LRR) is serial.  Results are bit-identical for any value: the
  /// solver sweep never reorders a floating-point reduction, and the batch
  /// fan-outs only parallelise independent work (distinct sites / distinct
  /// measurements).
  EngineConfig& threads(std::size_t value) {
    threads_ = value;
    return *this;
  }
  /// Install failure-path seams on the update pipeline (see UpdateHooks).
  /// Default-empty hooks cost nothing and change nothing.
  EngineConfig& update_hooks(UpdateHooks value) {
    update_hooks_ = std::move(value);
    return *this;
  }

  const core::RsvdOptions& rsvd() const { return rsvd_; }
  bool warm_start() const { return warm_start_; }
  bool lrr_warm_start() const { return lrr_warm_start_; }
  const std::shared_ptr<const SolverBackend>& solver_backend() const {
    return solver_backend_;
  }
  LocalizerKind localizer() const { return localizer_; }
  std::size_t history_limit() const { return history_limit_; }
  const UpdateHooks& update_hooks() const { return update_hooks_; }
  std::size_t threads() const { return threads_; }

 private:
  core::RsvdOptions rsvd_;
  bool warm_start_ = true;
  bool lrr_warm_start_ = true;
  std::shared_ptr<const SolverBackend> solver_backend_;
  LocalizerKind localizer_ = LocalizerKind::kOmp;
  std::size_t history_limit_ = 0;
  std::size_t threads_ = 1;
  UpdateHooks update_hooks_;
};

}  // namespace iup::api
