// iup::api::Engine — the service facade over the whole pipeline.
//
// One Engine owns any number of deployments ("sites"), each a versioned
// history of immutable FingerprintSnapshots in a SnapshotStore.  Per site
// it runs the paper's loop: MIC reference selection + LRR correlation at
// registration, then low-cost updates that reconstruct the database from
// fresh X_B / X_R through a pluggable SolverBackend, and localization over
// the latest database.  Every entry point validates its inputs and returns
// Status / Result<T>; exceptions never cross this boundary.
//
// Serving architecture (src/serve/): each site is backed by a SiteShard
// whose published {snapshot, localizer, warm} bundle is swapped RCU-style
// by the write paths, so localize()/localize_batch() run WITHOUT ANY LOCK in
// steady state — they resolve the shard through the registry's lock-free
// map, load one published pointer (serve::RcuSlot) and compute against
// the immutable bundle.  A localize overlapping an update observes either
// the old or the new version in full, and its result is bit-identical to a
// serial localize against whichever version it observed (the bundle pins
// database and localizer together).  The zero-locks contract is machine-
// checked: the read paths run inside serve::ReadPathScope and every state
// mutex routes through serve::note_state_lock_acquired().  Concurrent
// single-measurement callers each take this path directly: every query is
// an independent match, so there is nothing to gain by holding one back
// to form a batch.
//
// Batched entry points (update_batch / localize_batch) amortize per-site
// state: snapshots and correlation matrices are reused from the store, the
// localizer (whose construction builds the matching dictionary) lives in
// the published bundle, and each commit publishes its converged solver
// factor in that bundle as the warm start for the next solve
// (EngineConfig::warm_start, on by default), skipping the per-update
// initialisation SVD.  With EngineConfig::threads(n) > 1 they
// fan out over iup::parallel: update_batch parallelises across *sites*
// (same-site requests stay strictly ordered, so batches remain exactly
// equivalent to sequential update() calls) and localize_batch across
// measurements.  Solver and localizer-construction work always runs
// outside the commit lock.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/engine_config.hpp"
#include "api/snapshot.hpp"
#include "api/status.hpp"
#include "base/ids.hpp"
#include "core/updater.hpp"
#include "linalg/cholesky.hpp"
#include "loc/localizer.hpp"
#include "serve/health.hpp"
#include "serve/registry.hpp"
#include "serve/shard.hpp"

namespace iup::persist {
struct EngineImage;
struct SiteImage;
struct WalRecord;
}  // namespace iup::persist

namespace iup::api {

// API v2 vocabulary (base/ids.hpp), re-exported so callers can spell the
// typed identifiers as api::CellId etc. next to the Engine they feed.
using iup::CellId;
using iup::LinkId;
using iup::SourceId;
using iup::SourceInfo;
using iup::Technology;

/// One low-cost update: fresh measurements for one site at one timestamp.
struct UpdateRequest {
  std::string site;
  core::UpdateInputs inputs;  ///< X_B (no-decrease) + X_R (reference survey)
  std::size_t day = 0;        ///< timestamp label carried into the snapshot
};

/// One-call health/staleness introspection for a site: a plain-value
/// snapshot of its serve::SiteHealthCounters plus the serving metadata a
/// degraded site keeps publishing (which version is served, how stale it
/// is against the observation stream).  Counters are relaxed-atomic
/// tallies sampled individually, so fields may be mutually skewed by
/// in-flight updates — a monitoring surface, not a transaction.
struct SiteHealth {
  serve::SiteState state = serve::SiteState::kHealthy;
  std::uint64_t serving_version = 0;  ///< published bundle's version
  std::size_t serving_day = 0;        ///< published bundle's day label
  std::uint64_t latest_version = 0;   ///< store's newest committed version
  /// last_observed_day - serving_day when the observation stream is
  /// ahead, else 0.
  std::uint64_t staleness_days = 0;

  /// Every serve::SiteHealthCounters counter by name (see
  /// IUP_SITE_HEALTH_COUNTERS), last_observed_day included.
#define IUP_HEALTH_FIELD(name) std::uint64_t name = 0;
  IUP_SITE_HEALTH_COUNTERS(IUP_HEALTH_FIELD)
#undef IUP_HEALTH_FIELD

  std::uint64_t quarantined_total() const {
#define IUP_ADD_QUARANTINE(name) +name
    return 0 IUP_SITE_QUARANTINE_COUNTERS(IUP_ADD_QUARANTINE);
#undef IUP_ADD_QUARANTINE
  }
};

struct UpdateResult {
  core::RsvdResult solver;
  std::size_t reference_count = 0;
  std::uint64_t base_version = 0;       ///< snapshot version the solve read
  std::uint64_t committed_version = 0;  ///< 0 for reconstruct()
  SnapshotPtr snapshot;                 ///< committed snapshot; null for
                                        ///< reconstruct()

  /// The reconstructed fingerprint matrix.
  const linalg::Matrix& x_hat() const { return solver.x_hat; }
};

/// Build a localizer of `kind` over `database`.  `deployment` enables
/// geometry-aware matching (KNN centroid averaging) and is mandatory for
/// kRass; returns nullptr when it is missing for a kind that requires it.
/// `threads` is the training budget for localizers that learn a model at
/// construction (kRass SVR training: kernel-matrix rows + the per-axis
/// fits fan out over iup::parallel, bit-identical for any value).
std::unique_ptr<loc::Localizer> make_localizer(
    LocalizerKind kind, const linalg::Matrix& database,
    const sim::Deployment* deployment = nullptr, std::size_t threads = 1);

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  // --- site lifecycle --------------------------------------------------
  /// Register a deployment from its initial site survey: selects the MIC
  /// reference locations, acquires the correlation matrix Z, commits
  /// snapshot version 1 and publishes the site's first serving bundle.
  Result<SnapshotPtr> register_site(std::string site,
                                    linalg::Matrix x_original,
                                    linalg::Matrix b_mask);
  /// Multi-radio registration: as above, plus the site's per-link source
  /// table — entry i names the transmitter behind fingerprint row i and
  /// its technology (WiFi AP / BLE beacon / LoRa node).  `sources` must
  /// be empty (legacy: source validation disabled) or have exactly one
  /// entry per link, every id specified and unique.  The table is carried
  /// immutably through every snapshot version the site commits, and
  /// enforced against UpdateInputs::sources and (through the supervisor's
  /// ObservationBuffer) every streamed observation.
  Result<SnapshotPtr> register_site(std::string site,
                                    linalg::Matrix x_original,
                                    linalg::Matrix b_mask,
                                    std::vector<SourceInfo> sources);
  Status drop_site(const std::string& site);

  /// Attach deployment geometry (cell centres) to a registered site; the
  /// pointer must outlive the engine.  Required for kKnn centroid
  /// averaging and for kRass.  Republishes the serving bundle with a
  /// geometry-aware localizer.
  Status attach_deployment(const std::string& site,
                           const sim::Deployment* deployment);

  // --- snapshots -------------------------------------------------------
  Result<SnapshotPtr> snapshot(const std::string& site) const;
  Result<SnapshotPtr> snapshot(const std::string& site,
                               std::uint64_t version) const;
  /// The grid cells a surveyor must visit for the next update, as typed
  /// CellIds (API v2; use CellId::value() at the numeric boundary).
  Result<std::vector<CellId>> reference_cells(const std::string& site) const;
  /// Override the reference set (benches evaluate 7 / 8+1 / random sets);
  /// commits a new snapshot version with the re-acquired correlation.
  Status set_reference_cells(const std::string& site,
                             std::vector<CellId> cells);
  /// The site's registered per-link source table; empty for legacy
  /// single-technology registrations.
  Result<std::vector<SourceInfo>> sources(const std::string& site) const;

  // --- updates ---------------------------------------------------------
  /// Reconstruct against the latest snapshot without committing.
  Result<UpdateResult> reconstruct(const UpdateRequest& request) const;
  /// Reconstruct and commit a new snapshot version.
  Result<UpdateResult> update(const UpdateRequest& request);
  /// Apply many updates (any mix of sites).  Per site, requests are
  /// processed in order, so same-site requests at increasing timestamps
  /// are exactly equivalent to sequential update() calls; each request
  /// gets its own Result and a failed request never blocks the rest of
  /// the batch.  With config().threads() > 1 distinct sites are updated
  /// concurrently — results are bit-identical to the sequential order
  /// because sites share no mutable state.
  std::vector<Result<UpdateResult>> update_batch(
      const std::vector<UpdateRequest>& requests);

  // --- localization ----------------------------------------------------
  /// Lock-free: resolves the site's published {snapshot, localizer}
  /// bundle and matches against it (see the serving-architecture note).
  Result<loc::LocalizationEstimate> localize(
      const std::string& site, std::span<const double> measurement) const;
  /// Localize many online measurements against one site; all of them
  /// match the SAME published bundle (one version, even mid-update).
  Result<std::vector<loc::LocalizationEstimate>> localize_batch(
      const std::string& site,
      const std::vector<std::vector<double>>& measurements) const;

  const SnapshotStore& store() const { return store_; }
  const EngineConfig& config() const { return config_; }
  const SolverBackend& solver() const { return *backend_; }

  /// The serve-layer registry backing this engine's sites.  The ingest
  /// supervisor and trace replay reach each site's health counters
  /// through it; shards resolved from it stay valid across drop_site.
  const serve::ShardRegistry& shards() const { return *shards_; }

  /// The site's current published serving bundle (lock-free).  Holding
  /// the pointer pins that exact {snapshot, localizer, warm} version
  /// across any number of concurrent updates or evictions.
  Result<serve::PublishedPtr> published(const std::string& site) const;

  /// Health/staleness snapshot for one site: update pipeline state,
  /// serving version vs latest commit, quarantine tallies and the SPD
  /// fallback counters attributed to this site (previously only the
  /// process-global linalg::spd_stats() existed).  Not a read-path call
  /// (it takes the commit lock for the latest version); monitoring and
  /// tests only.
  Result<SiteHealth> site_health(const std::string& site) const;

  // --- durability (implemented in src/persist/engine_persist.cpp) ------
  /// Write a durable checkpoint of every site — retained snapshot chain,
  /// the published bundle's warm state, health counters — into `dir`
  /// (created if needed) with atomic publication (temp + fsync + rename).
  /// Safe to call concurrently with updates: it collects every site under
  /// one commit-lock hold (never holding it across I/O) and never touches
  /// the serve read path.
  Status save_checkpoint(const std::string& dir) const;
  /// Crash recovery into a FRESH engine (kFailedPrecondition when any
  /// site is already registered): load `dir`'s checkpoint (if present),
  /// replay the WAL suffix (torn tail tolerated, mid-stream corruption is
  /// kDataLoss), and republish every site at its recovered latest version
  /// with that version's warm state, so the next solves are bit-identical
  /// to an uninterrupted run.  kNotFound when `dir` holds no durable state at
  /// all.  Deployment geometry is not persisted — re-attach after
  /// restore; the engine's config must match the writer's for
  /// bit-identity (documented in README).
  Status restore_from(const std::string& dir);

 private:
  /// Shared body of both set_reference_cells overloads (raw indices are
  /// the numeric core's vocabulary).
  Status set_reference_cells_impl(const std::string& site,
                                  std::vector<std::size_t> cells);

  /// The site's published bundle, read under the commit lock (the caller
  /// holds it), where it is always the store's latest version: every
  /// commit publishes inside the same critical section.
  Result<serve::PublishedPtr> latest_bundle_locked(
      const std::string& site) const;

  /// Validate `request` against the bundle's snapshot and run the solver,
  /// seeding it from the bundle's warm factor when warm_start is on.
  Result<UpdateResult> solve_request(const serve::PublishedSite& bundle,
                                     const UpdateRequest& request) const;

  /// update() minus the health accounting wrapper.
  Result<UpdateResult> update_impl(const UpdateRequest& request);

  /// Record one update outcome in the site's shard counters: commit
  /// success/failure plus the delta of the process-wide SPD stats across
  /// the attempt (the per-site fallback attribution; see serve/health.hpp
  /// for the concurrency caveat).
  void record_update_health(const std::string& site, bool ok,
                            const linalg::SpdStats& before) const;

  /// Post-commit correlation refresh: gather the reference columns of
  /// `x_hat` (MIC) and re-solve the LRR for Z, warm-starting the ADMM
  /// from `warm` when given.  Runs outside the state lock; in
  /// update_batch the per-site refreshes execute concurrently across
  /// sites.
  Result<core::LrrResult> refreshed_correlation(
      const linalg::Matrix& x_hat, const std::vector<std::size_t>& cells,
      const core::LrrWarmStart* warm) const;

  static std::shared_ptr<const core::LrrWarmStart> lrr_state_of(
      const linalg::Matrix& z, core::LrrResult&& result);

  /// Build the configured localizer over `database` as a bundle-ready
  /// shared_ptr (null when the kind needs missing deployment geometry).
  /// Wraps construction exceptions into Status.
  Result<std::shared_ptr<const loc::Localizer>> build_localizer(
      const linalg::Matrix& database, const sim::Deployment* deployment) const;

  /// Acquire the commit lock, asserting the caller is not on the serve
  /// read path (the zero-locks contract; see serve/shard.hpp).
  std::unique_lock<std::mutex> state_lock() const {
    serve::note_state_lock_acquired();
    return std::unique_lock<std::mutex>(*state_mutex_);
  }

  // --- durability internals (src/persist/engine_persist.cpp) -----------
  /// Commit-consistent value image of every site for checkpointing.
  persist::EngineImage collect_persist_image() const;
  /// Install one checkpointed site into a fresh engine: restore the
  /// chain, publish its latest version with the checkpointed warm state,
  /// restore the health counters.
  Status install_restored_site(persist::SiteImage image);
  /// Apply one WAL record during replay (idempotent: versions at or below
  /// the site's restored latest are skipped; a gap is kDataLoss).
  Status apply_wal_record(const persist::WalRecord& record);

  EngineConfig config_;
  /// config_.update_hooks(): failure-path seams, empty (never consulted)
  /// by default.
  UpdateHooks hooks_;
  std::shared_ptr<const SolverBackend> backend_;
  /// warm_start() requested AND the backend actually consumes problem.l0;
  /// otherwise no factor is published (no copies, no retention).
  bool warm_start_enabled_ = false;
  /// config_.lrr_warm_start(): publish + resume the ADMM state of the
  /// correlation refreshes.
  bool lrr_warm_enabled_ = false;
  /// The COMMIT lock: guards store_ and deployments_ (and serialises
  /// publication order — bundles are published while it is held, so a
  /// site's published version can never move backwards).  Solver,
  /// correlation and localizer-construction work always runs outside it,
  /// and the localization read paths never touch it at all.  Held by
  /// unique_ptr so Engine stays movable (moving an Engine while a batch is
  /// in flight is a caller bug, as with any container).
  std::unique_ptr<std::mutex> state_mutex_ = std::make_unique<std::mutex>();
  SnapshotStore store_;
  std::unordered_map<std::string, const sim::Deployment*> deployments_;
  /// Per-site serving shards: published bundles + health counters.
  /// unique_ptr (registry is non-movable) so Engine stays movable.
  std::unique_ptr<serve::ShardRegistry> shards_ =
      std::make_unique<serve::ShardRegistry>();
};

}  // namespace iup::api
