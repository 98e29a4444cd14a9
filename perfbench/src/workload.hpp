// What the three workloads share: the run options, simulated sites and
// their generated inputs, engine deployment (durability + registration,
// timed as set-up), per-pass statistics and the restore check.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "harness.hpp"
#include "persist/durability.hpp"
#include "sim/sampler.hpp"
#include "sim/testbeds.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes: checks names and plumbing only
  std::string state_dir;
};

/// One simulated deployment and its day-0 survey.  The room geometry is
/// fixed; the run seed keys every sampling stream, so a seed changes the
/// measurement noise the system sees, never the building.
struct SiteModel {
  std::string name;
  iup::sim::Testbed testbed;
  iup::linalg::Matrix x0;          ///< day-0 survey (registration input)
  std::vector<double> baselines0;  ///< day-0 no-target baselines
  iup::linalg::Matrix mask;        ///< no-decrease entries (Eq. 8)
  std::vector<iup::SourceInfo> sources;  ///< empty: legacy registration

  /// A sampling stream of this site keyed by the run seed and `label`.
  iup::sim::Sampler sampler(std::uint64_t seed,
                            const std::string& label) const;
};

SiteModel make_site(std::string name, iup::sim::Testbed testbed,
                    bool register_sources, std::uint64_t seed,
                    std::size_t survey_samples);

/// The paper's three rooms (office 8x96, library 6x72, hall 8x120).
std::vector<SiteModel> paper_rooms(std::uint64_t seed,
                                   std::size_t survey_samples);

/// A validated localization query with its ground truth.
struct Query {
  std::size_t site = 0;  ///< index into the workload's site list
  std::size_t cell = 0;
  std::vector<double> rss;
};

/// A live engine with durability bound, all sites registered.
struct Deployment {
  std::unique_ptr<iup::persist::DurabilityManager> durability;
  std::unique_ptr<iup::api::Engine> engine;
  double setup_s = 0.0;
  std::vector<double> register_ms;
  std::vector<std::vector<std::size_t>> reference_cells;  ///< per site
};

struct DeployOptions {
  std::size_t threads = 1;
  std::string dir;             ///< durable directory (wiped first)
  Tracer* tracer = nullptr;    ///< non-null: traced engine
};

/// The engine configuration every workload uses (tracing aside).
iup::api::EngineConfig base_config(std::size_t threads);

/// Build an engine and register `sites`; set-up time is engine
/// construction + durability bind + every register_site.  Exits with a
/// diagnostic on any failure (nothing can be measured without the sites).
Deployment deploy(const std::vector<const SiteModel*>& sites,
                  const DeployOptions& options);

/// Everything one pass (fresh engine, full trajectory) measured.
struct PassStats {
  bool traced = false;
  double setup_s = 0.0;
  std::vector<double> register_ms;
  LatencySummary update;     ///< one unit of update work (see workloads)
  LatencySummary localize;   ///< one localize call (per measurement)
  double busy_s = 0.0;       ///< timed seconds behind site_days
  double site_days = 0.0;
  double localized = 0.0;    ///< measurements localized while timed
  double localize_s = 0.0;   ///< seconds those took (wall)
  std::size_t localize_threads = 1;  ///< threads issuing them
  double loc_err_mean_m = 0.0;
  double loc_err_p90_m = 0.0;
  double recon_median_db = 0.0;
  std::uint64_t checkpoints = 0;

  // Layer data; the per-layer report reads it from traced passes.
  std::vector<UpdateSpan> spans;
  std::vector<double> call_wall_ns;  ///< harness-timed update call k
  std::size_t call_threads = 1;      ///< threads an update call may use
  LatencySummary resolve;            ///< Engine::published
  LatencySummary omp;                ///< bundle localizer->localize
  double batch_ns_per_meas_sum = 0.0;  ///< localize_batch wall / n, summed
  double batch_panels = 0.0;
  double observe_ns = 0.0;           ///< summed observe() wall
  double observations = 0.0;
  std::uint64_t quarantined = 0;
  std::uint64_t drift_triggers = 0;
  std::uint64_t spd_bump_recoveries = 0;
  std::uint64_t spd_lu_fallbacks = 0;
};

/// Reference results for the restore check: the live engine's answers
/// to a fixed query set, bit for bit.
struct RestoreProbe {
  std::vector<std::string> sites;
  std::vector<Query> queries;
  std::vector<iup::loc::LocalizationEstimate> expected;
};

/// Answer every probe query on `engine` (single localize calls).
std::vector<iup::loc::LocalizationEstimate> answer(
    const iup::api::Engine& engine, const RestoreProbe& probe, Ops& ops);

/// Restore `dir` into `repeats` fresh engines, require bit-identical
/// answers, return the restore times [ms].  Failures are counted in
/// `ops.restore` (and mismatches too: a restore that serves different
/// bits is a failed restore).
std::vector<double> restore_check(const std::string& dir,
                                  std::size_t threads,
                                  const RestoreProbe& probe,
                                  std::size_t repeats, Ops& ops);

/// The four latency histograms a pass records into.
struct PassHistograms {
  Histogram update, localize, resolve, omp;
  void reset() {
    update.reset();
    localize.reset();
    resolve.reset();
    omp.reset();
  }
  void summarize_into(PassStats& st) const {
    st.update = LatencySummary::of(update);
    st.localize = LatencySummary::of(localize);
    st.resolve = LatencySummary::of(resolve);
    st.omp = LatencySummary::of(omp);
  }
};

/// One single-measurement localize.  With `split` null this is
/// Engine::localize; otherwise it is the traced resolve/OMP split
/// (Engine::published, then the bundle's localizer->localize), and the two
/// parts are recorded into split->resolve and split->omp.  Empty on
/// failure.
std::optional<iup::loc::LocalizationEstimate> localize_one(
    const iup::api::Engine& engine, const std::string& site,
    std::span<const double> rss, PassHistograms* split);

/// Time the bundles' localizer->localize_batch per site on `queries` (the
/// batch half of the resolve/OMP split), off the workload's clock.
void probe_batch(const iup::api::Engine& engine,
                 const std::vector<std::string>& sites,
                 const std::vector<Query>& queries, PassStats& stats,
                 Ops& ops);

/// Localization error [m] of estimate `cell` for a query at `truth`.
double error_m(const SiteModel& site, std::size_t truth, std::size_t cell);

/// Append the absolute reconstruction errors of `db` against `truth` on
/// the entries a target affects (mask == 0) to `pooled`.
void add_recon_errors(const iup::linalg::Matrix& db,
                      const iup::linalg::Matrix& truth,
                      const iup::linalg::Matrix& mask,
                      std::vector<double>& pooled);

/// Remove a directory tree (best effort) and recreate it.
void reset_dir(const std::string& dir);
void remove_dir(const std::string& dir);

/// Round-robin placement of the workload's busy threads on the CPUs the
/// process may use.  The host slows single CPUs independently of each
/// other for seconds at a time; moving every busy thread to another CPU
/// at each turn makes every run visit every CPU, so one slow CPU cannot
/// set a whole run's figures.  Restores the creating thread's affinity.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Start the next turn.
  void advance() { ++turn_; }
  /// Pin `thread` to the CPU `slot` places after this turn's first one.
  void pin(pthread_t thread, std::size_t slot) const;

 private:
  pthread_t owner_;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Fatal harness error: print and exit nonzero without a result line.
[[noreturn]] void die(const std::string& message);

}  // namespace perfbench
