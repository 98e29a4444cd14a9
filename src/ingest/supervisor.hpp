// UpdateSupervisor — the background continuous-update loop.
//
// One supervisor watches any number of an Engine's sites and closes the
// paper's loop end to end: producers stream Observations in through
// observe() (validated/quarantined by the site's ObservationBuffer, with
// each accepted reading's residual against the *served* snapshot feeding
// an EwmaDriftDetector), and once a site's detector crosses its threshold
// — or trigger() forces the issue — the supervisor runs Algorithm 1
// through Engine::update(), which starts from the warm state in the site's
// published bundle.
//
// Failure handling is the point of this class:
//
//   healthy --> updating --> healthy            commit landed
//   updating --> backoff --> updating           retry, exponential backoff
//                                               with seeded jitter
//   backoff --> degraded                        circuit breaker: too many
//                                               consecutive failures
//   degraded --> updating --> healthy           cooldown probe succeeded
//                                               ("recovered")
//
// A degraded site is parked, not dropped: its last-good RCU bundle keeps
// serving (the Engine aborts failed commits before publication, so
// readers never see a partial version), with staleness readable through
// Engine::site_health().  After breaker_cooldown the breaker half-opens
// and the next pump probes once; a successful probe closes it and counts
// a recovery.  All transitions are mirrored into the site's
// serve::SiteHealthCounters.
//
// Threading: observe()/trigger() are producer-safe from any thread (never
// the serve read path); the state machine advances in pump(), which
// start() runs on a background thread every poll_period — or which tests
// call directly for fully deterministic, clock-free sequencing (zero
// backoff/cooldown options make every retry immediately due).  Solves run
// outside every supervisor lock, so observe() never blocks on a solve.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "api/engine.hpp"
#include "ingest/buffer.hpp"
#include "ingest/drift.hpp"
#include "rng/rng.hpp"
#include "serve/health.hpp"

namespace iup::ingest {

struct SupervisorOptions {
  /// Background-thread pump cadence (start(); pump() callers own timing).
  std::chrono::milliseconds poll_period{20};
  /// Soft deadline classification: a *successful* update slower than this
  /// still counts a deadline_trip (zero disables).  Hard enforcement —
  /// aborting the commit — lives in the before_publish hook
  /// (FaultInjector::set_deadline or any caller-installed hook).
  std::chrono::milliseconds deadline{0};
  std::chrono::milliseconds backoff_initial{100};
  std::chrono::milliseconds backoff_max{2000};
  /// Backoff is scaled by a seeded uniform draw from
  /// [1 - jitter, 1 + jitter] — deterministic per (seed, site).
  double backoff_jitter = 0.2;
  /// Consecutive failures that open the circuit breaker (>= 1).
  std::uint64_t breaker_threshold = 3;
  /// Wait before a degraded site half-opens for a probe attempt.
  std::chrono::milliseconds breaker_cooldown{500};
  std::uint64_t seed = 0x5096eedULL;
};

/// Per-site knobs fixed at watch() time.
struct WatchOptions {
  ObservationBufferOptions buffer;
  DriftDetectorOptions drift;
  /// Builds the UpdateRequest for an attempt (`day` is the site's newest
  /// observed day).  Default: assemble the watched buffer against the
  /// latest snapshot.  A non-OK result counts as a failed attempt.
  std::function<api::Result<api::UpdateRequest>(const std::string& site,
                                                std::uint64_t day)>
      collector;
};

class UpdateSupervisor {
 public:
  /// `engine` must outlive the supervisor.
  explicit UpdateSupervisor(api::Engine& engine, SupervisorOptions options = {});
  ~UpdateSupervisor();

  UpdateSupervisor(const UpdateSupervisor&) = delete;
  UpdateSupervisor& operator=(const UpdateSupervisor&) = delete;

  /// Start supervising a registered site.  kNotFound for unknown sites,
  /// kFailedPrecondition when already watched.
  api::Status watch(const std::string& site, WatchOptions options = {});
  api::Status unwatch(const std::string& site);

  /// Producer entry point: validate + buffer one reading, feed the drift
  /// detector with its residual against the served snapshot, and queue an
  /// update when the detector fires.  Returns the buffer's verdict
  /// (kInvalidArgument / kResourceExhausted for quarantined readings).
  api::Status observe(const std::string& site, const Observation& observation);

  /// Force an update attempt at the next pump, bypassing drift detection
  /// and any pending backoff wait.
  api::Status trigger(const std::string& site);

  /// Advance the state machine once: run every due attempt synchronously
  /// on the calling thread.  Returns the number of attempts run.  The
  /// deterministic test entry point; start() just calls this on a timer.
  std::size_t pump();

  void start();
  void stop();
  bool running() const;

  const SupervisorOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Watched {
    std::string site;
    std::shared_ptr<serve::SiteShard> shard;
    std::unique_ptr<ObservationBuffer> buffer;
    WatchOptions watch;
    rng::Rng jitter;

    std::mutex mutex;  ///< guards everything below
    EwmaDriftDetector detector;
    serve::SiteState state = serve::SiteState::kHealthy;
    bool degraded = false;     ///< breaker open (survives probe attempts)
    bool pending = false;      ///< an update is queued (drift / trigger /
                               ///< retry)
    bool in_flight = false;    ///< an attempt is running right now
    std::uint64_t consecutive_failures = 0;
    std::chrono::nanoseconds backoff{0};  ///< next retry's base delay
    Clock::time_point next_attempt{};     ///< earliest due time
  };

  using WatchedPtr = std::shared_ptr<Watched>;

  WatchedPtr find(const std::string& site) const;
  /// Mirror a state-machine transition into the shard counters; callers
  /// hold w.mutex.
  static void set_state(Watched& w, serve::SiteState state);
  /// Run one attempt for `w` (marked in_flight by the caller): build the
  /// request, Engine::update() outside every lock, then classify the
  /// outcome into retry/backoff/breaker bookkeeping.
  void attempt(Watched& w);
  api::Result<api::UpdateRequest> collect(Watched& w, std::uint64_t day);

  api::Engine& engine_;
  SupervisorOptions options_;

  mutable std::mutex sites_mutex_;
  std::unordered_map<std::string, WatchedPtr> sites_;

  mutable std::mutex run_mutex_;
  std::condition_variable run_cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace iup::ingest
