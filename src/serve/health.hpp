// Per-site health state for the continuous-update pipeline.
//
// One SiteHealthCounters lives in each SiteShard, next to the published
// bundle it describes.  Three writers feed it, none of them on the serve
// read path: the Engine's update paths (commit outcomes + SPD fallback
// deltas), the ingest::ObservationBuffer (quarantine tallies) and the
// ingest::UpdateSupervisor (state machine, backoff/breaker transitions).
// Every field is a relaxed atomic: the counters are monotonic tallies (or
// a last-writer-wins state word) read for monitoring and by tests after
// joins — they order nothing, so they stay cheap enough to leave on in
// release builds, exactly like linalg::SpdStats.  Readers assemble a
// consistent-enough view through api::Engine::site_health(); individual
// loads may interleave with concurrent updates, which is fine for a
// diagnostic surface (no serving decision reads these counters).
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace iup::serve {

/// Where a site sits in the supervised update lifecycle.  Serving is
/// NEVER gated on this state: a degraded site keeps serving its last-good
/// published bundle; the state only describes the update pipeline.
///
///   healthy -> updating -> healthy            (commit landed)
///   updating -> backoff -> updating           (retry with exp. backoff)
///   backoff -> degraded                       (breaker: too many failures)
///   degraded -> updating -> healthy           (probe succeeded: recovered)
enum class SiteState : std::uint32_t {
  kHealthy = 0,   ///< last update attempt (if any) committed
  kUpdating = 1,  ///< an update attempt is in flight
  kBackoff = 2,   ///< waiting out the retry backoff after a failure
  kDegraded = 3,  ///< circuit breaker open: serving last-good, probing
};

constexpr std::string_view to_string(SiteState state) {
  switch (state) {
    case SiteState::kHealthy: return "HEALTHY";
    case SiteState::kUpdating: return "UPDATING";
    case SiteState::kBackoff: return "BACKOFF";
    case SiteState::kDegraded: return "DEGRADED";
  }
  return "UNKNOWN";
}

/// The per-site counter set, declared once: X(name) for every u64
/// counter, in checkpoint wire order (the SiteState word goes first, then
/// these).  The atomics below, api::SiteHealth and persist::HealthImage
/// all declare their fields from this list, and every copy between them
/// walks it through for_each_health_counter.  Changing the list changes
/// the checkpoint format (persist::kFormatVersion).
///
/// Groups, in order: update outcomes (Engine::update records these for
/// every caller, supervised or not); the supervisor state machine; ingest
/// and quarantine tallies (ingest::ObservationBuffer); the largest
/// observation day streamed for the site, which together with the
/// published snapshot's day is the staleness a degraded site serves
/// under; the SPD solve-path fallbacks attributed to this site.  Those
/// are deltas of the process-wide linalg::spd_stats() sampled around each
/// update's solve + refresh; with updates of DIFFERENT sites running
/// concurrently the windows overlap and a fallback may be attributed to
/// the wrong site (or double-counted), so the per-site split is a
/// diagnostic, not an exact ledger — spd_stats() remains the
/// authoritative total.
#define IUP_SITE_HEALTH_COUNTERS(X)                                     \
  X(updates_ok)                                                         \
  X(updates_failed)                                                     \
  X(update_attempts)                                                    \
  X(consecutive_failures)                                               \
  X(drift_triggers)        /* EWMA crossed threshold */                 \
  X(deadline_trips)        /* kDeadlineExceeded */                      \
  X(breaker_trips)         /* entered kDegraded */                      \
  X(recoveries)            /* left kDegraded */                         \
  X(observations_accepted)                                              \
  IUP_SITE_QUARANTINE_COUNTERS(X)                                       \
  X(last_observed_day)                                                  \
  X(spd_cholesky_failures)                                              \
  X(spd_bump_recoveries)                                                \
  X(spd_lu_fallbacks)

/// The quarantine tallies, one per ObservationBuffer rejection reason.
#define IUP_SITE_QUARANTINE_COUNTERS(X)                                 \
  X(quarantine_non_finite)                                              \
  X(quarantine_out_of_range)                                            \
  X(quarantine_unknown_link)                                            \
  X(quarantine_unknown_cell)                                            \
  /* source id not in the registered table; 0 for source-less sites */  \
  X(quarantine_unknown_source)                                          \
  X(quarantine_overflow)   /* buffer at capacity */

/// Calls f(values.name...) for every counter, in wire order: with one
/// struct it visits its fields, with two it pairs same-named fields.
template <class F, class... Values>
void for_each_health_counter(F&& f, Values&... values) {
#define IUP_VISIT_HEALTH_COUNTER(name) f(values.name...);
  IUP_SITE_HEALTH_COUNTERS(IUP_VISIT_HEALTH_COUNTER)
#undef IUP_VISIT_HEALTH_COUNTER
}

struct SiteHealthCounters {
  /// SiteState word (last writer wins; the supervisor is the only writer
  /// once a site is watched).
  std::atomic<std::uint32_t> state{0};
#define IUP_DECLARE_HEALTH_COUNTER(name) std::atomic<std::uint64_t> name{0};
  IUP_SITE_HEALTH_COUNTERS(IUP_DECLARE_HEALTH_COUNTER)
#undef IUP_DECLARE_HEALTH_COUNTER

  /// Copy the state word and every counter into the same-named fields
  /// of a plain-value struct (relaxed loads).
  template <class Values>
  void load_into(Values& out) const {
    using State = decltype(out.state);
    out.state = static_cast<State>(state.load(std::memory_order_relaxed));
    for_each_health_counter(
        [](const std::atomic<std::uint64_t>& counter, std::uint64_t& value) {
          value = counter.load(std::memory_order_relaxed);
        },
        *this, out);
  }

  /// Inverse of load_into (relaxed stores).
  template <class Values>
  void store_from(const Values& in) {
    state.store(static_cast<std::uint32_t>(in.state),
                std::memory_order_relaxed);
    for_each_health_counter(
        [](std::atomic<std::uint64_t>& counter, std::uint64_t value) {
          counter.store(value, std::memory_order_relaxed);
        },
        *this, in);
  }

  /// Raise `last_observed_day` to `day` (monotonic max, relaxed).
  void note_observed_day(std::uint64_t day) {
    std::uint64_t seen = last_observed_day.load(std::memory_order_relaxed);
    while (day > seen && !last_observed_day.compare_exchange_weak(
                             seen, day, std::memory_order_relaxed)) {
    }
  }
};

}  // namespace iup::serve
