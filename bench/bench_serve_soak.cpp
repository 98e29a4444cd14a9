// Fleet soak harness for the serving layer (driven by scripts/soak.sh).
//
// Replays a simulated device fleet against a multi-site Engine: reader
// threads stream drifting online RSS measurements (the sim drift model
// moves the field day by day) through the direct lock-free localize path
// while a background thread commits periodic updates with a tight history
// limit, so bundle publication, warm-start reuse and snapshot eviction all
// churn underneath the readers for the whole run.
//
// Exit code is the verdict: nonzero on any failed localize/update, or if
// the zero-locks read-path contract was violated.  Reports total QPS and
// p50/p99/p999 single-call latency on stdout.  Built plainly (no
// google-benchmark), so it runs unchanged under ASan and TSan — that is
// the CI serve-soak smoke job.
//
// CHAOS MODE (5th arg "chaos", or CHAOS=1 through scripts/soak.sh): the
// background updater is replaced by the full supervised ingest pipeline —
// an ingest::UpdateSupervisor thread, a producer streaming drifting (and
// deterministically corrupted) observations, and a seeded FaultInjector
// conducting three phases: solver outages (sites retry, degrade, keep
// serving last-good), slow solves against a calibrated deadline (commits
// abort at before_publish), then all faults clear.  The verdict then also
// requires: zero read-path violations and reader errors THROUGH the fault
// window, at least one breaker trip, deadline trip and quarantined
// observation, and — the recovery contract — every watched site back to
// HEALTHY on a freshly committed version once faults cleared.
//
// RECOVER MODE (arg "recover", or RECOVER=1 through scripts/soak.sh,
// composable with chaos): a persist::DurabilityManager journals every
// commit of the soak to a scratch directory (WAL + periodic checkpoint
// rolls) while the fleet hammers the read path — the WAL fsyncs ride the
// committing threads, so the zero-violations verdict doubles as proof
// that durability adds nothing to the lock-free serve path.  After the
// run a SECOND engine recovers from the directory and must serve
// bit-identical localizations at the same version as the live engine.
//
// Usage: bench_serve_soak [duration_s] [readers] [sites] [update_ms]
//                         [chaos] [recover]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "eval/experiment.hpp"
#include "ingest/faults.hpp"
#include "ingest/supervisor.hpp"
#include "persist/durability.hpp"
#include "serve/shard.hpp"
#include "sim/sampler.hpp"

namespace {

using namespace iup;
using Clock = std::chrono::steady_clock;

struct SoakConfig {
  double duration_s = 10.0;
  std::size_t readers = 4;
  std::size_t sites = 2;
  std::size_t update_period_ms = 250;
  bool chaos = false;
  bool recover = false;
};

struct ReaderStats {
  std::vector<double> latencies_us;
  std::uint64_t queries = 0;
  std::uint64_t errors = 0;
  std::string first_error;
};

double percentile_us(const std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

}  // namespace

int main(int argc, char** argv) {
  SoakConfig config;
  if (argc > 1) config.duration_s = std::atof(argv[1]);
  if (argc > 2) config.readers = static_cast<std::size_t>(std::atol(argv[2]));
  if (argc > 3) config.sites = static_cast<std::size_t>(std::atol(argv[3]));
  if (argc > 4) {
    config.update_period_ms = static_cast<std::size_t>(std::atol(argv[4]));
  }
  for (int a = 5; a < argc; ++a) {
    const std::string flag = argv[a];
    if (flag == "chaos" || flag == "1") config.chaos = true;
    if (flag == "recover") config.recover = true;
  }
  if (config.duration_s <= 0 || config.readers == 0 || config.sites == 0) {
    std::fprintf(stderr,
                 "usage: %s [duration_s] [readers] [sites] [update_ms] "
                 "[chaos] [recover]\n",
                 argv[0]);
    return 2;
  }

  const eval::EnvironmentRun run(sim::make_office_testbed());
  // The chaos run injects every fault through the engine's hook seams;
  // loose stagnation early-stop keeps each (frequently retried) solve
  // cheap enough that the sanitizer-slowed run still cycles the whole
  // fail -> degrade -> recover arc inside the soak window.
  ingest::FaultInjector faults(0xC7A05EEDULL);
  std::optional<persist::DurabilityManager> durability;
  std::string durable_dir;
  if (config.recover) {
    std::string tmpl = "/tmp/iup-soak-recover-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp for the durability dir failed\n");
      return 1;
    }
    durable_dir = tmpl;
    durability.emplace(
        persist::DurabilityOptions{durable_dir, /*checkpoint_every=*/8,
                                   /*fsync=*/true});
  }
  api::EngineConfig engine_config;
  engine_config.history_limit(4);
  {
    api::UpdateHooks hooks;
    if (config.chaos) {
      core::RsvdOptions rsvd;
      rsvd.stagnation_tol = 1e-3;
      engine_config.rsvd(rsvd);
      hooks = faults.engine_hooks();
    }
    // Durability composes OUTSIDE the injector: its after_commit tap sees
    // only commits that actually published, faults and all.
    if (durability) hooks = durability->engine_hooks(std::move(hooks));
    engine_config.update_hooks(std::move(hooks));
  }
  // Tight history limit: the background updates evict snapshots while
  // readers hold published bundles — the evict-while-read soak.
  api::Engine engine(engine_config);
  if (durability) {
    const auto bound = durability->bind(&engine);
    if (!bound.ok()) {
      std::fprintf(stderr, "durability bind: %s\n",
                   bound.to_string().c_str());
      return 1;
    }
  }
  std::vector<std::string> sites;
  for (std::size_t s = 0; s < config.sites; ++s) {
    sites.push_back("site-" + std::to_string(s));
    const auto registered = eval::register_run(engine, run, sites.back());
    if (!registered.ok()) {
      std::fprintf(stderr, "register %s: %s\n", sites.back().c_str(),
                   registered.status().to_string().c_str());
      return 1;
    }
  }
  // The fleet's drifting traces: each reader replays measurements whose
  // day index walks through the drift model's trajectory, so the online
  // vectors decorrelate from the day-0 database exactly the way a real
  // deployment's would between updates.
  const std::vector<std::size_t> trace_days = {0, 5, 15, 30, 45};
  const std::size_t cells = run.testbed.num_cells();

  const std::uint64_t violations_before = serve::read_path_lock_violations();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> updates_committed{0};
  std::atomic<std::uint64_t> update_errors{0};

  std::vector<ReaderStats> stats(config.readers);
  std::vector<std::thread> readers;
  readers.reserve(config.readers);
  const auto soak_start = Clock::now();
  for (std::size_t t = 0; t < config.readers; ++t) {
    readers.emplace_back([&, t] {
      ReaderStats& my = stats[t];
      sim::Sampler sampler(run.testbed, "soak-" + std::to_string(t));
      std::size_t k = t;
      while (!stop.load(std::memory_order_acquire)) {
        const std::string& site = sites[k % sites.size()];
        const std::size_t day = trace_days[(k / 3) % trace_days.size()];
        const auto query =
            sampler.online_measurement((k * 7) % cells, day, 1);
        const auto t0 = Clock::now();
        const auto result = engine.localize(site, query);
        const auto t1 = Clock::now();
        ++my.queries;
        my.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (!result.ok()) {
          ++my.errors;
          if (my.first_error.empty()) {
            my.first_error = result.status().to_string();
          }
        }
        ++k;
      }
    });
  }

  // --- update side: plain periodic updater by default, the supervised
  // ingest pipeline (observation stream + drift triggers + fault phases)
  // in chaos mode --------------------------------------------------------
  ingest::SupervisorOptions sup_options;
  sup_options.poll_period = std::chrono::milliseconds(10);
  sup_options.backoff_initial = std::chrono::milliseconds(20);
  sup_options.backoff_max = std::chrono::milliseconds(200);
  sup_options.breaker_threshold = 2;
  sup_options.breaker_cooldown = std::chrono::milliseconds(100);
  ingest::UpdateSupervisor supervisor(engine, sup_options);
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> producer_rejected{0};
  std::chrono::nanoseconds deadline{0};
  std::thread update_side;

  if (config.chaos) {
    for (const std::string& site : sites) {
      ingest::WatchOptions watch;
      watch.drift.alpha = 0.1;
      watch.drift.threshold_db = 2.0;
      watch.drift.min_observations = 32;
      const auto watched = supervisor.watch(site, watch);
      if (!watched.ok()) {
        std::fprintf(stderr, "watch %s: %s\n", site.c_str(),
                     watched.to_string().c_str());
        return 1;
      }
    }
    // Calibrate the cooperative deadline off one clean update (no faults
    // armed yet), so the sanitizer-slowed build gets a budget its honest
    // solves fit and only the injected slow solves blow.
    const auto cal_cells = engine.reference_cells(sites[0]);
    const auto cal_start = Clock::now();
    const auto calibration = engine.update(eval::collect_update_request(
        run, sites[0], cal_cells.value(), 5, 5, "chaos-calibration"));
    if (!calibration.ok()) {
      std::fprintf(stderr, "calibration update: %s\n",
                   calibration.status().to_string().c_str());
      return 1;
    }
    // Clamp the budget so one injected slow solve (delay + honest solve)
    // still finishes inside a fault phase even when a sanitizer stretches
    // the honest solve itself to seconds.
    const auto phase_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(config.duration_s / 3.0));
    deadline = std::clamp<std::chrono::nanoseconds>(
        4 * (Clock::now() - cal_start),
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::milliseconds(100)),
        phase_ns / 2);
    faults.set_solve_delay(deadline);  // delay + any solve > deadline
    supervisor.start();

    update_side = std::thread([&] {
      sim::Sampler sampler(run.testbed, "chaos-producer");
      std::size_t p = 0;
      auto next_trigger = Clock::now();
      while (!stop.load(std::memory_order_acquire)) {
        const std::string& site = sites[p % sites.size()];
        const std::size_t day = trace_days[(p / 16) % trace_days.size()];
        const std::size_t cell = (p * 11) % cells;
        const auto sample = sampler.online_measurement(cell, day, 1);
        for (std::size_t link = 0; link < sample.size(); ++link) {
          ingest::Observation obs{link, cell, sample[link],
                                  static_cast<std::uint64_t>(day), {}};
          if (faults.fire(ingest::FaultKind::kCorruptObservation)) {
            faults.corrupt(obs);
          }
          ++produced;
          if (!supervisor.observe(site, obs).ok()) {
            ++producer_rejected;  // quarantined / back-pressured, by design
          }
        }
        if (Clock::now() >= next_trigger) {
          for (const std::string& s : sites) supervisor.trigger(s);
          next_trigger = Clock::now() +
                         std::chrono::milliseconds(config.update_period_ms);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++p;
      }
    });
  } else {
    update_side = std::thread([&] {
      std::size_t u = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::string& site = sites[u % sites.size()];
        const std::size_t day = trace_days[1 + u % (trace_days.size() - 1)];
        const auto cells_r = engine.reference_cells(site);
        if (!cells_r.ok()) {
          ++update_errors;
          break;
        }
        const auto result = engine.update(eval::collect_update_request(
            run, site, cells_r.value(), day, 5,
            "soak-update-" + std::to_string(u)));
        if (result.ok()) {
          ++updates_committed;
        } else {
          std::fprintf(stderr, "update %s day %zu: %s\n", site.c_str(), day,
                       result.status().to_string().c_str());
          ++update_errors;
        }
        ++u;
        const auto wake = Clock::now() +
                          std::chrono::milliseconds(config.update_period_ms);
        while (Clock::now() < wake && !stop.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }

  if (config.chaos) {
    // Three fault phases, runtime-armed mid-soak: outages, slow solves
    // against the deadline, then clear skies for recovery.  Each phase
    // sleeps its nominal third of the duration and then extends — bounded
    // at 3x — until its signature event lands, so sanitizer slowdowns
    // stretch the conductor instead of racing it.
    const double phase_s = config.duration_s / 3.0;
    const auto fleet_total = [&](std::uint64_t api::SiteHealth::*member) {
      std::uint64_t total = 0;
      for (const std::string& site : sites) {
        const auto health = engine.site_health(site);
        if (health.ok()) total += health.value().*member;
      }
      return total;
    };
    const auto conduct = [&](auto done) {
      const auto t0 = Clock::now();
      std::this_thread::sleep_for(std::chrono::duration<double>(phase_s));
      while (!done() && Clock::now() - t0 <
                            std::chrono::duration<double>(3.0 * phase_s)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    };

    faults.arm(ingest::FaultKind::kSolverFailure);  // every solve fails
    faults.arm(ingest::FaultKind::kCorruptObservation, {0, 0, 3});
    conduct([&] {
      return fleet_total(&api::SiteHealth::breaker_trips) >= sites.size();
    });

    faults.clear(ingest::FaultKind::kSolverFailure);
    faults.set_deadline(deadline);
    faults.arm(ingest::FaultKind::kSlowSolve, {0, 0, 2});  // every other
    conduct([&] {
      return fleet_total(&api::SiteHealth::deadline_trips) >= 1;
    });

    faults.clear();  // faults clear: the recovery window
    faults.set_deadline(std::chrono::nanoseconds(0));
    conduct([&] {
      for (const std::string& site : sites) {
        const auto health = engine.site_health(site);
        if (!health.ok() ||
            health.value().state != serve::SiteState::kHealthy ||
            health.value().serving_version < 2) {
          return false;
        }
      }
      return true;
    });
  } else {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.duration_s));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  update_side.join();

  if (config.chaos) {
    // Bounded post-fault grace: the supervisor thread is still pumping,
    // so probe until every site closed its breaker and committed fresh —
    // the recovery contract this harness exists to enforce.
    const auto grace_end = Clock::now() + std::chrono::seconds(15);
    while (Clock::now() < grace_end) {
      bool all_recovered = true;
      for (const std::string& site : sites) {
        const auto health = engine.site_health(site);
        if (!health.ok() ||
            health.value().state != serve::SiteState::kHealthy ||
            health.value().serving_version < 2) {
          all_recovered = false;
          break;
        }
      }
      if (all_recovered) break;
      for (const std::string& site : sites) supervisor.trigger(site);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    supervisor.stop();
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - soak_start).count();

  std::vector<double> all_us;
  std::uint64_t queries = 0;
  std::uint64_t errors = 0;
  for (const ReaderStats& s : stats) {
    queries += s.queries;
    errors += s.errors;
    all_us.insert(all_us.end(), s.latencies_us.begin(),
                  s.latencies_us.end());
  }
  std::sort(all_us.begin(), all_us.end());
  const std::uint64_t violations =
      serve::read_path_lock_violations() - violations_before;

  std::printf("serve soak: %.1f s, %zu readers, %zu sites, update every "
              "%zu ms\n",
              wall, config.readers, config.sites, config.update_period_ms);
  std::printf("  queries   %llu (%.0f qps)\n",
              static_cast<unsigned long long>(queries),
              wall > 0 ? static_cast<double>(queries) / wall : 0.0);
  std::printf("  latency   p50 %.1f us   p99 %.1f us   p999 %.1f us\n",
              percentile_us(all_us, 0.50), percentile_us(all_us, 0.99),
              percentile_us(all_us, 0.999));
  std::printf("  updates   %llu committed, %llu failed\n",
              static_cast<unsigned long long>(updates_committed.load()),
              static_cast<unsigned long long>(update_errors.load()));
  std::printf("  read-path lock violations: %llu\n",
              static_cast<unsigned long long>(violations));

  if (errors > 0) {
    for (const ReaderStats& s : stats) {
      if (!s.first_error.empty()) {
        std::fprintf(stderr, "reader error: %s\n", s.first_error.c_str());
        break;
      }
    }
    return 1;
  }
  // In chaos mode update failures are injected on purpose; the recovery
  // verdict below replaces the plain-mode updates_committed checks.
  if (!config.chaos && update_errors.load() > 0) return 1;
  if (violations != 0) return 1;
  if (queries == 0 || (!config.chaos && updates_committed.load() == 0)) {
    std::fprintf(stderr, "soak did not exercise the pipeline (queries=%llu "
                 "updates=%llu)\n",
                 static_cast<unsigned long long>(queries),
                 static_cast<unsigned long long>(updates_committed.load()));
    return 1;
  }

  if (durability) {
    // Recovery verdict: a second engine restored from the journal must
    // serve the exact state the live engine ended the soak on —
    // same latest version per site, byte-identical database, and
    // bit-identical localize answers for a probe panel.
    const auto durable_error = durability->last_error();
    if (!durable_error.ok()) {
      std::fprintf(stderr, "recover: durability degraded mid-soak: %s\n",
                   durable_error.to_string().c_str());
      return 1;
    }
    persist::DurabilityManager reader(
        persist::DurabilityOptions{durable_dir, 8, true});
    api::Engine recovered(
        api::EngineConfig().history_limit(4).update_hooks(
            reader.engine_hooks()));
    const auto recovered_status = reader.recover(&recovered);
    if (!recovered_status.ok()) {
      std::fprintf(stderr, "recover: %s\n",
                   recovered_status.to_string().c_str());
      return 1;
    }
    int recover_rc = 0;
    sim::Sampler probe_sampler(run.testbed, "recover-probe");
    for (const std::string& site : sites) {
      const auto live = engine.store().latest(site);
      const auto back = recovered.store().latest(site);
      if (!live.ok() || !back.ok() ||
          live.value()->version() != back.value()->version() ||
          !(live.value()->database() == back.value()->database())) {
        std::fprintf(stderr, "recover: %s state diverged (live v%llu, "
                     "recovered v%llu)\n", site.c_str(),
                     live.ok() ? static_cast<unsigned long long>(
                                     live.value()->version()) : 0ull,
                     back.ok() ? static_cast<unsigned long long>(
                                     back.value()->version()) : 0ull);
        recover_rc = 1;
        continue;
      }
      for (std::size_t p = 0; p < 8; ++p) {
        const auto query =
            probe_sampler.online_measurement((p * 13) % cells, 15, 1);
        const auto a = engine.localize(site, query);
        const auto b = recovered.localize(site, query);
        if (!a.ok() || !b.ok() || a.value().cell != b.value().cell ||
            a.value().score != b.value().score) {
          std::fprintf(stderr, "recover: %s probe %zu diverged\n",
                       site.c_str(), p);
          recover_rc = 1;
          break;
        }
      }
    }
    std::printf("  recover   %llu WAL appends, %llu checkpoints, recovered "
                "engine bit-identical: %s\n",
                static_cast<unsigned long long>(durability->wal_appends()),
                static_cast<unsigned long long>(
                    durability->checkpoints_written()),
                recover_rc == 0 ? "yes" : "NO");
    std::filesystem::remove_all(durable_dir);
    if (recover_rc != 0) return recover_rc;
  }

  if (config.chaos) {
    int chaos_rc = 0;
    std::uint64_t fleet_breaker = 0;
    std::uint64_t fleet_deadline = 0;
    std::uint64_t fleet_quarantined = 0;
    std::uint64_t fleet_drift = 0;
    std::uint64_t fleet_ok = 0;
    std::uint64_t fleet_failed = 0;
    std::printf("  chaos     %llu observations produced (%llu rejected at "
                "ingest)\n",
                static_cast<unsigned long long>(produced.load()),
                static_cast<unsigned long long>(producer_rejected.load()));
    for (const std::string& site : sites) {
      const auto health_r = engine.site_health(site);
      if (!health_r.ok()) {
        std::fprintf(stderr, "site_health %s: %s\n", site.c_str(),
                     health_r.status().to_string().c_str());
        chaos_rc = 1;
        continue;
      }
      const api::SiteHealth& h = health_r.value();
      const std::string state_name(serve::to_string(h.state));
      std::printf("  %-10s %s v%llu/%llu  ok %llu fail %llu  drift %llu  "
                  "deadline %llu  breaker %llu  recoveries %llu  "
                  "quarantined %llu\n",
                  site.c_str(), state_name.c_str(),
                  static_cast<unsigned long long>(h.serving_version),
                  static_cast<unsigned long long>(h.latest_version),
                  static_cast<unsigned long long>(h.updates_ok),
                  static_cast<unsigned long long>(h.updates_failed),
                  static_cast<unsigned long long>(h.drift_triggers),
                  static_cast<unsigned long long>(h.deadline_trips),
                  static_cast<unsigned long long>(h.breaker_trips),
                  static_cast<unsigned long long>(h.recoveries),
                  static_cast<unsigned long long>(h.quarantined_total()));
      fleet_breaker += h.breaker_trips;
      fleet_deadline += h.deadline_trips;
      fleet_quarantined += h.quarantined_total();
      fleet_drift += h.drift_triggers;
      fleet_ok += h.updates_ok;
      fleet_failed += h.updates_failed;
      if (h.state != serve::SiteState::kHealthy) {
        std::fprintf(stderr, "chaos: %s did not recover (state %s)\n",
                     site.c_str(), state_name.c_str());
        chaos_rc = 1;
      }
      if (h.serving_version < 2 || h.serving_version != h.latest_version) {
        std::fprintf(stderr,
                     "chaos: %s not serving a fresh committed version "
                     "(serving v%llu, latest v%llu)\n",
                     site.c_str(),
                     static_cast<unsigned long long>(h.serving_version),
                     static_cast<unsigned long long>(h.latest_version));
        chaos_rc = 1;
      }
      if (h.updates_ok == 0) {
        std::fprintf(stderr, "chaos: %s never committed an update\n",
                     site.c_str());
        chaos_rc = 1;
      }
      if (h.breaker_trips > 0 && h.recoveries == 0) {
        std::fprintf(stderr, "chaos: %s tripped its breaker but never "
                     "recovered\n", site.c_str());
        chaos_rc = 1;
      }
    }
    std::printf("  fleet     ok %llu fail %llu  drift %llu  deadline %llu  "
                "breaker %llu  quarantined %llu\n",
                static_cast<unsigned long long>(fleet_ok),
                static_cast<unsigned long long>(fleet_failed),
                static_cast<unsigned long long>(fleet_drift),
                static_cast<unsigned long long>(fleet_deadline),
                static_cast<unsigned long long>(fleet_breaker),
                static_cast<unsigned long long>(fleet_quarantined));
    if (fleet_breaker == 0) {
      std::fprintf(stderr, "chaos: no breaker ever tripped -- fault phase 1 "
                   "did not bite\n");
      chaos_rc = 1;
    }
    if (fleet_deadline == 0) {
      std::fprintf(stderr, "chaos: no deadline ever tripped -- fault phase 2 "
                   "did not bite\n");
      chaos_rc = 1;
    }
    if (fleet_quarantined == 0) {
      std::fprintf(stderr, "chaos: no observation was ever quarantined\n");
      chaos_rc = 1;
    }
    if (chaos_rc != 0) return chaos_rc;
    std::puts("chaos soak OK");
    return 0;
  }

  std::puts("serve soak OK");
  return 0;
}
