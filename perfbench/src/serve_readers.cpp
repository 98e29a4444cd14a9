// serve-readers: the three paper rooms plus one 9-link mixed-radio site.
// Two reader threads run a closed loop of single Engine::localize calls
// over a fixed, seeded pool of drifting queries while one writer thread
// commits Engine::update round-robin every 50 ms with durability on (3
// busy threads).  Shard resolve plus OMP is almost all of a reader's
// time and the writer keeps RCU publication and old-bundle reclamation
// running underneath, so a change to the read or publish path shows here
// and a change to the solver should not.
//
// The writer is an open loop: each update is timed from when it was due.
// It commits a fixed number of updates per phase, so the state the phase
// ends in is deterministic and accuracy is scored there, off the clock
// (a read racing the writer observes a timing-dependent version).
#include <algorithm>
#include <atomic>
#include <thread>

#include "rng/rng.hpp"
#include "sim/fingerprint_builder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = iup::api;

namespace {

constexpr std::size_t kReaders = 2;
constexpr std::int64_t kWritePeriodNs = 50'000'000;
constexpr std::size_t kWritesPerPhase = 100;
constexpr std::size_t kSurveySamples = 5;
constexpr std::size_t kQuerySamples = 5;
constexpr std::size_t kDays = 90;

struct Reader {
  PassHistograms* h = nullptr;  ///< localize, and the resolve/OMP split
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
};

std::vector<api::UpdateRequest> writer_requests(
    const std::vector<SiteModel>& sites, const Deployment& d,
    std::uint64_t seed, std::size_t count) {
  std::vector<iup::sim::Sampler> samplers;
  for (const SiteModel& s : sites) {
    samplers.push_back(s.sampler(seed, "writer"));
  }
  std::vector<api::UpdateRequest> out;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = k % sites.size();
    const std::size_t day = (k / sites.size()) % kDays + 1;
    const SiteModel& site = sites[i];
    api::UpdateRequest r;
    r.site = site.name;
    r.day = day;
    r.inputs.x_b = iup::sim::measure_no_decrease_matrix(
        samplers[i], site.mask, day, kSurveySamples, &site.x0,
        &site.baselines0);
    r.inputs.x_r = iup::sim::measure_reference_matrix(
        samplers[i], d.reference_cells[i], day, kSurveySamples);
    r.inputs.sources = site.sources;
    out.push_back(std::move(r));
  }
  return out;
}

void serve_phase(const std::vector<SiteModel>& sites,
                 const std::vector<Query>& pool, const RunOptions& opt,
                 std::size_t writes, const std::string& dir, Tracer* tracer,
                 RestoreProbe& probe, WorkloadRun& run) {
  Ops& ops = run.ops;
  std::vector<const SiteModel*> ptrs;
  std::vector<std::string> names;
  for (const SiteModel& s : sites) {
    ptrs.push_back(&s);
    names.push_back(s.name);
  }
  Deployment d = deploy(ptrs, DeployOptions{1, dir, tracer});
  api::Engine& engine = *d.engine;
  PassStats st;
  st.traced = tracer != nullptr;
  st.setup_s = d.setup_s;
  st.register_ms = d.register_ms;

  const std::int64_t g0 = now_ns();
  const std::vector<api::UpdateRequest> requests =
      writer_requests(sites, d, opt.seed, writes);
  run.generate_s += static_cast<double>(now_ns() - g0) * 1e-9;

  PassHistograms& h = run.recorder;
  h.reset();
  run.reader_recorders.resize(kReaders);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<Reader> readers(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers[r].h = &run.reader_recorders[r];
    readers[r].h->reset();
  }
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Reader& me = readers[r];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t k = r; !stop.load(std::memory_order_relaxed);
           k += kReaders) {
        const Query& q = pool[k % pool.size()];
        const std::int64_t t0 = now_ns();
        const bool ok = localize_one(engine, names[q.site], q.rss,
                                     tracer != nullptr ? me.h : nullptr)
                            .has_value();
        me.h->localize.record(now_ns() - t0);
        ++me.calls;
        if (!ok) ++me.failed;
      }
    });
  }

  // The schedule starts when the readers are released; the writer thread
  // is created after `start` is set, so it reads a settled value.
  const std::int64_t start = now_ns();
  go.store(true, std::memory_order_release);
  std::int64_t late_max = 0;
  std::vector<api::SnapshotPtr> committed;
  CpuRotation cpus;
  std::thread writer([&] {
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const std::int64_t due = start + static_cast<std::int64_t>(k) *
                                           kWritePeriodNs;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due)));
      cpus.advance();
      cpus.pin(pthread_self(), 0);
      for (std::size_t r = 0; r < kReaders; ++r) {
        cpus.pin(threads[r].native_handle(), r + 1);
      }
      if (tracer != nullptr) tracer->begin_call(k, k / sites.size());
      const std::int64_t t0 = now_ns();
      const auto result = engine.update(requests[k]);
      const std::int64_t t1 = now_ns();
      ops.update.add(result.ok());
      if (result.ok()) committed.push_back(result.value().snapshot);
      h.update.record(t1 - due);
      st.busy_s += static_cast<double>(t1 - t0) * 1e-9;
      late_max = std::max(late_max, t0 - due);
      if (tracer != nullptr) {
        st.call_wall_ns.push_back(static_cast<double>(t1 - t0));
      }
    }
  });
  writer.join();
  const std::int64_t end = now_ns();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  for (const Reader& r : readers) {
    h.localize.merge(r.h->localize);
    h.resolve.merge(r.h->resolve);
    h.omp.merge(r.h->omp);
    st.localized += static_cast<double>(r.calls);
    ops.localize.attempted += r.calls;
    ops.localize.failed += r.failed;
  }
  st.localize_s = static_cast<double>(end - start) * 1e-9;
  st.localize_threads = kReaders;
  st.site_days = static_cast<double>(requests.size());
  std::printf("phase: %zu writes, writer at most %.3f ms late, %.0f reads\n",
              requests.size(), static_cast<double>(late_max) * 1e-6,
              st.localized);

  // Accuracy on the state the fixed write schedule ends in.
  std::vector<double> errors;
  for (const Query& q : pool) {
    const auto est = engine.localize(names[q.site], q.rss);
    ops.localize.add(est.ok());
    errors.push_back(est.ok() ? error_m(sites[q.site], q.cell,
                                        est.value().cell)
                              : 0.0);
  }
  st.loc_err_mean_m = mean(errors);
  st.loc_err_p90_m = quantile(errors, 0.9);
  // Reconstruction accuracy of every committed version against the
  // simulator's mean fingerprint at its day.
  std::vector<double> recon;
  for (const api::SnapshotPtr& snap : committed) {
    const std::size_t i = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), snap->site()) - names.begin());
    const iup::linalg::Matrix truth =
        sites[i].testbed.mean_fingerprint(snap->day());
    add_recon_errors(snap->database(), truth, sites[i].mask, recon);
  }
  st.recon_median_db = median(recon);

  if (const api::Status s = d.durability->last_error(); !s.ok()) {
    die("durability: " + s.to_string());
  }
  st.checkpoints = d.durability->checkpoints_written();
  if (tracer != nullptr) {
    st.spans = tracer->take_spans();
    probe_batch(engine, names, pool, st, ops);
  }
  probe.sites = names;
  probe.queries.assign(pool.begin(),
                       pool.begin() + std::min<std::size_t>(pool.size(), 512));
  probe.expected = answer(engine, probe, ops);
  run.add_pass(std::move(st), h);
}

}  // namespace

WorkloadRun run_serve_readers(const RunOptions& opt) {
  WorkloadRun run;
  const std::int64_t g0 = now_ns();
  const std::size_t survey = opt.smoke ? 5 : 50;
  std::vector<SiteModel> sites = paper_rooms(opt.seed, survey);
  sites.push_back(make_site("mixed", iup::sim::make_mixed_radio_testbed(),
                            true, opt.seed, survey));

  // The query pool: fixed per seed, spread over sites, cells and days.
  std::vector<Query> pool;
  {
    std::vector<iup::sim::Sampler> online;
    for (const SiteModel& s : sites) {
      online.push_back(s.sampler(opt.seed, "pool"));
    }
    iup::rng::Rng rng(opt.seed ^ 0x5e7e0ULL);
    const std::size_t n = opt.smoke ? 64 : 4096;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = k % sites.size();
      const std::size_t cell = rng.uniform_index(sites[i].testbed.num_cells());
      const std::size_t day = 1 + rng.uniform_index(kDays);
      pool.push_back(
          Query{i, cell,
                online[i].online_measurement(cell, day, kQuerySamples)});
    }
  }
  run.generate_s += static_cast<double>(now_ns() - g0) * 1e-9;

  // Phases of a fixed number of writes (5 s of schedule) on fresh
  // engines, as many as the run's seconds hold; a traced run alternates
  // untraced and traced phases so the two compare side by side.
  const std::size_t writes = opt.smoke ? 8 : kWritesPerPhase;
  const std::size_t phases = std::max<std::size_t>(
      kMinPasses,
      static_cast<std::size_t>(opt.seconds * 1e9 /
                               static_cast<double>(writes * kWritePeriodNs)));
  std::vector<const SiteModel*> ptrs;
  for (const SiteModel& s : sites) ptrs.push_back(&s);
  repeat_passes(
      opt, 1, phases,
      [&](const std::string& dir, Tracer* tracer, RestoreProbe& probe,
          WorkloadRun& r) {
        serve_phase(sites, pool, opt, writes, dir, tracer, probe, r);
      },
      [&](const std::string& dir) {
        return deploy(ptrs, DeployOptions{1, dir, nullptr}).setup_s;
      },
      run);
  return run;
}

}  // namespace perfbench
