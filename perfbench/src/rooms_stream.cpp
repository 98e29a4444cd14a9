// rooms-stream: the paper's three rooms on one engine with threads(1),
// replayed day by day for 90 days through the supervised ingest path.
//
// Each simulated day, per room: stream the day's observations through
// UpdateSupervisor::observe (participatory traffic over the no-decrease
// mask plus a survey of every link at the reference cells), trigger the
// room and run one pump() from this thread (the supervisor's background
// thread is never started, so every update is sequenced and the served
// version is deterministic), then localize once per cell.  One update is
// one room's pump attempt.  Updates dominate the wall (Algorithm 1 plus
// the LRR refresh), so a change to the solver shows here without any
// fan-out in the way.
#include <algorithm>
#include <memory>

#include "ingest/supervisor.hpp"
#include "linalg/cholesky.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = iup::api;
namespace ingest = iup::ingest;

namespace {

constexpr std::size_t kTrafficSamples = 3;  ///< per no-decrease entry, day
constexpr std::size_t kSurveySamples = 5;   ///< per (link, reference cell)
constexpr std::size_t kQuerySamples = 5;    ///< readings per query vector
const std::vector<std::size_t> kReconStamps = {3, 5, 15, 45, 90};

struct RoomsEngine {
  Deployment d;
  std::unique_ptr<ingest::UpdateSupervisor> supervisor;
  double setup_s = 0.0;
};

RoomsEngine deploy_rooms(const std::vector<const SiteModel*>& rooms,
                         const std::string& dir, Tracer* tracer) {
  RoomsEngine r;
  r.d = deploy(rooms, DeployOptions{1, dir, tracer});
  const std::int64_t t0 = now_ns();
  r.supervisor = std::make_unique<ingest::UpdateSupervisor>(*r.d.engine);
  for (const SiteModel* room : rooms) {
    ingest::WatchOptions watch;
    watch.buffer.capacity = std::size_t{1} << 16;
    if (const api::Status s = r.supervisor->watch(room->name, watch);
        !s.ok()) {
      die("watch " + room->name + ": " + s.to_string());
    }
  }
  r.setup_s = r.d.setup_s + static_cast<double>(now_ns() - t0) * 1e-9;
  return r;
}

/// One room-day of generated inputs.
struct DayInputs {
  std::vector<ingest::Observation> observations;
  std::vector<Query> queries;
};

void generate_day(const SiteModel& room, std::size_t index,
                  const std::vector<std::size_t>& reference_cells,
                  std::size_t day, iup::sim::Sampler& traffic,
                  iup::sim::Sampler& online, DayInputs& out) {
  out.observations.clear();
  out.queries.clear();
  const std::size_t links = room.testbed.num_links();
  const std::size_t cells = room.testbed.num_cells();
  auto emit = [&](std::size_t link, std::size_t cell, std::size_t samples) {
    for (std::size_t s = 0; s < samples; ++s) {
      ingest::Observation o;
      o.link = link;
      o.cell = cell;
      o.rss_db = traffic.sample(link, cell, day);
      o.day = day;
      out.observations.push_back(o);
    }
  };
  for (std::size_t i = 0; i < links; ++i) {
    for (std::size_t j = 0; j < cells; ++j) {
      if (room.mask(i, j) != 0.0) emit(i, j, kTrafficSamples);
    }
  }
  for (const std::size_t cell : reference_cells) {
    for (std::size_t i = 0; i < links; ++i) emit(i, cell, kSurveySamples);
  }
  for (std::size_t j = 0; j < cells; ++j) {
    out.queries.push_back(
        Query{index, j, online.online_measurement(j, day, kQuerySamples)});
  }
}

void rooms_pass(const std::vector<SiteModel>& rooms, const RunOptions& opt,
                std::size_t days, const std::string& dir, Tracer* tracer,
                RestoreProbe& probe, WorkloadRun& run) {
  Ops& ops = run.ops;
  std::vector<const SiteModel*> sites;
  std::vector<std::string> names;
  for (const SiteModel& room : rooms) {
    sites.push_back(&room);
    names.push_back(room.name);
  }
  RoomsEngine r = deploy_rooms(sites, dir, tracer);
  api::Engine& engine = *r.d.engine;
  PassStats st;
  st.traced = tracer != nullptr;
  st.setup_s = r.setup_s;
  st.register_ms = r.d.register_ms;

  std::vector<iup::sim::Sampler> traffic;
  std::vector<iup::sim::Sampler> online;
  for (const SiteModel& room : rooms) {
    traffic.push_back(room.sampler(opt.seed, "traffic"));
    online.push_back(room.sampler(opt.seed, "query"));
  }

  const iup::linalg::SpdStats spd0 = iup::linalg::spd_stats();
  BusyClock busy;
  PassHistograms& h = run.recorder;
  h.reset();
  DayInputs in;
  std::vector<double> errors;
  std::vector<double> recon_errors;
  std::vector<Query> last_queries;
  CpuRotation cpus;
  for (std::size_t day = 1; day <= days; ++day) {
    cpus.advance();
    cpus.pin(pthread_self(), 0);
    for (std::size_t k = 0; k < rooms.size(); ++k) {
      const SiteModel& room = rooms[k];
      const std::int64_t g0 = now_ns();
      generate_day(room, k, r.d.reference_cells[k], day, traffic[k],
                   online[k], in);
      run.generate_s += static_cast<double>(now_ns() - g0) * 1e-9;

      // Ingest.
      busy.start();
      for (const ingest::Observation& o : in.observations) {
        ops.observe.add(r.supervisor->observe(room.name, o).ok());
      }
      st.observe_ns += static_cast<double>(busy.stop());
      st.observations += static_cast<double>(in.observations.size());

      // Update: one pump attempt.
      const bool triggered = r.supervisor->trigger(room.name).ok();
      if (tracer != nullptr) tracer->begin_call(st.call_wall_ns.size(), day);
      busy.start();
      const std::size_t attempts = r.supervisor->pump();
      const std::int64_t update_ns = busy.stop();
      h.update.record(update_ns);
      const auto bundle = engine.published(room.name);
      const bool committed = triggered && attempts == 1 && bundle.ok() &&
                             bundle.value()->snapshot->version() == day + 1;
      ops.update.add(committed);
      if (tracer != nullptr) {
        st.call_wall_ns.push_back(static_cast<double>(update_ns));
      }

      // Queries: one single-measurement localize per cell.
      for (const Query& q : in.queries) {
        busy.start();
        const auto est = localize_one(engine, room.name, q.rss,
                                      tracer != nullptr ? &h : nullptr);
        const std::int64_t call_ns = busy.stop();
        h.localize.record(call_ns);
        st.localize_s += static_cast<double>(call_ns) * 1e-9;
        ops.localize.add(est.has_value());
        errors.push_back(est ? error_m(room, q.cell, est->cell) : 0.0);
      }
      st.localized += static_cast<double>(in.queries.size());
      st.site_days += 1.0;

      // Reconstruction accuracy at the paper's stamps, off the clock.
      if (std::find(kReconStamps.begin(), kReconStamps.end(), day) !=
              kReconStamps.end() &&
          committed) {
        const iup::linalg::Matrix truth = room.testbed.mean_fingerprint(day);
        add_recon_errors(bundle.value()->snapshot->database(), truth,
                         room.mask, recon_errors);
      }
      if (day == days) {
        last_queries.insert(last_queries.end(), in.queries.begin(),
                            in.queries.end());
      }
    }
  }
  st.busy_s = busy.seconds();
  const iup::linalg::SpdStats spd1 = iup::linalg::spd_stats();
  st.spd_bump_recoveries = spd1.bump_recoveries - spd0.bump_recoveries;
  st.spd_lu_fallbacks = spd1.lu_fallbacks - spd0.lu_fallbacks;

  st.loc_err_mean_m = mean(errors);
  st.loc_err_p90_m = quantile(errors, 0.9);
  st.recon_median_db = median(recon_errors);
  for (const std::string& name : names) {
    const auto health = engine.site_health(name);
    if (!health.ok()) die("site_health: " + health.status().to_string());
    st.quarantined += health.value().quarantined_total();
    st.drift_triggers += health.value().drift_triggers;
  }
  if (const api::Status s = r.d.durability->last_error(); !s.ok()) {
    die("durability: " + s.to_string());
  }
  st.checkpoints = r.d.durability->checkpoints_written();
  if (tracer != nullptr) {
    st.spans = tracer->take_spans();
    probe_batch(engine, names, last_queries, st, ops);
  }

  probe.sites = names;
  probe.queries = std::move(last_queries);
  probe.expected = answer(engine, probe, ops);
  run.add_pass(std::move(st), h);
}

}  // namespace

WorkloadRun run_rooms_stream(const RunOptions& opt) {
  WorkloadRun run;
  const std::int64_t g0 = now_ns();
  const std::vector<SiteModel> rooms =
      paper_rooms(opt.seed, opt.smoke ? 5 : 50);
  run.generate_s += static_cast<double>(now_ns() - g0) * 1e-9;
  const std::size_t days = opt.smoke ? 3 : 90;
  std::vector<const SiteModel*> sites;
  for (const SiteModel& room : rooms) sites.push_back(&room);
  repeat_passes(
      opt, 1, 0,
      [&](const std::string& dir, Tracer* tracer, RestoreProbe& probe,
          WorkloadRun& r) {
        rooms_pass(rooms, opt, days, dir, tracer, probe, r);
      },
      [&](const std::string& dir) {
        return deploy_rooms(sites, dir, nullptr).setup_s;
      },
      run);
  return run;
}

}  // namespace perfbench
