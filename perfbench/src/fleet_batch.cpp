// fleet-batch: eight mixed-radio sites, alternating 24 links (288 cells)
// and 12 links (144 cells), on one engine with threads(4).  Each step of
// the 90-day trajectory makes one update_batch over all sites, then one
// localize_batch panel per site with one query per cell.  The only
// workload where the per-site fan-out, the intra-solve fan-out, larger
// working sets and batch localization matter; the uneven site sizes
// expose stragglers and the larger state makes restore measurable.
//
// One update is one update_batch call.  localize_qps is the panels'
// throughput; the single-call latency percentiles come from every
// kSingleStride-th query of each panel, also sent through Engine::localize
// (a panel's own wall is dominated by its slowest fan-out worker).  The
// traced pass keeps the panels on Engine::localize_batch (whose
// measurement fan-out a bundle's own localize_batch does not have) and
// splits only the single calls into resolve and OMP.
//
// BENCHMARK.json does not list this workload: on a small shared host its
// fan-outs stall whenever any vCPU is stolen (see perfbench/README.md).
#include <algorithm>

#include "sim/fingerprint_builder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = iup::api;

namespace {

constexpr std::size_t kSites = 8;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kSurveySamples = 5;
constexpr std::size_t kQuerySamples = 5;
constexpr std::size_t kSingleStride = 4;
const std::vector<std::size_t> kReconStamps = {5, 15, 45, 90};

std::vector<std::size_t> step_days(bool smoke) {
  if (smoke) return {5, 10};
  std::vector<std::size_t> days;
  for (std::size_t d = 5; d <= 90; d += 5) days.push_back(d);
  return days;
}

void fleet_pass(const std::vector<SiteModel>& sites, const RunOptions& opt,
                const std::string& dir, Tracer* tracer, RestoreProbe& probe,
                WorkloadRun& run) {
  Ops& ops = run.ops;
  std::vector<const SiteModel*> ptrs;
  std::vector<std::string> names;
  for (const SiteModel& s : sites) {
    ptrs.push_back(&s);
    names.push_back(s.name);
  }
  Deployment d = deploy(ptrs, DeployOptions{kThreads, dir, tracer});
  api::Engine& engine = *d.engine;
  PassStats st;
  st.traced = tracer != nullptr;
  st.setup_s = d.setup_s;
  st.register_ms = d.register_ms;
  st.call_threads = kThreads;

  std::vector<iup::sim::Sampler> writer;
  std::vector<iup::sim::Sampler> online;
  for (const SiteModel& s : sites) {
    writer.push_back(s.sampler(opt.seed, "writer"));
    online.push_back(s.sampler(opt.seed, "query"));
  }

  BusyClock busy;
  PassHistograms& h = run.recorder;
  h.reset();
  std::vector<double> errors;
  std::vector<double> recon;
  std::vector<api::UpdateRequest> requests(sites.size());
  std::vector<std::vector<Query>> panels(sites.size());
  const std::vector<std::size_t> days = step_days(opt.smoke);
  for (std::size_t step = 0; step < days.size(); ++step) {
    const std::size_t day = days[step];
    const std::int64_t g0 = now_ns();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const SiteModel& s = sites[i];
      api::UpdateRequest& r = requests[i];
      r.site = s.name;
      r.day = day;
      r.inputs.x_b = iup::sim::measure_no_decrease_matrix(
          writer[i], s.mask, day, kSurveySamples, &s.x0, &s.baselines0);
      r.inputs.x_r = iup::sim::measure_reference_matrix(
          writer[i], d.reference_cells[i], day, kSurveySamples);
      r.inputs.sources = s.sources;
      panels[i].clear();
      for (std::size_t j = 0; j < s.testbed.num_cells(); ++j) {
        panels[i].push_back(
            Query{i, j, online[i].online_measurement(j, day, kQuerySamples)});
      }
    }
    run.generate_s += static_cast<double>(now_ns() - g0) * 1e-9;

    if (tracer != nullptr) tracer->begin_call(step, step);
    busy.start();
    const auto results = engine.update_batch(requests);
    const std::int64_t update_ns = busy.stop();
    h.update.record(update_ns);
    if (tracer != nullptr) {
      st.call_wall_ns.push_back(static_cast<double>(update_ns));
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      ops.update.add(results[i].ok() &&
                     results[i].value().committed_version == step + 2);
    }

    for (std::size_t i = 0; i < sites.size(); ++i) {
      std::vector<std::vector<double>> panel;
      panel.reserve(panels[i].size());
      for (const Query& q : panels[i]) panel.push_back(q.rss);
      busy.start();
      auto res = engine.localize_batch(names[i], panel);
      const std::int64_t panel_ns = busy.stop();
      const bool ok = res.ok() && res.value().size() == panel.size();
      ops.localize_batch.add(ok);
      st.localize_s += static_cast<double>(panel_ns) * 1e-9;
      st.localized += static_cast<double>(panel.size());
      for (std::size_t k = 0; k < panels[i].size(); ++k) {
        errors.push_back(ok ? error_m(sites[i], panels[i][k].cell,
                                      res.value()[k].cell)
                            : 0.0);
      }
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
      for (std::size_t k = 0; k < panels[i].size(); k += kSingleStride) {
        busy.start();
        const auto est = localize_one(engine, names[i], panels[i][k].rss,
                                      tracer != nullptr ? &h : nullptr);
        h.localize.record(busy.stop());
        ops.localize.add(est.has_value());
      }
    }
    st.site_days += static_cast<double>(sites.size());

    if (std::find(kReconStamps.begin(), kReconStamps.end(), day) !=
        kReconStamps.end()) {
      for (std::size_t i = 0; i < sites.size(); ++i) {
        const auto snap = engine.snapshot(names[i]);
        if (!snap.ok()) die("snapshot: " + snap.status().to_string());
        const iup::linalg::Matrix truth =
            sites[i].testbed.mean_fingerprint(day);
        add_recon_errors(snap.value()->database(), truth, sites[i].mask,
                         recon);
      }
    }
  }
  st.busy_s = busy.seconds();
  st.loc_err_mean_m = mean(errors);
  st.loc_err_p90_m = quantile(errors, 0.9);
  st.recon_median_db = median(recon);
  if (const api::Status s = d.durability->last_error(); !s.ok()) {
    die("durability: " + s.to_string());
  }
  st.checkpoints = d.durability->checkpoints_written();

  std::vector<Query> last;
  for (const std::vector<Query>& p : panels) {
    last.insert(last.end(), p.begin(), p.end());
  }
  if (tracer != nullptr) {
    st.spans = tracer->take_spans();
    probe_batch(engine, names, last, st, ops);
  }
  probe.sites = names;
  probe.queries = std::move(last);
  probe.expected = answer(engine, probe, ops);
  run.add_pass(std::move(st), h);
}

std::vector<SiteModel> fleet_sites(const RunOptions& opt) {
  std::vector<SiteModel> sites;
  for (std::size_t k = 0; k < kSites; ++k) {
    iup::sim::MixedRadioOptions o;
    o.num_links = opt.smoke ? (k % 2 == 0 ? 6 : 3) : (k % 2 == 0 ? 24 : 12);
    o.slots_per_link = 12;
    o.seed = 900 + k;
    sites.push_back(make_site("fleet-" + std::to_string(k),
                              iup::sim::make_mixed_radio_testbed(o), true,
                              opt.seed, opt.smoke ? 5 : 20));
  }
  return sites;
}

}  // namespace

WorkloadRun run_fleet_batch(const RunOptions& opt) {
  WorkloadRun run;
  const std::int64_t g0 = now_ns();
  const std::vector<SiteModel> sites = fleet_sites(opt);
  run.generate_s += static_cast<double>(now_ns() - g0) * 1e-9;
  std::vector<const SiteModel*> ptrs;
  for (const SiteModel& s : sites) ptrs.push_back(&s);
  repeat_passes(
      opt, kThreads, 0,
      [&](const std::string& dir, Tracer* tracer, RestoreProbe& probe,
          WorkloadRun& r) { fleet_pass(sites, opt, dir, tracer, probe, r); },
      [&](const std::string& dir) {
        return deploy(ptrs, DeployOptions{kThreads, dir, nullptr}).setup_s;
      },
      run);
  return run;
}

}  // namespace perfbench
