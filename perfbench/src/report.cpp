#include "report.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <thread>

namespace perfbench {

namespace {

std::vector<const PassStats*> select(const WorkloadRun& run, bool traced) {
  std::vector<const PassStats*> out;
  for (const PassStats& p : run.passes) {
    if (p.traced == traced) out.push_back(&p);
  }
  return out;
}

std::vector<const UpdateSpan*> traced_spans(const WorkloadRun& run) {
  std::vector<const UpdateSpan*> out;
  for (const PassStats* p : select(run, true)) {
    for (const UpdateSpan& s : p->spans) out.push_back(&s);
  }
  return out;
}

template <typename F>
double span_mean(const std::vector<const UpdateSpan*>& spans, F&& field) {
  std::vector<double> v;
  v.reserve(spans.size());
  for (const UpdateSpan* s : spans) v.push_back(field(*s));
  return mean(v);
}

/// Per update call: the busiest thread's summed layer spans [ns].
std::map<std::uint64_t, double> covered_per_call(const PassStats& pass) {
  std::map<std::uint64_t, std::map<std::thread::id, double>> by_call;
  for (const UpdateSpan& s : pass.spans) {
    by_call[s.call][s.thread] += static_cast<double>(
        s.collect_ns + s.sweep_ns + s.refresh_ns + s.publish_ns +
        s.persist_ns);
  }
  std::map<std::uint64_t, double> out;
  for (const auto& [call, threads] : by_call) {
    double busiest = 0.0;
    for (const auto& [id, ns] : threads) busiest = std::max(busiest, ns);
    out[call] = busiest;
  }
  return out;
}

}  // namespace

MetricList end_to_end(const WorkloadRun& run, bool traced) {
  const std::vector<const PassStats*> passes = select(run, traced);
  if (passes.empty()) return {};
  // Medians over passes, so a pass the host slowed (CPU steal stalls a
  // thread for milliseconds) cannot move a run's figure.
  std::vector<double> setups, site_rate, qps, up50, up95, lo50, lo99;
  for (const PassStats* p : passes) {
    setups.push_back(p->setup_s);
    site_rate.push_back(p->site_days / p->busy_s);
    qps.push_back(p->localized / p->localize_s);
    up50.push_back(p->update.p50_ns * 1e-6);
    up95.push_back(p->update.p95_ns * 1e-6);
    lo50.push_back(p->localize.p50_ns * 1e-3);
    lo99.push_back(p->localize.p99_ns * 1e-3);
  }
  if (!traced) {
    setups.insert(setups.end(), run.extra_setup_s.begin(),
                  run.extra_setup_s.end());
  }
  const PassStats& first = *passes.front();
  return {
      {"setup_s", median(setups), "s"},
      {"site_days_per_s", median(site_rate), "1/s"},
      {"update_p50_ms", median(up50), "ms"},
      {"update_p95_ms", median(up95), "ms"},
      {"localize_p50_us", median(lo50), "us"},
      {"localize_p99_us", median(lo99), "us"},
      {"localize_qps", median(qps), "1/s"},
      {"loc_err_mean_m", first.loc_err_mean_m, "m"},
      {"loc_err_p90_m", first.loc_err_p90_m, "m"},
      {"recon_err_median_db", first.recon_median_db, "dB"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

MetricList per_layer(const WorkloadRun& run) {
  const std::vector<const PassStats*> passes = select(run, true);
  if (passes.empty()) return {};
  const std::vector<const UpdateSpan*> spans = traced_spans(run);
  std::vector<const UpdateSpan*> plain;
  std::vector<const UpdateSpan*> rolled;
  for (const UpdateSpan* s : spans) {
    (s->checkpoint ? rolled : plain).push_back(s);
  }

  std::vector<double> register_ms;
  LatencySummary resolve;
  LatencySummary omp;
  double batch_sum = 0.0;
  double batch_panels = 0.0;
  double checkpoints = 0.0;
  double span_total = 0.0;
  double call_capacity = 0.0;
  std::vector<double> straggler;
  for (const PassStats* p : passes) {
    register_ms.insert(register_ms.end(), p->register_ms.begin(),
                       p->register_ms.end());
    resolve.sum_ns += p->resolve.sum_ns;
    resolve.count += p->resolve.count;
    omp.sum_ns += p->omp.sum_ns;
    omp.count += p->omp.count;
    batch_sum += p->batch_ns_per_meas_sum;
    batch_panels += p->batch_panels;
    checkpoints += static_cast<double>(p->checkpoints);
    for (const double w : p->call_wall_ns) {
      call_capacity += w * static_cast<double>(p->call_threads);
    }
    std::map<std::uint64_t, std::vector<double>> groups;
    for (const UpdateSpan& s : p->spans) {
      span_total += static_cast<double>(s.span_ns);
      groups[s.group].push_back(static_cast<double>(s.span_ns));
    }
    for (const auto& [g, v] : groups) {
      if (v.size() < 2) continue;
      straggler.push_back(*std::max_element(v.begin(), v.end()) / median(v));
    }
  }

  auto ns = [](std::int64_t v) { return static_cast<double>(v); };
  return {
      {"core.register_ms", mean(register_ms), "ms"},
      {"core.sweep_ms",
       span_mean(spans, [&](const UpdateSpan& s) { return ns(s.sweep_ns); }) *
           1e-6,
       "ms"},
      {"core.refresh_ms",
       span_mean(spans,
                 [&](const UpdateSpan& s) { return ns(s.refresh_ns); }) *
           1e-6,
       "ms"},
      {"core.sweeps_per_update",
       span_mean(spans,
                 [](const UpdateSpan& s) {
                   return static_cast<double>(s.sweeps);
                 }),
       "count"},
      {"core.mask_groups",
       span_mean(spans,
                 [](const UpdateSpan& s) {
                   return static_cast<double>(s.mask_groups);
                 }),
       "count"},
      {"ingest.collect_us",
       span_mean(spans,
                 [&](const UpdateSpan& s) { return ns(s.collect_ns); }) *
           1e-3,
       "us"},
      {"api.publish_us",
       span_mean(spans,
                 [&](const UpdateSpan& s) { return ns(s.publish_ns); }) *
           1e-3,
       "us"},
      {"persist.wal_append_us",
       span_mean(plain,
                 [&](const UpdateSpan& s) { return ns(s.persist_ns); }) *
           1e-3,
       "us"},
      {"persist.checkpoint_ms",
       span_mean(rolled,
                 [&](const UpdateSpan& s) { return ns(s.persist_ns); }) *
           1e-6,
       "ms"},
      {"persist.checkpoints", checkpoints / static_cast<double>(passes.size()),
       "count"},
      {"persist.restore_ms", median(run.restore_ms), "ms"},
      {"serve.resolve_ns", resolve.mean_ns(), "ns"},
      {"loc.omp_us", omp.mean_ns() * 1e-3, "us"},
      {"loc.batch_us_per_meas",
       batch_panels > 0.0 ? batch_sum / batch_panels * 1e-3 : 0.0, "us"},
      {"parallel.batch_efficiency",
       call_capacity > 0.0 ? span_total / call_capacity : 0.0, "ratio"},
      {"parallel.straggler_ratio", mean(straggler), "ratio"},
  };
}

bool check_failures(const WorkloadRun& run) {
  bool ok = true;
  std::printf("operations            attempted      failed\n");
  for (const auto& [name, c] : run.ops.rows()) {
    std::printf("  %-18s %12llu %11llu\n", name,
                static_cast<unsigned long long>(c->attempted),
                static_cast<unsigned long long>(c->failed));
    ok = ok && c->failed == 0;
  }
  std::uint64_t quarantined = 0;
  for (const PassStats& p : run.passes) quarantined += p.quarantined;
  std::printf("  quarantined on the clean stream: %llu\n",
              static_cast<unsigned long long>(quarantined));
  std::printf("  read-path lock violations: %llu\n",
              static_cast<unsigned long long>(run.read_path_violations));
  ok = ok && quarantined == 0 && run.read_path_violations == 0;
  if (run.restore_ms.size() < 5) {
    std::printf("  restore check: only %zu successful restores\n",
                run.restore_ms.size());
    ok = false;
  }
  std::printf("failure gate: %s\n", ok ? "pass" : "FAIL");
  return ok;
}

bool check_determinism(const WorkloadRun& run) {
  bool ok = true;
  const PassStats& ref = run.passes.front();
  for (const PassStats& p : run.passes) {
    ok = ok &&
         std::bit_cast<std::uint64_t>(p.loc_err_mean_m) ==
             std::bit_cast<std::uint64_t>(ref.loc_err_mean_m) &&
         std::bit_cast<std::uint64_t>(p.loc_err_p90_m) ==
             std::bit_cast<std::uint64_t>(ref.loc_err_p90_m) &&
         std::bit_cast<std::uint64_t>(p.recon_median_db) ==
             std::bit_cast<std::uint64_t>(ref.recon_median_db);
  }
  std::printf("determinism gate (%zu passes, traced and untraced): %s\n",
              run.passes.size(), ok ? "pass" : "FAIL");
  if (!ok) {
    for (const PassStats& p : run.passes) {
      std::printf("  %s loc_err_mean %.17g p90 %.17g recon %.17g\n",
                  p.traced ? "traced  " : "untraced", p.loc_err_mean_m,
                  p.loc_err_p90_m, p.recon_median_db);
    }
  }
  return ok;
}

bool check_layers_add_up(const WorkloadRun& run) {
  double wall = 0.0;
  double covered = 0.0;
  std::size_t calls = 0;
  for (const PassStats* p : select(run, true)) {
    const std::map<std::uint64_t, double> per_call = covered_per_call(*p);
    for (std::size_t k = 0; k < p->call_wall_ns.size(); ++k) {
      const auto it = per_call.find(k);
      wall += p->call_wall_ns[k];
      covered += it == per_call.end() ? 0.0 : it->second;
      ++calls;
    }
  }
  if (calls == 0) return true;
  const double share = covered / wall;
  const bool ok = share >= 1.0 - kLayerSlack && share <= 1.0 + kLayerSlack;
  std::printf(
      "layers add up: collect+sweep+refresh+publish+persist cover %.1f%% of "
      "%zu update calls' wall (slack %.0f%%): %s\n",
      100.0 * share, calls, 100.0 * kLayerSlack, ok ? "pass" : "FAIL");
  return ok;
}

void print_passes(const WorkloadRun& run) {
  for (std::size_t k = 0; k < run.passes.size(); ++k) {
    const PassStats& p = run.passes[k];
    std::printf("pass %zu %-8s setup %8.3f ms  timed %6.2f s  update p50 %9.3f "
                "ms  localize p50 %8.2f us  %10.1f localized/s\n",
                k, p.traced ? "traced" : "untraced", p.setup_s * 1e3, p.busy_s,
                p.update.p50_ns * 1e-6, p.localize.p50_ns * 1e-3,
                p.localized / p.localize_s);
  }
}

void print_tables(const WorkloadRun& run, const MetricList& untraced,
                  const MetricList& traced, const MetricList& layers) {
  std::printf("end-to-end              %14s %14s  unit\n", "untraced",
              traced.empty() ? "" : "traced");
  for (std::size_t k = 0; k < untraced.size(); ++k) {
    if (traced.empty()) {
      std::printf("  %-22s %14.6g %14s  %s\n", untraced[k].name.c_str(),
                  untraced[k].value, "", untraced[k].unit.c_str());
    } else {
      std::printf("  %-22s %14.6g %14.6g  %s\n", untraced[k].name.c_str(),
                  untraced[k].value, traced[k].value,
                  untraced[k].unit.c_str());
    }
  }
  if (layers.empty()) return;

  std::printf("per-layer\n");
  for (const Metric& m : layers) {
    std::printf("  %-26s %14.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  double observe_ns = 0.0;
  double observations = 0.0;
  std::uint64_t drift = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t bumps = 0;
  std::uint64_t lu = 0;
  double busy_ns = 0.0;
  bool sequential = true;
  double update_wall = 0.0;
  double localize_ns = 0.0;
  double parts[5] = {0, 0, 0, 0, 0};
  double resolve_ns = 0.0;
  double omp_ns = 0.0;
  for (const PassStats* p : select(run, true)) {
    observe_ns += p->observe_ns;
    observations += p->observations;
    drift += p->drift_triggers;
    quarantined += p->quarantined;
    bumps += p->spd_bump_recoveries;
    lu += p->spd_lu_fallbacks;
    busy_ns += p->busy_s * 1e9;
    localize_ns += p->localize_s * 1e9;
    sequential = sequential && p->localize_threads == 1;
    for (const double w : p->call_wall_ns) update_wall += w;
    resolve_ns += p->resolve.sum_ns;
    omp_ns += p->omp.sum_ns;
    for (const UpdateSpan& s : p->spans) {
      parts[0] += static_cast<double>(s.collect_ns);
      parts[1] += static_cast<double>(s.sweep_ns);
      parts[2] += static_cast<double>(s.refresh_ns);
      parts[3] += static_cast<double>(s.publish_ns);
      parts[4] += static_cast<double>(s.persist_ns);
    }
  }
  const double traced_passes = static_cast<double>(select(run, true).size());
  if (observations > 0.0) {
    std::printf("  %-26s %14.6g  ns\n", "ingest.observe_ns",
                observe_ns / observations);
    std::printf("  %-26s %14.6g  count per pass\n", "ingest.observations",
                observations / traced_passes);
    std::printf("  %-26s %14llu  count\n", "ingest.quarantined",
                static_cast<unsigned long long>(quarantined));
    std::printf("  %-26s %14.6g  count per pass\n", "ingest.drift_triggers",
                static_cast<double>(drift) / traced_passes);
  }
  std::printf("  %-26s %14llu  count\n", "linalg.spd_bump_recoveries",
              static_cast<unsigned long long>(bumps));
  std::printf("  %-26s %14llu  count\n", "linalg.spd_lu_fallbacks",
              static_cast<unsigned long long>(lu));
  std::printf("  %-26s %14llu  count\n", "serve.read_path_violations",
              static_cast<unsigned long long>(run.read_path_violations));

  // Self time: update layers as a share of the update calls' wall (a
  // fan-out call counts threads x wall), localization layers as a share
  // of the localization wall, both also as a share of the timed wall.
  double capacity = 0.0;
  for (const PassStats* p : select(run, true)) {
    for (const double w : p->call_wall_ns) {
      capacity += w * static_cast<double>(p->call_threads);
    }
  }
  const char* names[5] = {"ingest.collect", "core.sweep", "core.refresh",
                          "api.publish", "persist (wal+checkpoint)"};
  std::printf("self time                   share of update thread-time\n");
  for (int k = 0; k < 5; ++k) {
    std::printf("  %-26s %13.1f%%\n", names[k],
                capacity > 0.0 ? 100.0 * parts[k] / capacity : 0.0);
  }
  double single_ns = 0.0;
  for (const PassStats* p : select(run, true)) single_ns += p->localize.sum_ns;
  if (single_ns > 0.0 && resolve_ns + omp_ns > 0.0) {
    std::printf("self time                   share of single localize calls\n");
    std::printf("  %-26s %13.1f%%\n", "serve.resolve",
                100.0 * resolve_ns / single_ns);
    std::printf("  %-26s %13.1f%%\n", "loc.omp", 100.0 * omp_ns / single_ns);
  }
  if (sequential && busy_ns > 0.0) {
    std::printf("timed wall split: ingest %.1f%%, update %.1f%%, query path "
                "%.1f%%, other localize calls %.1f%%\n",
                100.0 * observe_ns / busy_ns, 100.0 * update_wall / busy_ns,
                100.0 * localize_ns / busy_ns,
                100.0 * (busy_ns - observe_ns - update_wall - localize_ns) /
                    busy_ns);
  }
  std::printf("input generation: %.2f s, off the clock\n", run.generate_s);
}

}  // namespace perfbench
