#include "workload.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "eval/metrics.hpp"
#include "loc/localizer.hpp"
#include "serve/shard.hpp"
#include "sim/fingerprint_builder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace api = iup::api;
namespace sim = iup::sim;

namespace {
constexpr std::size_t kCheckpointEvery = 8;
}  // namespace

void die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(2);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // reports the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

sim::Sampler SiteModel::sampler(std::uint64_t seed,
                                const std::string& label) const {
  return sim::Sampler(testbed, "perfbench/" + name + "/" + label + "/" +
                                   std::to_string(seed));
}

SiteModel make_site(std::string name, sim::Testbed testbed,
                    bool register_sources, std::uint64_t seed,
                    std::size_t survey_samples) {
  SiteModel site{std::move(name), std::move(testbed), {}, {}, {}, {}};
  sim::Sampler survey = site.sampler(seed, "survey");
  site.x0 = survey.survey_full(0, survey_samples);
  site.baselines0 = survey.survey_baselines(0, survey_samples);
  site.mask = sim::no_decrease_mask(site.testbed);
  if (register_sources) site.sources = site.testbed.sources();
  return site;
}

std::vector<SiteModel> paper_rooms(std::uint64_t seed,
                                   std::size_t survey_samples) {
  std::vector<SiteModel> rooms;
  rooms.push_back(make_site("office", sim::make_office_testbed(), false, seed,
                            survey_samples));
  rooms.push_back(make_site("library", sim::make_library_testbed(), false,
                            seed, survey_samples));
  rooms.push_back(make_site("hall", sim::make_hall_testbed(), false, seed,
                            survey_samples));
  return rooms;
}

api::EngineConfig base_config(std::size_t threads) {
  return api::EngineConfig().threads(threads).history_limit(4);
}

CpuRotation::CpuRotation() : owner_(pthread_self()) {
  CPU_ZERO(&original_);
  if (pthread_getaffinity_np(owner_, sizeof(original_), &original_) != 0) {
    return;  // no placement control: pin() does nothing
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) {
    pthread_setaffinity_np(owner_, sizeof(original_), &original_);
  }
}

void CpuRotation::pin(pthread_t thread, std::size_t slot) const {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[(turn_ + slot) % cpus_.size()], &one);
  pthread_setaffinity_np(thread, sizeof(one), &one);
}

void remove_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void reset_dir(const std::string& dir) {
  remove_dir(dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) die("cannot create " + dir + ": " + ec.message());
}

Deployment deploy(const std::vector<const SiteModel*>& sites,
                  const DeployOptions& options) {
  reset_dir(options.dir);
  Deployment d;
  // The WAL and checkpoints live inside the checkout; fsync is off so the
  // persist layer's CPU cost is measured, not the shared disk.  A roll
  // every kCheckpointEvery commits puts about one update in eight behind
  // a checkpoint: well inside the 95th percentile, never at its edge.
  d.durability = std::make_unique<iup::persist::DurabilityManager>(
      iup::persist::DurabilityOptions{options.dir, kCheckpointEvery, false});
  api::EngineConfig config = base_config(options.threads);
  if (options.tracer != nullptr) {
    config.update_hooks(options.tracer->hooks(*d.durability));
    config.solver(Tracer::backend(config));
  } else {
    config.update_hooks(d.durability->engine_hooks());
  }

  const std::int64_t t0 = now_ns();
  d.engine = std::make_unique<api::Engine>(std::move(config));
  if (const api::Status s = d.durability->bind(d.engine.get()); !s.ok()) {
    die("durability bind: " + s.to_string());
  }
  for (const SiteModel* site : sites) {
    const std::int64_t r0 = now_ns();
    const auto registered =
        site->sources.empty()
            ? d.engine->register_site(site->name, site->x0, site->mask)
            : d.engine->register_site(site->name, site->x0, site->mask,
                                      site->sources);
    d.register_ms.push_back(static_cast<double>(now_ns() - r0) * 1e-6);
    if (!registered.ok()) {
      die("register_site " + site->name + ": " +
          registered.status().to_string());
    }
  }
  d.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  for (const SiteModel* site : sites) {
    const auto cells = d.engine->reference_cells(site->name);
    if (!cells.ok()) die("reference_cells: " + cells.status().to_string());
    d.reference_cells.push_back(iup::to_raw_cells(cells.value()));
  }
  return d;
}

std::vector<iup::loc::LocalizationEstimate> answer(
    const api::Engine& engine, const RestoreProbe& probe, Ops& ops) {
  std::vector<iup::loc::LocalizationEstimate> out;
  out.reserve(probe.queries.size());
  for (const Query& q : probe.queries) {
    const auto est = engine.localize(probe.sites[q.site], q.rss);
    ops.localize.add(est.ok());
    out.push_back(est.ok() ? est.value() : iup::loc::LocalizationEstimate{});
  }
  return out;
}

std::vector<double> restore_check(const std::string& dir,
                                  std::size_t threads,
                                  const RestoreProbe& probe,
                                  std::size_t repeats, Ops& ops) {
  std::vector<double> times_ms;
  for (std::size_t r = 0; r < repeats; ++r) {
    api::Engine engine(base_config(threads));
    const std::int64_t t0 = now_ns();
    const api::Status restored = engine.restore_from(dir);
    const std::int64_t t1 = now_ns();
    if (!restored.ok()) {
      std::printf("restore %zu failed: %s\n", r,
                  restored.to_string().c_str());
      ops.restore.add(false);
      continue;
    }
    times_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    const auto got = answer(engine, probe, ops);
    bool same = got.size() == probe.expected.size();
    for (std::size_t k = 0; same && k < got.size(); ++k) {
      same = got[k].cell == probe.expected[k].cell &&
             std::bit_cast<std::uint64_t>(got[k].score) ==
                 std::bit_cast<std::uint64_t>(probe.expected[k].score);
    }
    if (!same) {
      std::printf("restore %zu: answers differ from the live engine\n", r);
    }
    ops.restore.add(same);
  }
  return times_ms;
}

std::optional<iup::loc::LocalizationEstimate> localize_one(
    const api::Engine& engine, const std::string& site,
    std::span<const double> rss, PassHistograms* split) {
  if (split == nullptr) {
    const auto est = engine.localize(site, rss);
    if (!est.ok()) return std::nullopt;
    return est.value();
  }
  const std::int64_t t0 = now_ns();
  const auto bundle = engine.published(site);
  const std::int64_t t1 = now_ns();
  split->resolve.record(t1 - t0);
  if (!bundle.ok() || bundle.value()->localizer == nullptr) {
    return std::nullopt;
  }
  const iup::loc::LocalizationEstimate est =
      bundle.value()->localizer->localize(rss);
  split->omp.record(now_ns() - t1);
  return est;
}

void probe_batch(const api::Engine& engine,
                 const std::vector<std::string>& sites,
                 const std::vector<Query>& queries, PassStats& stats,
                 Ops& ops) {
  std::map<std::size_t, std::vector<std::vector<double>>> panels;
  for (const Query& q : queries) panels[q.site].push_back(q.rss);
  for (const auto& [site, panel] : panels) {
    const auto bundle = engine.published(sites[site]);
    const bool ok = bundle.ok() && bundle.value()->localizer != nullptr;
    const std::int64_t t0 = now_ns();
    if (ok) (void)bundle.value()->localizer->localize_batch(panel);
    const std::int64_t t1 = now_ns();
    ops.localize_batch.add(ok);
    stats.batch_ns_per_meas_sum +=
        static_cast<double>(t1 - t0) / static_cast<double>(panel.size());
    stats.batch_panels += 1.0;
  }
}

double error_m(const SiteModel& site, std::size_t truth, std::size_t cell) {
  return iup::loc::cell_distance_m(site.testbed.deployment(), truth, cell);
}

void add_recon_errors(const iup::linalg::Matrix& db,
                      const iup::linalg::Matrix& truth,
                      const iup::linalg::Matrix& mask,
                      std::vector<double>& pooled) {
  const std::vector<double> e =
      iup::eval::reconstruction_errors_db(db, truth, mask, 0.0);
  pooled.insert(pooled.end(), e.begin(), e.end());
}

void repeat_passes(const RunOptions& opt, std::size_t threads,
                   std::size_t fixed_passes, const PassFn& pass,
                   const SetupFn& setup, WorkloadRun& run) {
  const std::uint64_t v0 = iup::serve::read_path_lock_violations();
  RestoreProbe probe;
  std::string last_dir;
  double timed = 0.0;
  for (std::size_t k = 0;; ++k) {
    const std::string dir = opt.state_dir + "/pass" + std::to_string(k);
    Tracer tracer;
    pass(dir, opt.trace && k % 2 == 1 ? &tracer : nullptr, probe, run);
    timed += run.passes.back().busy_s;
    if (!last_dir.empty()) remove_dir(last_dir);
    last_dir = dir;
    const bool done = fixed_passes != 0
                          ? k + 1 >= fixed_passes
                          : k + 1 >= kMinPasses && timed >= opt.seconds;
    if (done) break;
  }
  while (untraced_setups(run) < kMinSetups) {
    const std::string dir = opt.state_dir + "/setup";
    run.extra_setup_s.push_back(setup(dir));
    remove_dir(dir);
  }
  run.restore_ms =
      restore_check(last_dir, threads, probe, kRestoreRepeats, run.ops);
  remove_dir(last_dir);
  run.read_path_violations = iup::serve::read_path_lock_violations() - v0;
}

}  // namespace perfbench
