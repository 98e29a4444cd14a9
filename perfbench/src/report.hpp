// Turning passes into the metrics a run reports, and the run's gates:
// failure accounting, the determinism gate and the "layers add up" check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {

/// Everything a workload run produced.
struct WorkloadRun {
  std::vector<PassStats> passes;
  /// Recording space every pass (and each serve reader) reuses: the
  /// harness allocates its histograms once per run, so its own heap does
  /// not move peak_rss_mb from run to run.
  PassHistograms recorder;
  std::vector<PassHistograms> reader_recorders;
  std::vector<double> extra_setup_s;  ///< set-up-only repetitions
  std::vector<double> restore_ms;
  Ops ops;
  std::uint64_t read_path_violations = 0;
  double generate_s = 0.0;  ///< input generation, off the clock

  /// File a finished pass with the summaries of what it recorded.
  void add_pass(PassStats st, const PassHistograms& h) {
    h.summarize_into(st);
    passes.push_back(std::move(st));
  }
};

/// The end-to-end metrics over the untraced (traced = false) or traced
/// passes, in BENCHMARK.json order.
MetricList end_to_end(const WorkloadRun& run, bool traced);

/// The per-layer metrics over the traced passes, in BENCHMARK.json order.
MetricList per_layer(const WorkloadRun& run);

/// Gates; each prints its verdict and returns false on a violation.
bool check_failures(const WorkloadRun& run);
bool check_determinism(const WorkloadRun& run);
/// The summed per-update spans must cover each harness-timed update call
/// to within kLayerSlack.
bool check_layers_add_up(const WorkloadRun& run);

/// Share of an update call the spans may leave unexplained (supervisor
/// bookkeeping after the commit, fan-out start-up and join).
inline constexpr double kLayerSlack = 0.10;

/// One line per pass: the spread inside a run, next to its medians.
void print_passes(const WorkloadRun& run);

/// Human-readable tables: side-by-side untraced/traced end-to-end values
/// and each layer's self time as a share of the traced wall.
void print_tables(const WorkloadRun& run, const MetricList& untraced,
                  const MetricList& traced, const MetricList& layers);

}  // namespace perfbench
