// perfbench: end-to-end + per-layer benchmark of the iUpdater engine.
//
//   perfbench --workload rooms-stream|serve-readers|fleet-batch
//             --seed N --seconds S --trace 0|1 --state-dir DIR [--smoke]
//
// Prints human-readable tables, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).  Exits 1 when
// any gate fails (failed operations, quarantines, read-path lock
// violations, restore mismatches, non-deterministic accuracy, layers that
// do not add up).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--state-dir") {
      opt.state_dir = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      die("unknown argument " + arg);
    }
  }
  if (opt.state_dir.empty()) die("--state-dir is required");
  if (!(opt.seconds > 0.0)) die("--seconds must be positive");
  return opt;
}

void print_json(bool correct, const Ops& ops, const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()));
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    // A non-finite value already failed the run; keep the line valid JSON.
    const double v = std::isfinite(metrics[k].value) ? metrics[k].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", metrics[k].name.c_str(), v,
                metrics[k].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  std::printf("perfbench %s seed %llu seconds %g trace %d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " (smoke)" : "");
  std::fflush(stdout);

  WorkloadRun run;
  if (opt.workload == "rooms-stream") {
    run = run_rooms_stream(opt);
  } else if (opt.workload == "serve-readers") {
    run = run_serve_readers(opt);
  } else if (opt.workload == "fleet-batch") {
    run = run_fleet_batch(opt);
  } else {
    die("unknown workload '" + opt.workload + "'");
  }

  const MetricList untraced = end_to_end(run, false);
  const MetricList traced = end_to_end(run, true);
  const MetricList layers = per_layer(run);
  print_passes(run);
  print_tables(run, untraced, traced, layers);

  bool correct = check_failures(run);
  correct = check_determinism(run) && correct;
  if (opt.trace) correct = check_layers_add_up(run) && correct;
  const MetricList& reported = opt.trace ? layers : untraced;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  print_json(correct, run.ops, reported);
  return correct ? 0 : 1;
}
