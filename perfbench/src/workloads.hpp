// The three workloads (see perfbench/README.md for why each exists).
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "report.hpp"
#include "workload.hpp"

namespace perfbench {

/// Every workload runs at least this many passes, each on a fresh engine.
inline constexpr std::size_t kMinPasses = 2;
/// setup_s is the median of at least this many set-ups per run.
inline constexpr std::size_t kMinSetups = 25;
/// restore_from runs per restore check.
inline constexpr std::size_t kRestoreRepeats = 5;

inline std::size_t untraced_setups(const WorkloadRun& run) {
  std::size_t n = run.extra_setup_s.size();
  for (const PassStats& p : run.passes) n += p.traced ? 0 : 1;
  return n;
}

/// One pass: a fresh engine over `dir`, traced when `tracer` is non-null;
/// it files its statistics into `run` and leaves its final queries and
/// answers in `probe`.
using PassFn = std::function<void(const std::string& dir, Tracer* tracer,
                                  RestoreProbe& probe, WorkloadRun& run)>;
/// Set-up alone over `dir`; returns its time [s].
using SetupFn = std::function<double(const std::string& dir)>;

/// The pass loop every workload shares.  Each pass gets a fresh durable
/// directory; in a traced run every second pass is traced.  Passes run
/// until their timed seconds reach opt.seconds (at least kMinPasses), or
/// exactly `fixed_passes` when that is nonzero.  Then set-up alone is
/// repeated until kMinSetups untraced set-ups were timed, the last pass's
/// directory goes through the restore check (engines with `threads`), and
/// the run's read-path lock violations are counted.
void repeat_passes(const RunOptions& opt, std::size_t threads,
                   std::size_t fixed_passes, const PassFn& pass,
                   const SetupFn& setup, WorkloadRun& run);

WorkloadRun run_rooms_stream(const RunOptions& opt);
WorkloadRun run_serve_readers(const RunOptions& opt);
WorkloadRun run_fleet_batch(const RunOptions& opt);

}  // namespace perfbench
