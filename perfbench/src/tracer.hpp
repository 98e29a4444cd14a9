// Per-layer spans taken from outside the program, at its public seams:
//
//   call entry (pump / update / update_batch, marked by the harness)
//     -> UpdateHooks::on_solve          collect = entry .. on_solve
//     -> SolverBackend::solve           sweep   = the decorator's span
//     -> UpdateHooks::before_publish    refresh = on_solve .. before_publish
//                                                 minus sweep
//     -> after_commit entry             publish = before_publish .. entry
//     -> DurabilityManager after_commit persist = the wrapped tap's span
//
// Timestamps live in thread-local slots, because update_batch runs one
// site's whole chain on one thread; each finished update is attributed to
// its site through CommitEvent::snapshot.  A commit with no on_solve
// before it (register_site's version 1) is not an update and is skipped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine_config.hpp"
#include "api/solver_backend.hpp"
#include "persist/durability.hpp"

namespace perfbench {

struct UpdateSpan {
  std::string site;
  std::thread::id thread;
  std::uint64_t call = 0;   ///< harness update call the span ran inside
  std::uint64_t group = 0;  ///< sites updated together (day / round / step)
  std::int64_t collect_ns = 0;
  std::int64_t sweep_ns = 0;
  std::int64_t refresh_ns = 0;
  std::int64_t publish_ns = 0;
  std::int64_t persist_ns = 0;
  std::int64_t span_ns = 0;  ///< on_solve .. after_commit return
  bool checkpoint = false;   ///< the checkpoint count advanced in its tap
  std::size_t sweeps = 0;
  std::size_t mask_groups = 0;
};

class Tracer {
 public:
  /// Hooks to install in the traced engine's config: timestamp taps on
  /// on_solve / before_publish around `durability`'s journaling tap.
  /// `durability` must outlive every engine built with the hooks.
  iup::api::UpdateHooks hooks(iup::persist::DurabilityManager& durability);

  /// A timing decorator over SelfAugmentedBackend built with exactly the
  /// options the engine would derive from `config` itself.
  static std::shared_ptr<const iup::api::SolverBackend> backend(
      const iup::api::EngineConfig& config);

  /// Mark the entry of update call `call` (one pump / update /
  /// update_batch) on behalf of every thread the call fans out to.
  void begin_call(std::uint64_t call, std::uint64_t group);

  std::vector<UpdateSpan> take_spans();

 private:
  void record(const iup::api::CommitEvent& event, std::int64_t entry,
              std::int64_t exit, bool rolled);

  std::atomic<std::int64_t> call_start_{0};
  std::atomic<std::uint64_t> call_{0};
  std::atomic<std::uint64_t> group_{0};
  std::mutex mutex_;
  std::vector<UpdateSpan> spans_;  // guarded by mutex_
};

}  // namespace perfbench
