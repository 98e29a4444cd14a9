// persist::DurabilityManager — wires an Engine to a durability directory.
//
// The manager owns the directory's WAL writer and checkpoint cadence:
//
//   * engine_hooks() builds an UpdateHooks whose after_commit tap encodes
//     each committed snapshot and its warm state and appends the record
//     to the WAL under the manager's mutex (outside the commit lock),
//   * every `checkpoint_every` commits it rolls a checkpoint — asks the
//     engine for a fresh atomic checkpoint, then truncates the WAL.  The
//     roll is safe because the manager mutex serialises appends against
//     rolls, and every record appended before the roll belongs to a
//     commit that is visible to save_checkpoint (publication happens
//     under the engine's commit lock before after_commit fires, and
//     save_checkpoint reads under that same lock) — truncating after a
//     durable checkpoint therefore never discards state the checkpoint
//     missed,
//   * recover() restores a fresh engine from the directory (checkpoint +
//     WAL suffix, torn tail tolerated) and immediately compacts: a fresh
//     checkpoint is written and the WAL reset, so a crash loop cannot
//     grow the log without bound.
//
// All I/O runs on the committing thread AFTER publication, outside the
// commit lock, and never on the serve read path — localize throughput is
// unaffected by durability (the soak harness asserts the read-path
// violation counter stays zero with hooks installed).  Durability
// failures (disk full, permission lost) are recorded in last_error() and
// NEVER fail or veto an update: the engine keeps serving, the operator
// alarms on last_error.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "api/engine.hpp"
#include "api/engine_config.hpp"
#include "api/status.hpp"
#include "persist/wal.hpp"

namespace iup::persist {

struct DurabilityOptions {
  std::string dir;
  /// Commits between checkpoint rolls.  Smaller = faster recovery,
  /// larger = cheaper steady state; 0 disables rolling (WAL grows until
  /// checkpoint_now()).
  std::size_t checkpoint_every = 16;
  /// fsync WAL appends and checkpoint publications.  False trades crash
  /// durability for speed (benchmarks, throwaway soak dirs).
  bool fsync = true;
};

class DurabilityManager {
 public:
  explicit DurabilityManager(DurabilityOptions options)
      : options_(std::move(options)) {}
  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Attach to `engine` (kept as a raw pointer — it must outlive the
  /// manager) and open the WAL for appending, preserving any existing
  /// log.  Use on a fresh directory or after an external recover.
  api::Status bind(api::Engine* engine);

  /// Restore `engine` (which must be fresh) from the directory, then
  /// bind.  "Nothing durable yet" (kNotFound from restore) is a normal
  /// first boot, reported as OK with no sites; any other restore failure
  /// is returned as-is and the manager stays unbound.  On a successful
  /// non-empty restore the state is immediately compacted (checkpoint +
  /// WAL reset).
  api::Status recover(api::Engine* engine);

  /// Hooks to install via EngineConfig::update_hooks() BEFORE constructing
  /// the engine; `inner` hooks (e.g. a FaultInjector's) are composed and
  /// run first.  The returned after_commit is a no-op until bind()/
  /// recover() attaches an engine, so construction order is safe.
  api::UpdateHooks engine_hooks(api::UpdateHooks inner = {});

  /// Force a checkpoint + WAL reset now, regardless of cadence.
  api::Status checkpoint_now();

  /// First durability failure since the last successful roll (OK when
  /// healthy).  Appends after a failure keep trying — a transient disk
  /// error self-heals at the next checkpoint roll.
  api::Status last_error() const;

  std::uint64_t wal_appends() const;
  std::uint64_t checkpoints_written() const;

  const DurabilityOptions& options() const { return options_; }

 private:
  void on_commit(const api::CommitEvent& event);
  /// Roll a checkpoint; callers hold mutex_.
  api::Status checkpoint_locked();

  DurabilityOptions options_;
  mutable std::mutex mutex_;
  api::Engine* engine_ = nullptr;    // guarded by mutex_
  WalWriter wal_;                    // guarded by mutex_
  std::size_t commits_since_checkpoint_ = 0;
  std::uint64_t wal_appends_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  api::Status last_error_;
};

}  // namespace iup::persist
