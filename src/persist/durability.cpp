#include "persist/durability.hpp"

#include <utility>

#include "persist/checkpoint.hpp"
#include "persist/io.hpp"

namespace iup::persist {

api::Status DurabilityManager::bind(api::Engine* engine) {
  if (engine == nullptr) {
    return api::Status::invalid_argument("DurabilityManager: null engine");
  }
  if (api::Status s = ensure_directory(options_.dir); !s.ok()) return s;
  const std::unique_lock<std::mutex> lock(mutex_);
  if (api::Status s = wal_.open(options_.dir + "/" + kWalFile,
                                /*truncate=*/false);
      !s.ok()) {
    return s;
  }
  engine_ = engine;
  commits_since_checkpoint_ = 0;
  last_error_ = {};
  return {};
}

api::Status DurabilityManager::recover(api::Engine* engine) {
  if (engine == nullptr) {
    return api::Status::invalid_argument("DurabilityManager: null engine");
  }
  const api::Status restored = engine->restore_from(options_.dir);
  if (!restored.ok() && restored.code() != api::StatusCode::kNotFound) {
    return restored;
  }
  if (api::Status s = bind(engine); !s.ok()) return s;
  if (restored.ok()) {
    // Compact immediately: the restored state becomes the new checkpoint
    // and the replayed WAL (torn tail included) is reset, so repeated
    // crash/recover cycles cannot grow the log without bound.
    const std::unique_lock<std::mutex> lock(mutex_);
    return checkpoint_locked();
  }
  return {};
}

api::UpdateHooks DurabilityManager::engine_hooks(api::UpdateHooks inner) {
  api::UpdateHooks hooks = std::move(inner);
  auto inner_commit = std::move(hooks.after_commit);
  hooks.after_commit = [this, inner_commit =
                                  std::move(inner_commit)](
                           const api::CommitEvent& event) {
    if (inner_commit) inner_commit(event);
    this->on_commit(event);
  };
  return hooks;
}

void DurabilityManager::on_commit(const api::CommitEvent& event) {
  // The append encodes and writes under the mutex, which orders it
  // against other commits and checkpoint rolls.
  const WalRecord record{event.snapshot, event.warm};

  const std::unique_lock<std::mutex> lock(mutex_);
  if (engine_ == nullptr || !wal_.is_open()) return;  // not bound yet
  if (api::Status s = wal_.append(record, options_.fsync); !s.ok()) {
    if (last_error_.ok()) last_error_ = s;
    return;  // the commit already happened; durability degrades, serving
             // does not
  }
  ++wal_appends_;
  ++commits_since_checkpoint_;
  if (options_.checkpoint_every != 0 &&
      commits_since_checkpoint_ >= options_.checkpoint_every) {
    if (api::Status s = checkpoint_locked(); !s.ok() && last_error_.ok()) {
      last_error_ = s;
    }
  }
}

api::Status DurabilityManager::checkpoint_locked() {
  if (engine_ == nullptr) {
    return api::Status::failed_precondition(
        "DurabilityManager: not bound to an engine");
  }
  // save_checkpoint collects its commit-consistent image under the
  // engine's commit lock; every record already appended belongs to a
  // commit published before its after_commit ran, so the image covers the
  // whole log and the truncation below cannot lose state.
  if (api::Status s = engine_->save_checkpoint(options_.dir); !s.ok()) {
    return s;
  }
  if (api::Status s = wal_.open(options_.dir + "/" + kWalFile,
                                /*truncate=*/true);
      !s.ok()) {
    return s;
  }
  ++checkpoints_written_;
  commits_since_checkpoint_ = 0;
  last_error_ = {};  // a durable checkpoint supersedes earlier failures
  return {};
}

api::Status DurabilityManager::checkpoint_now() {
  const std::unique_lock<std::mutex> lock(mutex_);
  return checkpoint_locked();
}

api::Status DurabilityManager::last_error() const {
  const std::unique_lock<std::mutex> lock(mutex_);
  return last_error_;
}

std::uint64_t DurabilityManager::wal_appends() const {
  const std::unique_lock<std::mutex> lock(mutex_);
  return wal_appends_;
}

std::uint64_t DurabilityManager::checkpoints_written() const {
  const std::unique_lock<std::mutex> lock(mutex_);
  return checkpoints_written_;
}

}  // namespace iup::persist
