#include "tracer.hpp"

#include <algorithm>
#include <utility>

#include "harness.hpp"

namespace perfbench {

namespace api = iup::api;

namespace {

/// The in-flight update on this thread (update_batch keeps a site's whole
/// chain on one thread, so one slot per thread suffices).
struct ThreadSlot {
  bool active = false;       ///< on_solve seen, after_commit pending
  std::int64_t mark = 0;     ///< previous after_commit return
  std::int64_t on_solve = 0;
  std::int64_t before_publish = 0;
  std::int64_t sweep_ns = 0;
  std::size_t sweeps = 0;
  std::size_t mask_groups = 0;
};

ThreadSlot& slot() {
  thread_local ThreadSlot s;
  return s;
}

class TimedBackend final : public api::SolverBackend {
 public:
  explicit TimedBackend(iup::core::RsvdOptions options) : inner_(options) {}

  std::string name() const override { return inner_.name(); }
  bool uses_correlation() const override {
    return inner_.uses_correlation();
  }
  bool uses_warm_start() const override { return inner_.uses_warm_start(); }
  iup::core::RsvdResult solve(
      const iup::core::RsvdProblem& problem,
      const iup::core::BandLayout& layout) const override {
    const std::int64_t t0 = now_ns();
    iup::core::RsvdResult result = inner_.solve(problem, layout);
    ThreadSlot& s = slot();
    s.sweep_ns += now_ns() - t0;
    s.sweeps = result.iterations;
    s.mask_groups = result.mask_groups;
    return result;
  }

 private:
  api::SelfAugmentedBackend inner_;
};

}  // namespace

api::UpdateHooks Tracer::hooks(iup::persist::DurabilityManager& durability) {
  api::UpdateHooks taps;
  taps.on_solve = [] {
    ThreadSlot& s = slot();
    s.active = true;
    s.on_solve = now_ns();
    s.sweep_ns = 0;
    return api::Status();
  };
  taps.before_publish = [](std::chrono::nanoseconds) {
    slot().before_publish = now_ns();
    return api::Status();
  };
  api::UpdateHooks hooks = durability.engine_hooks(std::move(taps));
  hooks.after_commit = [this, &durability,
                        journal = std::move(hooks.after_commit)](
                           const api::CommitEvent& event) {
    const std::uint64_t rolls = durability.checkpoints_written();
    const std::int64_t entry = now_ns();
    journal(event);
    const std::int64_t exit = now_ns();
    record(event, entry, exit, durability.checkpoints_written() != rolls);
  };
  return hooks;
}

std::shared_ptr<const api::SolverBackend> Tracer::backend(
    const api::EngineConfig& config) {
  iup::core::RsvdOptions options = config.rsvd();
  options.threads = config.threads();
  return std::make_shared<TimedBackend>(options);
}

void Tracer::begin_call(std::uint64_t call, std::uint64_t group) {
  call_.store(call, std::memory_order_relaxed);
  group_.store(group, std::memory_order_relaxed);
  call_start_.store(now_ns(), std::memory_order_relaxed);
}

void Tracer::record(const api::CommitEvent& event, std::int64_t entry,
                    std::int64_t exit, bool rolled) {
  ThreadSlot& s = slot();
  if (!s.active) return;  // a registration commit, not an update
  s.active = false;
  const std::int64_t from =
      std::max(s.mark, call_start_.load(std::memory_order_relaxed));
  UpdateSpan span;
  span.site = event.snapshot->site();
  span.thread = std::this_thread::get_id();
  span.call = call_.load(std::memory_order_relaxed);
  span.group = group_.load(std::memory_order_relaxed);
  span.collect_ns = s.on_solve - from;
  span.sweep_ns = s.sweep_ns;
  span.refresh_ns = s.before_publish - s.on_solve - s.sweep_ns;
  span.publish_ns = entry - s.before_publish;
  span.persist_ns = exit - entry;
  span.span_ns = exit - s.on_solve;
  span.checkpoint = rolled;
  span.sweeps = s.sweeps;
  span.mask_groups = s.mask_groups;
  s.mark = exit;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<UpdateSpan> Tracer::take_spans() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

}  // namespace perfbench
