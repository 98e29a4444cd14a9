#include "ingest/faults.hpp"

#include <limits>
#include <thread>

namespace iup::ingest {

FaultInjector::FaultInjector(std::uint64_t seed) : rng_(seed) {}

void FaultInjector::arm(FaultKind kind, FaultSchedule schedule) {
  std::lock_guard<std::mutex> lock(mutex_);
  KindState& state = kinds_[static_cast<std::uint32_t>(kind)];
  state.armed = true;
  state.schedule = schedule;
  state.attempts = 0;
  state.fired = 0;
}

void FaultInjector::clear(FaultKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = kinds_.find(static_cast<std::uint32_t>(kind));
  if (it != kinds_.end()) it->second.armed = false;
}

void FaultInjector::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [kind, state] : kinds_) state.armed = false;
}

bool FaultInjector::fire(FaultKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = kinds_.find(static_cast<std::uint32_t>(kind));
  if (it == kinds_.end() || !it->second.armed) return false;
  KindState& state = it->second;
  const std::uint64_t n = state.attempts++;
  if (n < state.schedule.start) return false;
  if (state.schedule.count != 0 && state.fired >= state.schedule.count) {
    return false;
  }
  const std::uint64_t every = state.schedule.every == 0 ? 1
                                                        : state.schedule.every;
  if ((n - state.schedule.start) % every != 0) return false;
  ++state.fired;
  return true;
}

std::uint64_t FaultInjector::fired(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = kinds_.find(static_cast<std::uint32_t>(kind));
  return it == kinds_.end() ? 0 : it->second.fired;
}

void FaultInjector::corrupt(Observation& observation) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (rng_.uniform_index(4)) {
    case 0:
      observation.rss_db = std::numeric_limits<double>::quiet_NaN();
      break;
    case 1:
      observation.rss_db = std::numeric_limits<double>::infinity();
      break;
    case 2:
      observation.rss_db = 400.0;  // a sensor fault, not a signal
      break;
    default:
      observation.link = std::numeric_limits<std::size_t>::max();
      break;
  }
}

void FaultInjector::set_solve_delay(std::chrono::nanoseconds delay) {
  solve_delay_ns_.store(delay.count(), std::memory_order_relaxed);
}

void FaultInjector::set_deadline(std::chrono::nanoseconds deadline) {
  deadline_ns_.store(deadline.count(), std::memory_order_relaxed);
}

std::chrono::nanoseconds FaultInjector::deadline() const {
  return std::chrono::nanoseconds(
      deadline_ns_.load(std::memory_order_relaxed));
}

api::UpdateHooks FaultInjector::engine_hooks() {
  api::UpdateHooks hooks;
  hooks.on_solve = [this]() -> api::Status {
    // Order matters: a slow solve *succeeds* at the solver level (and
    // trips the deadline at before_publish instead), so the two failure
    // modes stay distinguishable in the health counters.
    if (fire(FaultKind::kSlowSolve)) {
      const auto delay = std::chrono::nanoseconds(
          solve_delay_ns_.load(std::memory_order_relaxed));
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
      return {};
    }
    if (fire(FaultKind::kSolverFailure)) {
      return api::Status::unavailable("injected fault: solver outage");
    }
    return {};
  };
  hooks.before_publish =
      [this](std::chrono::nanoseconds elapsed) -> api::Status {
    const auto budget = std::chrono::nanoseconds(
        deadline_ns_.load(std::memory_order_relaxed));
    if (budget.count() > 0 && elapsed > budget) {
      return api::Status::deadline_exceeded(
          "injected fault: update ran past its deadline; commit aborted");
    }
    return {};
  };
  return hooks;
}

}  // namespace iup::ingest
