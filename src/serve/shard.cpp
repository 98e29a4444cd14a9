#include "serve/shard.hpp"

#include <cassert>

namespace iup::serve {

namespace {

// Nesting depth of ReadPathScope on this thread (scopes may stack when a
// read-path helper calls another).
thread_local int read_path_depth = 0;

// Relaxed is enough: the counter is a monotonic tally read after threads
// join (tests) or for monitoring — it orders nothing.
std::atomic<std::uint64_t> lock_violations{0};

}  // namespace

ReadPathScope::ReadPathScope() { ++read_path_depth; }

ReadPathScope::~ReadPathScope() { --read_path_depth; }

bool in_read_path() { return read_path_depth > 0; }

std::uint64_t read_path_lock_violations() {
  return lock_violations.load(std::memory_order_relaxed);
}

void note_state_lock_acquired() {
  if (read_path_depth > 0) {
    lock_violations.fetch_add(1, std::memory_order_relaxed);
    assert(false && "state mutex acquired on the serve read path");
  }
}

}  // namespace iup::serve
