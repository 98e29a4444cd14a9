// Fixed thread pool + deterministic parallel_for.
//
// The solver hot path (Algorithm 1) is embarrassingly parallel: every
// column of the R-update and every row of the L-update solves its own
// independent r x r normal-equation system and writes its own output row.
// This subsystem exploits that with the *strongest* determinism guarantee:
//
//   parallel_for(threads, n, body) produces bit-identical results for any
//   thread count, because the iteration space is split into contiguous
//   chunks by pure integer arithmetic (chunk_range), each index is
//   processed by exactly one chunk, and no floating-point reduction is
//   ever reordered — bodies only write state they exclusively own
//   (their output rows and their per-slot workspace).
//
// Scheduling model:
//   * One process-wide pool (global_pool()) lazily spawns its workers on
//     first use; parallel_for borrows it, so solvers never pay thread
//     creation per sweep.
//   * The calling thread participates: it executes chunk 0, then helps
//     drain its own batch's still-queued chunks (never another batch's —
//     a caller holding a lock must not execute foreign work), then waits.
//     The pool therefore makes progress even with zero workers
//     (single-core machines) and is never a deadlock hazard.
//   * Budgeted nesting: a parallel_for from inside a chunk submits its
//     chunks to the shared queue (one nested level deep), so idle workers
//     flow into the nested fan-outs — an update_batch with fewer site
//     chains than pool threads feeds its surplus threads to the chains'
//     solver sweeps instead of pinning each chain to one thread.
//     Deeper nesting degrades to sequential chunk execution on the
//     calling thread.  Either way: same chunks, same slots, same results,
//     no deadlock (every nested caller drains its own still-queued chunks
//     before blocking, and nesting bottoms out at the depth cap).
//
// Consumers beyond the solver: Engine::update_batch fans out across
// sites and Engine::localize_batch across measurements through the same
// parallel_for — the "bodies only write state they exclusively own" rule
// is what lets localize_batch compute a whole panel against one immutable
// published bundle with no extra synchronization, and the deterministic
// chunking is why a batch returns exactly the bits of single calls.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

namespace iup::parallel {

/// Body of a parallel loop: process indices [begin, end).  `slot` is the
/// chunk index in [0, ways) — stable across thread counts and runs, so it
/// can index per-chunk scratch workspaces.
using ChunkBody =
    std::function<void(std::size_t begin, std::size_t end, std::size_t slot)>;

/// Deterministic static partition: the half-open index range of chunk `c`
/// when [0, n) is split `ways` ways.  Chunks are contiguous, cover [0, n)
/// exactly once, and differ in size by at most one element.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                std::size_t ways,
                                                std::size_t c);

/// Resolve a thread-count knob: 0 means "all hardware threads", anything
/// else is taken literally.  Always returns >= 1.
std::size_t resolve_threads(std::size_t requested);

class ThreadPool {
 public:
  /// Spawns exactly `workers` worker threads (the caller of run() is an
  /// additional participant, so total parallelism is workers + 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const;

  /// Split [0, n) into min(ways, n) chunks and invoke `body` once per
  /// chunk.  Blocks until every chunk has finished.  Safe to call from a
  /// worker thread (runs the chunks sequentially in that case).  If one
  /// or more chunks throw, the remaining chunks still run to completion
  /// and the first exception is rethrown on the calling thread — a body
  /// exception never escapes a worker or aborts the process.
  void run(std::size_t n, std::size_t ways, const ChunkBody& body);

  /// The process-wide pool used by parallel_for, sized for the hardware.
  /// Workers are spawned lazily on first use.
  static ThreadPool& global();

 private:
  struct Impl;
  Impl* impl_;
};

/// Run `body` over [0, n) split into up to `threads` chunks on the global
/// pool.  `threads` <= 1 (or n <= 1) runs inline with a single chunk —
/// the zero-overhead serial path.
void parallel_for(std::size_t threads, std::size_t n, const ChunkBody& body);

}  // namespace iup::parallel
