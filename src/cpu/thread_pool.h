// Host thread-pool handle over the work-stealing executor.
//
// The paper creates "a few heavy-weight threads where each thread is
// responsible for processing a group of cells" (Section IV-A) and shares
// fronts out with OpenMP's `schedule(static)`. Here that static
// worksharing is a cost-model price (cpu::cpu_front_seconds); real host
// execution always runs on cpu::StealingExecutor. A ThreadPool is the
// handle the framework passes around: it either owns an executor or
// borrows one.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "cpu/stealing_executor.h"

namespace lddp::cpu {

/// Usage:
///   ThreadPool pool(6);
///   pool.parallel_for(0, n, [&](std::size_t i) { ... });
///
/// Thread-safety: any number of threads may drive one handle concurrently
/// (the executor gives each its own deque); regions do not nest. Body
/// exceptions are captured and the first one is rethrown on the caller.
class ThreadPool {
 public:
  /// Owns an executor with `num_threads - 1` workers; the calling thread
  /// is the last one. `num_threads` must be at least 1.
  explicit ThreadPool(std::size_t num_threads);

  /// Borrows `exec`, which must outlive the handle.
  explicit ThreadPool(StealingExecutor* exec);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that can execute region work: workers + the caller.
  std::size_t size() const { return exec_->size(); }

  /// Runs body(i) for every i in [begin, end) and blocks until all have
  /// run. A range of at most StealingExecutor::kMinGrain items runs inline
  /// on the caller as one task, so a front of a few hundred tiles does not
  /// fan out; longer ranges split into morsels across the executor.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Chunked variant: body(lo, hi) once per morsel, so hot loops avoid a
  /// std::function call per cell. `grain` is the target morsel size in
  /// items (0 = executor default, typically computed by the caller from
  /// the calibrated per-cell cost model).
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t grain = 0);

 private:
  std::unique_ptr<StealingExecutor> owned_;
  StealingExecutor* exec_;
};

/// Process-wide handle over cpu::shared_executor() — the pool
/// RunConfig{schedule = Schedule::kStealing} routes solo solves through.
/// Lazily constructed.
ThreadPool& shared_stealing_pool();

}  // namespace lddp::cpu
