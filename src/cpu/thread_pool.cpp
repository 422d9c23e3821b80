#include "cpu/thread_pool.h"

#include "util/check.h"

namespace lddp::cpu {

namespace {

std::size_t worker_count(std::size_t num_threads) {
  LDDP_CHECK_MSG(num_threads >= 1, "pool needs at least one thread");
  return num_threads - 1;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : owned_(std::make_unique<StealingExecutor>(worker_count(num_threads))),
      exec_(owned_.get()) {}

ThreadPool::ThreadPool(StealingExecutor* exec) : exec_(exec) {
  LDDP_CHECK_MSG(exec != nullptr, "pool handle needs an executor");
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  exec_->parallel_region(begin, end, grain, body);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(begin, end, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

ThreadPool& shared_stealing_pool() {
  static ThreadPool pool(&shared_executor());
  return pool;
}

}  // namespace lddp::cpu
