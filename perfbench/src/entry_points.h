// The benchmark's only call sites into the library's public entry points.
//
// Every layer the benchmark measures is reached through exactly one
// function here, so a change that merges or renames an entry point edits
// one line of the benchmark.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "core/front_runner.h"
#include "core/front_span.h"
#include "core/lane_cohort.h"
#include "cpu/thread_pool.h"
#include "problems/alignment.h"
#include "sim/timeline_merge.h"
#include "tables/grid.h"

namespace perfbench::entry {

// core.framework
template <class P>
lddp::SolveResult<P> solve(const P& p, const lddp::RunConfig& rc) {
  return lddp::solve(p, rc);
}

template <class P>
lddp::FrontierSolveResult<P> solve_frontier(const P& p,
                                            const lddp::RunConfig& rc) {
  return lddp::solve_frontier(p, rc);
}

// tables (storage reads through a traceback)
template <class Table>
lddp::problems::Alignment nw_traceback(
    const lddp::problems::NeedlemanWunschProblem& p, const Table& t) {
  return lddp::problems::nw_traceback(p, t);
}

template <class V>
lddp::Grid<V> make_table(std::size_t rows, std::size_t cols) {
  return lddp::Grid<V>(rows, cols);
}

// core.batch_engine
template <class P>
auto submit(lddp::BatchEngine& engine, P p, const lddp::RunConfig& rc) {
  return engine.submit(std::move(p), rc);
}

template <class P>
auto submit_frontier(lddp::BatchEngine& engine, P p,
                     const lddp::RunConfig& rc) {
  return engine.submit_frontier(std::move(p), rc);
}

inline lddp::BatchReport wait(lddp::BatchEngine& engine) {
  return engine.wait();
}

// problems (cell kernels)
template <class P>
bool compute_front(const P& p, const lddp::FrontSpan<typename P::Value>& s) {
  return p.compute_front(s);
}

// core.front_runner
template <class P, class Layout, class Addr>
void run_front(const P& p, const Layout& layout, std::size_t f, Addr addr) {
  lddp::detail::run_front_range(p, p.deps(), p.boundary(), layout, f, 0,
                                layout.front_size(f), addr, /*batch=*/true);
}

// core.lane_cohort
template <class P>
std::vector<lddp::Grid<typename P::Value>> solve_lane_cohort(
    const std::vector<const P*>& problems, lddp::detail::LaneExecStats* st) {
  return lddp::detail::solve_lane_cohort(problems, /*batch_kernels=*/true,
                                         st);
}

// cpu (the process-wide shared executor)
inline void parallel_for_empty(std::size_t n) {
  lddp::cpu::shared_stealing_pool().parallel_for_chunked(
      0, n, [](std::size_t, std::size_t) {});
}

// sim (schedule merge, as the batch engine replays recorded timelines)
inline std::size_t merger_add(lddp::sim::TimelineMerger& m,
                              const lddp::sim::Timeline& t, double release,
                              lddp::sim::OpId release_dep) {
  return m.add(t, release, release_dep, /*packable=*/true);
}

inline std::size_t merger_step(lddp::sim::TimelineMerger& m) {
  return m.step();
}

}  // namespace perfbench::entry
