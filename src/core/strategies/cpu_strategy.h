// Pure-CPU executions.
//
// * solve_cpu_serial — single-threaded row-major scan. A row-major sweep
//   (i ascending, j ascending) respects every LDDP-Plus dependency (all
//   four representative cells lie up or left), so this is the universal
//   correctness reference for all patterns.
// * solve_cpu_parallel — the paper's multicore baseline: wavefronts of the
//   problem's pattern, block-per-thread within each front (Section IV-A).
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/front_window.h"
#include "util/aligned.h"

namespace lddp {

/// Serial reference. Records a single serial-priced op on the platform's
/// CPU timeline if `platform` is given; execution always happens. Rows
/// sweep with the W-carry scalar loop; W-free problems with the batch
/// hook vectorize each row's interior (a W dependency is sequential
/// within the row, so those problems stay scalar here).
template <LddpProblem P>
Grid<typename P::Value> solve_cpu_serial(const P& p, sim::Platform* platform,
                                         SolveStats* stats,
                                         bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  Grid<V> table(n, m);
  V* const data = table.data();
  for (std::size_t i = 0; i < n; ++i) {
    const V* prev = i > 0 ? data + (i - 1) * m : nullptr;
    detail::run_row(p, deps, bound, i, 0, m, m, prev, data + i * m, batch);
  }
  if (platform) {
    const bool use_batch =
        batch && has_batch_front_v<P> && !deps.has_w();
    platform->cpu_charge(n * m, detail::cpu_work_for(p, use_batch),
                         /*parallel=*/false);
  }
  if (stats) {
    stats->mode_used = Mode::kCpuSerial;
    stats->pattern = classify(deps);
    stats->transfer = TransferNeed::kNone;
    stats->fronts = n;  // scan rows
    stats->cells = n * m;
    if (platform) detail::finish_stats(*stats, *platform, wall.seconds());
    else stats->real_seconds = wall.seconds();
  }
  return table;
}

/// Multicore wavefront execution over the pattern's layout — the paper's
/// OpenMP-style baseline: one fork/join parallel region per front.
/// `mem_amplification` prices cache-hostile walk orders (diagonal fronts).
/// Fronts are computed into a rolling window and drained into the grid
/// (front_window.h); the pricing is unaffected by where cells live.
template <LddpProblem P, typename Layout>
Grid<typename P::Value> solve_cpu_parallel(const P& p, const Layout& layout,
                                           sim::Platform& platform,
                                           SolveStats* stats,
                                           double mem_amplification = 1.0,
                                           bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const cpu::WorkProfile work = detail::cpu_work_for(
      p, detail::priced_as_vector(p, layout, deps, batch));
  AlignedBuf<V> ring;
  detail::GridDrain<V, Layout> out(
      layout, deps,
      ring.ensure(detail::GridDrain<V, Layout>::ring_size(layout, deps)),
      platform.pool());
  auto addr = [&out](std::size_t i, std::size_t j) { return out.addr(i, j); };
  // The simulated pricing below is the paper's fork/join-per-front OpenMP
  // baseline, whatever executor runs the fronts for real.
  sim::Platform::CpuFrontOpts opts;
  opts.mem_amplification = mem_amplification;
  for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
    // OpenMP-style "if" clause: fronts too small to amortize the fork/join
    // run on the issuing thread.
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, layout.front_size(f), mem_amplification);
    platform.cpu_front(
        layout.front_size(f), work,
        [&](std::size_t lo, std::size_t hi) {
          detail::run_front_range(p, deps, bound, layout, f, lo, hi, addr,
                                  batch);
        },
        opts);
    out.retire(f);
  }
  if (stats) {
    stats->mode_used = Mode::kCpuParallel;
    stats->pattern = classify(deps);
    stats->transfer = TransferNeed::kNone;
    stats->fronts = layout.num_fronts();
    stats->cells = n * m;
    stats->peak_table_bytes = out.peak_bytes();
    detail::finish_stats(*stats, platform, wall.seconds());
  }
  return out.take();
}

}  // namespace lddp
