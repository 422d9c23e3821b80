// Pure-CPU executions, one engine each for both storage tiers: the
// `store` argument (front_window.h) decides whether finished cells land in
// a row-major grid (GridStorage, the default) or in a checkpointed
// frontier table (CheckpointStorage). Pricing never depends on it.
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
template <LddpProblem P, typename Store = detail::GridStorage>
auto solve_cpu_serial(const P& p, sim::Platform* platform, SolveStats* stats,
                      bool batch = true, const Store& store = {}) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  auto rows = store.template rows<V>(n, m);
  detail::fill_rows(p, rows, 0, batch);
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
    rows.finish(*stats);
  }
  return rows.take();
}

/// Multicore wavefront execution over the pattern's layout — the paper's
/// OpenMP-style baseline: one fork/join parallel region per front.
/// `mem_amplification` prices cache-hostile walk orders (diagonal fronts).
/// Fronts are computed into the storage sink's rolling window; the
/// pricing is unaffected by where cells live.
template <LddpProblem P, typename Layout,
          typename Store = detail::GridStorage>
auto solve_cpu_parallel(const P& p, const Layout& layout,
                        sim::Platform& platform, SolveStats* stats,
                        double mem_amplification = 1.0, bool batch = true,
                        const Store& store = {}) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const cpu::WorkProfile work = detail::cpu_work_for(
      p, detail::priced_as_vector(p, layout, deps, batch));
  using Front = typename Store::template Front<V, Layout>;
  AlignedBuf<V> ring;
  Front out = store.front(layout, deps,
                          ring.ensure(Front::ring_size(layout, deps)),
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
    detail::finish_stats(*stats, platform, wall.seconds());
    out.finish(*stats);
  }
  return out.take();
}

}  // namespace lddp
