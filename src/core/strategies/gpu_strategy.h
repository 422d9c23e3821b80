// Pure simulated-GPU execution: one kernel per wavefront, thread per cell
// (Section IV-A), fronts stored in the pattern's wavefront-contiguous order
// so accesses coalesce (Section IV-B).
//
// Cost structure mirrors a real CUDA implementation: one upload of the
// problem inputs, one kernel launch per front (launch overhead dominates
// low-work fronts — the effect the heterogeneous strategies exploit), and
// one download of the result.
#pragma once

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/front_window.h"
#include "sim/launch_graph.h"
#include "sim/memory.h"

namespace lddp {

template <LddpProblem P, typename Layout>
Grid<typename P::Value> solve_gpu(const P& p, const Layout& layout,
                                  sim::Platform& platform, SolveStats* stats,
                                  bool fused = true, bool batch = true) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  sim::Device& gpu = platform.gpu();
  const auto stream = gpu.default_stream();

  // Kernels compute into a device-resident front window, which the host
  // drains into the result grid as fronts retire (front_window.h). Every
  // cell of a front is written before any read, so the window skips its
  // zero-fill.
  sim::DeviceBuffer<V> ring = gpu.template alloc<V>(
      detail::GridDrain<V, Layout>::ring_size(layout, deps),
      /*zeroed=*/false);
  detail::GridDrain<V, Layout> out(layout, deps, ring.device_ptr(),
                                   platform.pool());
  auto addr = [&out](std::size_t i, std::size_t j) { return out.addr(i, j); };
  auto read = [&out](std::size_t i, std::size_t j) { return *out.addr(i, j); };
  const sim::KernelInfo info = detail::kernel_info_for(p, "gpu.front");

  // The whole compute phase — input upload plus every per-front kernel —
  // is one graph submission; nothing on the host consumes GPU data before
  // the final download, so the entire loop can fuse.
  sim::LaunchGraph graph(gpu, fused);

  // Inputs (sequences / cost grid / image) go up once, pageable.
  graph.record_h2d(stream, input_bytes_of(p), sim::MemoryKind::kPageable);

  const bool use_batch = detail::use_batch_front(p, layout, deps, batch);
  for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
    if (use_batch) {
      // Ranged body: the batch runner packs each chunk's interior into
      // dense spans for compute_front. Same cells, same kernel pricing.
      graph.launch(stream, info, layout.front_size(f),
                   [&, f](std::size_t lo, std::size_t hi) {
                     detail::run_front_range(p, deps, bound, layout, f, lo,
                                             hi, addr, /*batch=*/true);
                   });
    } else {
      graph.launch(stream, info, layout.front_size(f),
                   [&, f](std::size_t c) {
                     const CellIndex cell = layout.cell(f, c);
                     *out.addr(cell.i, cell.j) = detail::compute_cell(
                         p, deps, bound, cell.i, cell.j, m, read);
                   });
    }
    // Kernels execute eagerly at record time, so the front is final here.
    out.retire(f);
  }
  graph.replay();

  // The priced download is what a production consumer would fetch
  // (result_bytes_of); the drained grid is the caller's full table.
  const sim::OpId done = gpu.record_d2h(stream, result_bytes_of(p),
                                        sim::MemoryKind::kPageable);
  platform.cpu_sync(done);

  if (stats) {
    stats->mode_used = Mode::kGpu;
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
