// Frontier (linear-space) storage tier: the pieces that are specific to it.
//
// The serial, cpu-parallel and gpu engines are the ones in
// cpu_strategy.h and gpu_strategy.h, run over CheckpointStorage
// (front_window.h): they fill a FrontierTable instead of a Grid, keeping
// the live fronts in a rolling window and retaining only the checkpoint
// rows i % K == 0 plus the last row. Consumers that need interior cells —
// tracebacks, best-score scans — go through the table's
// rematerialization callback (attach_row_remat below), which re-runs the
// problem's own row recurrence over one K-row band; results are
// bit-identical to the full tier because every cell value is a pure
// function of its neighbours.
//
// What stays here is the heterogeneous engine of this tier,
// solve_frontier_hetero: the paper's CPU+GPU split over the window, where
// the CPU owns its strip of each front directly in the (host-visible)
// device window and boundary cells are priced as pinned transfers. It
// prices the split differently from the full-tier pattern engines
// (hetero_*.h), so the two are not merged yet.
#pragma once

#include <algorithm>
#include <cstring>

#include "core/front_runner.h"
#include "core/strategies/common.h"
#include "core/strategies/front_window.h"
#include "core/strategies/heuristics.h"
#include "sim/launch_graph.h"
#include "tables/frontier.h"

namespace lddp::detail {

/// RunConfig::checkpoint_interval resolution: 0 asks the model.
inline std::size_t resolve_checkpoint_interval(std::size_t user,
                                               std::size_t rows) {
  return user > 0 ? user : default_checkpoint_interval(rows);
}

/// Installs the row-recurrence rematerialization callback on a frontier
/// table. `holder` is copied into the callback and must yield the problem
/// (in the table's canonical orientation) on call — a lambda returning
/// `*p` for a caller-owned problem, or owning a cheap symmetry adapter /
/// shared_ptr by value. Rows chain from the band's upper checkpoint with
/// the same run_row used by the serial strategy, so rematerialized cells
/// are bit-identical to the original sweep.
template <typename V, typename Holder>
void attach_row_remat(FrontierTable<V>& t, Holder holder, bool batch) {
  const ContributingSet deps = holder().deps();
  const V bound = holder().boundary();
  t.set_remat(
      [holder = std::move(holder), deps, bound, batch](
          std::size_t row_lo, std::size_t row_hi, std::size_t width,
          const V* prev, V* out, std::size_t stride) {
        const auto& p = holder();
        for (std::size_t i = row_lo; i < row_hi; ++i) {
          V* row = out + (i - row_lo) * stride;
          // cols = width clamps NE reads at the pruning edge to `bound`;
          // the table's erosion accounting never serves those cells.
          run_row(p, deps, bound, i, 0, width, width, prev, row, batch);
          prev = row;
        }
      },
      deps.has_ne());
}

// --- Heterogeneous engine ----------------------------------------------

/// CPU-owned position range of front f under a t_share strip of `s`:
/// columns j < s for row fronts, rows i < s for diagonal-order fronts
/// (the same strip semantics as the full-table heterogeneous strategies).
inline void hetero_cpu_range(const RowMajorLayout& L, std::size_t f,
                             std::size_t s, std::size_t& lo,
                             std::size_t& hi) {
  (void)f;
  lo = 0;
  hi = std::min(s, L.cols());
}
inline void hetero_cpu_range(const AntiDiagonalLayout& L, std::size_t f,
                             std::size_t s, std::size_t& lo,
                             std::size_t& hi) {
  const std::size_t i0 = L.i_min(f);
  lo = 0;
  hi = i0 >= s ? 0 : std::min(s - i0, L.front_size(f));
}
inline void hetero_cpu_range(const KnightMoveLayout& L, std::size_t f,
                             std::size_t s, std::size_t& lo,
                             std::size_t& hi) {
  // Enumeration runs i descending from i_max, so the i < s strip is the
  // suffix of the front.
  const std::size_t fs = L.front_size(f);
  hi = fs;
  if (fs == 0) {
    lo = 0;
    return;
  }
  const std::size_t imax = L.i_max(f);
  lo = imax + 1 > s ? std::min(imax + 1 - s, fs) : 0;
}

/// The paper's heterogeneous split over a rolling front window shared by
/// both units: the (host-visible) device window takes the CPU strip's
/// writes directly — mapped-memory style — while boundary cells crossing
/// the strip are priced as the same pinned transfers the full-table
/// heterogeneous strategies record. Supported for the row and
/// diagonal-order layouts (hetero_cpu_range above); Inverted-L falls back
/// to the full-table strategy at the dispatch layer.
template <LddpProblem P, typename Layout>
FrontierTable<typename P::Value> solve_frontier_hetero(
    const P& p, const Layout& layout, Pattern canon, sim::Platform& platform,
    const HeteroParams& user, SolveStats* stats, double mem_amplification,
    bool fused, bool batch, std::size_t K) {
  using V = typename P::Value;
  Stopwatch wall;
  const std::size_t n = p.rows(), m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  const std::size_t w = frontier_window_fronts(layout, deps);
  LDDP_CHECK_MSG(w > 0, "layout/deps pair has no bounded frontier window");
  const std::size_t num_fronts = layout.num_fronts();
  const cpu::WorkProfile work =
      cpu_work_for(p, priced_as_vector(p, layout, deps, batch));

  sim::Device& gpu = platform.gpu();
  const sim::KernelInfo info = kernel_info_for(p, "hetero.frontier");
  // NE on row fronts is the one strip crossing that flows GPU -> CPU
  // (column j = t_share reads j + 1); diagonal-order strips only ever
  // cross CPU -> GPU. A two-way phase cannot fuse: the CPU consumes
  // device results mid-graph.
  const bool gpu_to_cpu =
      deps.has_ne() && std::is_same_v<Layout, RowMajorLayout>;
  const bool fuse = fused && !gpu_to_cpu;
  const HeteroParams params = resolve_hetero_params(
      user, canon, n, m, platform.spec(), info, mem_amplification,
      static_cast<double>(input_bytes_of(p)), gpu_to_cpu, fuse);
  const std::size_t ts = static_cast<std::size_t>(params.t_switch);
  const std::size_t s = static_cast<std::size_t>(params.t_share);
  const std::size_t phase2_begin = std::min(ts, num_fronts);
  const std::size_t phase2_end = num_fronts - std::min(ts, num_fronts);

  using Harvest = FrontierHarvest<V, Layout>;
  sim::DeviceBuffer<V> dwin =
      gpu.template alloc<V>(Harvest::ring_size(layout, deps),
                            /*zeroed=*/false);
  Harvest out(layout, deps, dwin.device_ptr(), K);
  auto addr = [&out](std::size_t i, std::size_t j) { return out.addr(i, j); };

  const auto compute_stream = gpu.default_stream();
  const auto h2d_stream = gpu.create_stream();
  const auto d2h_stream = gpu.create_stream();
  sim::LaunchGraph graph(gpu, fuse);
  // Only the GPU share of the inputs goes up; the CPU strip reads host
  // memory directly. The strip fraction is measured in front cells.
  {
    double cpu_cells = 0.0, all_cells = 0.0;
    for (std::size_t f = 0; f < num_fronts; ++f) {
      const std::size_t fs = layout.front_size(f);
      all_cells += static_cast<double>(fs);
      if (f < phase2_begin || f >= phase2_end) {
        cpu_cells += static_cast<double>(fs);
      } else {
        std::size_t lo, hi;
        hetero_cpu_range(layout, f, s, lo, hi);
        cpu_cells += static_cast<double>(hi - lo);
      }
    }
    const double frac = all_cells > 0.0 ? 1.0 - cpu_cells / all_cells : 0.0;
    graph.record_h2d(compute_stream,
                     static_cast<std::size_t>(
                         static_cast<double>(input_bytes_of(p)) * frac),
                     sim::MemoryKind::kPageable);
  }

  auto run_cpu = [&](std::size_t f, std::size_t lo, std::size_t hi,
                     sim::OpId dep) {
    sim::Platform::CpuFrontOpts opts;
    opts.streamed = true;
    opts.mem_amplification = mem_amplification;
    opts.parallel = cpu::parallel_beats_serial(
        platform.spec().cpu, work, hi - lo, mem_amplification, true);
    opts.dep1 = dep;
    return platform.cpu_front(
        hi - lo, work,
        [&, f, lo](std::size_t a, std::size_t b) {
          run_front_range(p, deps, bound, layout, f, lo + a, lo + b, addr,
                          batch);
        },
        opts);
  };

  sim::OpId last_cpu = sim::kNoOp;
  sim::OpId last_gpu = sim::kNoOp;
  sim::OpId cpu_dep = sim::kNoOp;   // pinned D2H the next CPU strip awaits
  sim::OpId h2d_ring[4] = {sim::kNoOp, sim::kNoOp, sim::kNoOp, sim::kNoOp};

  for (std::size_t f = 0; f < num_fronts; ++f) {
    const std::size_t fs = layout.front_size(f);
    std::size_t lo = 0, hi = fs;  // CPU-owned positions
    const bool split_phase = f >= phase2_begin && f < phase2_end;
    if (split_phase) hetero_cpu_range(layout, f, s, lo, hi);

    sim::OpId cpu_op = sim::kNoOp;
    if (hi > lo) {
      cpu_op = run_cpu(f, lo, hi, cpu_dep);
      last_cpu = cpu_op;
      cpu_dep = sim::kNoOp;
    }

    const bool has_gpu = split_phase ? (hi - lo) < fs : false;
    sim::OpId h2d_op = sim::kNoOp;
    if (has_gpu && hi > lo) {
      // The CPU's strip-boundary cell of this front, pinned, pipelined on
      // the copy stream (mapped window: the data is already visible, the
      // record prices the crossing).
      h2d_op = graph.record_h2d(h2d_stream, sizeof(V),
                                sim::MemoryKind::kPinned, cpu_op);
    }

    h2d_ring[f % 4] = h2d_op;
    if (has_gpu) {
      // The kernel waits on the boundary uploads of every front still in
      // the window (W/N/NW/NE reads reach up to w - 1 fronts back; the
      // same-front W crossing of row fronts needs this front's upload).
      sim::OpId extra =
          std::is_same_v<Layout, RowMajorLayout> ? h2d_op : sim::kNoOp;
      for (std::size_t back = 1; back < w && back <= f; ++back) {
        const sim::OpId op = h2d_ring[(f - back) % 4];
        if (op == sim::kNoOp) continue;
        if (extra == sim::kNoOp) extra = op;
        else graph.stream_wait(compute_stream, op);
      }
      const std::size_t glo = lo == 0 ? hi : 0;
      const std::size_t ghi = lo == 0 ? fs : lo;
      last_gpu = graph.launch(
          compute_stream, info, ghi - glo,
          [&, f, glo](std::size_t a, std::size_t b) {
            run_front_range(p, deps, bound, layout, f, glo + a, glo + b,
                            addr, batch);
          },
          extra);
      if (gpu_to_cpu)
        // NE pulls the GPU's boundary column back across the strip for
        // the next front's CPU segment.
        cpu_dep = graph.record_d2h(d2h_stream, sizeof(V),
                                   sim::MemoryKind::kPinned, last_gpu);
    }

    const std::size_t cells = out.retire(f);
    if (cells > 0 && has_gpu)
      graph.record_d2h(d2h_stream, cells * sizeof(V),
                       sim::MemoryKind::kPinned);
  }

  graph.replay();
  last_gpu = graph.resolve(last_gpu);
  const sim::OpId fin = gpu.record_d2h(
      d2h_stream, result_bytes_of(p), sim::MemoryKind::kPageable, last_gpu);
  platform.cpu_sync(fin, last_cpu);

  if (stats) {
    stats->mode_used = Mode::kHeterogeneous;
    stats->pattern = canon;
    stats->transfer = transfer_need(deps);
    stats->fronts = num_fronts;
    stats->cells = n * m;
    stats->t_switch = params.t_switch;
    stats->t_share = params.t_share;
    finish_stats(*stats, platform, wall.seconds());
    out.finish(*stats);
  }
  return out.take();
}

}  // namespace lddp::detail
