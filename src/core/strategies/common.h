// Shared machinery of all execution strategies: neighbour gathering on host
// and device tables, kernel descriptions, and stats assembly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/contributing_set.h"
#include "core/pattern.h"
#include "core/problem.h"
#include "core/run_config.h"
#include "cpu/calibrate.h"
#include "sim/platform.h"
#include "tables/grid.h"
#include "tables/layout.h"
#include "util/stopwatch.h"

namespace lddp::detail {

/// Cache-amplification of a diagonal-order CPU walk over the row-major
/// host table (anti-diagonal and knight-move fronts): consecutive cells of
/// a front live about one row apart, so cache lines are not reused within
/// the front; partial L2 reuse across adjacent fronts keeps the factor
/// well below the one-line-per-cell worst case.
inline constexpr double kDiagonalCpuAmplification = 4.0;

/// Computes one cell, reading neighbours through `read(i, j)`. `deps` and
/// `bound` are hoisted out of the per-cell loop by the caller (they are
/// loop-invariant, but the compiler cannot always prove that through the
/// problem object).
template <LddpProblem P, typename ReadFn>
inline typename P::Value compute_cell(const P& p, ContributingSet deps,
                                      typename P::Value bound, std::size_t i,
                                      std::size_t j, std::size_t cols,
                                      ReadFn&& read) {
  Neighbors<typename P::Value> nb{bound, bound, bound, bound};
  if (deps.has_w() && j > 0) nb.w = read(i, j - 1);
  if (i > 0) {
    if (deps.has_nw() && j > 0) nb.nw = read(i - 1, j - 1);
    if (deps.has_n()) nb.n = read(i - 1, j);
    if (deps.has_ne() && j + 1 < cols) nb.ne = read(i - 1, j + 1);
  }
  return p.compute(i, j, nb);
}

/// Reader over the host row-major table.
template <typename V>
struct GridReader {
  const Grid<V>* grid;
  V operator()(std::size_t i, std::size_t j) const { return grid->at(i, j); }
};

/// Reader over a device table in `Layout` order.
template <typename V, typename Layout>
struct DeviceReader {
  const V* data;
  const Layout* layout;
  V operator()(std::size_t i, std::size_t j) const {
    return data[layout->flat(i, j)];
  }
};

/// Copies columns [j_begin, j_end) of a row-major device table into the
/// host result grid (the strategies that keep a full device copy).
template <typename V>
void unpack_table(const V* src, const RowMajorLayout& layout, Grid<V>& table,
                  std::size_t j_begin, std::size_t j_end) {
  const std::size_t m = layout.cols();
  for (std::size_t i = 0; i < layout.rows(); ++i)
    std::copy(src + i * m + j_begin, src + i * m + j_end,
              table.data() + i * m + j_begin);
}

/// Work profile for the CPU pricing of this solve. `vector_priced` means
/// the problem has a real SIMD compute_front hook that the run uses; only
/// then is the calibrated vector-throughput term applied, so model-driven
/// decisions (parallel-vs-serial gating, t_switch/t_share defaults, tuner
/// sweeps, morsel grain) see the real CPU speed. Hook-less problems also
/// run through packed spans (front_runner.h), but their generic span loop
/// still makes one scalar `compute` call per cell, so they keep scalar
/// pricing and their simulated schedule does not depend on the host.
template <LddpProblem P>
cpu::WorkProfile cpu_work_for(const P& p, bool vector_priced) {
  cpu::WorkProfile w = work_profile_of(p);
  if (vector_priced) w.vector_speedup = cpu::calibrated_vector_speedup();
  return w;
}

/// Kernel description for a problem's f on a wavefront-contiguous layout
/// (mem_amplification 1.0 — that is the point of the layout).
template <LddpProblem P>
sim::KernelInfo kernel_info_for(const P& p, const char* name) {
  sim::KernelInfo info;
  info.name = name;
  info.work = work_profile_of(p);
  info.mem_amplification = 1.0;
  return info;
}

/// Fills mode-independent stats fields after a run.
inline void finish_stats(SolveStats& stats, sim::Platform& platform,
                         double real_seconds) {
  stats.sim_seconds = platform.elapsed();
  stats.real_seconds = real_seconds;
  stats.cpu_busy_seconds = platform.cpu_busy();
  stats.gpu_busy_seconds = platform.gpu().compute_busy();
  stats.copy_busy_seconds = platform.gpu().copy_busy();
  const sim::MemoryStats& mem = platform.gpu().stats();
  stats.h2d_bytes = mem.h2d_bytes;
  stats.d2h_bytes = mem.d2h_bytes;
  stats.h2d_copies = mem.h2d_copies;
  stats.d2h_copies = mem.d2h_copies;
}

}  // namespace lddp::detail
