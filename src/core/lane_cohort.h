// Lane-cohort driver: executes a cohort of same-class solves in SIMD
// lockstep, one lane per solve.
//
// The batch engine groups co-admitted requests whose SolveClassKey
// matches (same problem kind, contributing set, resolved mode and
// power-of-two shape bucket) and hands them here as one unit. The driver
// interleaves the cohort's tables lane-major (tables/lane_grid.h, two
// rolling rows) and sweeps the shared region — rows [1, min_rows),
// interior columns — with the lane-generic row kernels of
// core/lane_kernels.h, so every front load/store is one unit-stride
// vector across solves, even at front length 1. A row-major sweep
// respects every LDDP-Plus contributing set (all four representative
// cells lie up or left), so lockstep rows are valid for all patterns.
//
// Ragged cohorts (sides differing within one bucket): each row finishes
// with a per-lane column remainder — required before the next row when
// the set includes NE, whose edge cell reads the remainder's first
// column — and lanes taller than min_rows retire from lockstep and
// finish with the per-solve row sweep. Padding lanes (cohort size not a
// vector multiple) replicate lane 0 and are discarded. Cohorts of
// problems without LaneTraits, or too small/narrow to pay for
// interleaving, take the per-solve sweep for every lane.
//
// Every cell is produced either by the scalar reference recurrence
// (edges, remainders, retired lanes) or by a lane kernel whose exact
// int32 ops mirror it — results are bit-identical to solo solves.
//
// Where each lane's rows live is a row sink (front_window.h): GridRows
// for full tables, CheckpointRows for the frontier tier, which keeps two
// rolling rows per lane plus its checkpoint rows. The driver reads and
// writes lane s's row i only through rows[s].row(i) — edge cells
// included — and calls rows[s].done(i) once the row is final.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/front_runner.h"
#include "core/lane_kernels.h"
#include "core/problem.h"
#include "core/strategies/common.h"
#include "core/strategies/front_window.h"
#include "tables/grid.h"
#include "tables/lane_grid.h"
#include "util/aligned.h"

namespace lddp::detail {

/// What lane execution did for one cohort (reported via BatchReport).
struct LaneExecStats {
  std::size_t lanes = 0;           ///< real solves in the cohort
  std::size_t width = 0;           ///< interleave width (0 = no lockstep)
  std::size_t lockstep_cells = 0;  ///< cells computed in vector lockstep
  std::size_t total_cells = 0;     ///< cells across the whole cohort
};

/// Runs `probs` as one lane cohort, lane s writing into row sink
/// rows[s]; every row is bit-identical to a per-solve serial scan.
///
/// `poll`, when set, is the cohort's lifecycle hook: called with the row
/// index at the start of every lockstep row (and with the lane index
/// before each whole-lane fill on the non-lockstep path). A throwing poll
/// — an injected lane-kernel fault, an observed cancellation — aborts the
/// cohort cleanly; the batch engine then degrades to per-lane solo
/// execution, which runs poll-free as the guaranteed reference rung.
template <LddpProblem P, typename Rows>
void run_lane_cohort(const std::vector<const P*>& probs,
                     std::vector<Rows>& rows, bool batch_kernels,
                     LaneExecStats* stats_out,
                     const std::function<void(std::size_t)>& poll = {}) {
  using V = typename P::Value;
  using Traits = lanes::LaneTraits<P>;
  const std::size_t S = probs.size();
  LDDP_CHECK(S > 0 && rows.size() == S);

  std::size_t min_rows = std::numeric_limits<std::size_t>::max();
  std::size_t min_cols = min_rows;
  LaneExecStats st;
  st.lanes = S;
  for (const P* p : probs) {
    min_rows = std::min(min_rows, p->rows());
    min_cols = std::min(min_cols, p->cols());
    st.total_cells += p->rows() * p->cols();
  }

  bool lockstep = false;
  if constexpr (Traits::enabled)
    lockstep = batch_kernels && S >= 2 && min_rows >= 2 && min_cols >= 4;
  if (!lockstep) {
    for (std::size_t s = 0; s < S; ++s) {
      if (poll) poll(s);
      fill_rows(*probs[s], rows[s], 0, batch_kernels);
    }
    if (stats_out) *stats_out = st;
    return;
  }

  if constexpr (Traits::enabled) {
    const ContributingSet deps = probs[0]->deps();
    const V bound = probs[0]->boundary();
    // The last shared column of an NE problem reads prev-row column
    // min_cols — outside the interleaved block — so it stays scalar.
    const std::size_t jK = deps.has_ne() ? min_cols - 1 : min_cols;
    const std::size_t width = (S + 3) / 4 * 4;

    // Padding lanes alias lane 0: in-bounds inputs, discarded outputs.
    std::vector<const P*> lp(width, probs[0]);
    std::copy(probs.begin(), probs.end(), lp.begin());

    LaneGrid<V> lrows(2, min_cols, width);  // rolling: row(i & 1)
    auto state = Traits::make(lp.data(), width, min_rows, min_cols);
    const lanes::ScatterFn scatter = lanes::lane_scatter(width);
    std::vector<V*> grows(S);  // per-lane sink row bases, set per row

    // Scalar edge cell (i, j) of lane s, mirrored into the lane row.
    const auto edge = [&](std::size_t s, std::size_t i, std::size_t j,
                          V* row) {
      const P& p = *probs[s];
      Rows& r = rows[s];
      const auto read = [&r](std::size_t ii, std::size_t jj) {
        return r.row(ii)[jj];
      };
      const V v = compute_cell(p, deps, bound, i, j, p.cols(), read);
      r.row(i)[j] = v;
      row[j * width + s] = v;
    };

    // Row 0 per lane (base cases live in compute), then interleave the
    // shared columns as the first lockstep predecessor row.
    for (std::size_t s = 0; s < S; ++s) {
      const P& p = *probs[s];
      run_row(p, deps, bound, 0, 0, p.cols(), p.cols(), nullptr,
              rows[s].row(0), batch_kernels);
      rows[s].done(0);
    }
    V* const row0 = lrows.row(0);
    for (std::size_t s = 0; s < width; ++s) {
      const V* const r0 = rows[s < S ? s : 0].row(0);
      for (std::size_t j = 0; j < min_cols; ++j) row0[j * width + s] = r0[j];
    }

    for (std::size_t i = 1; i < min_rows; ++i) {
      if (poll) poll(i);
      const V* const prev = lrows.row((i - 1) & 1);
      V* const row = lrows.row(i & 1);

      // Column 0 (edge: no W/NW) per lane, mirrored into the lane row.
      for (std::size_t s = 0; s < S; ++s) edge(s, i, 0, row);
      for (std::size_t s = S; s < width; ++s) row[s] = row[0];

      // Shared interior in lockstep, in column blocks: the kernel fills a
      // block of the lane row, and the transpose scatter
      // (lanes::lane_scatter) de-interleaves it into the per-lane rows
      // while it is still L1-resident (at width 8 a full 4K-column row is
      // ~32 KB per stream — prev, row, staged inputs, outputs — which
      // thrashes L1 if the kernel and the scatter each stream the whole
      // row). The W carry re-seeds from row[(j0-1)·width] at each block
      // boundary, so blocking does not change any computed value.
      Traits::fill_row(state, lp.data(), width, i);
      for (std::size_t s = 0; s < S; ++s) grows[s] = rows[s].row(i);
      constexpr std::size_t kColBlock = 256;
      for (std::size_t jb = 1; jb < jK; jb += kColBlock) {
        const std::size_t je = std::min(jK, jb + kColBlock);
        lanes::RowCtx<V> ctx;
        ctx.width = width;
        ctx.i = i;
        ctx.j0 = jb;
        ctx.j1 = je;
        ctx.prev = prev;
        ctx.row = row;
        Traits::run(state, ctx);
        // The transpose scatter is int32-only (the dispatched kernel
        // families); wider value types (e.g. the int64 synthetic MaxNw)
        // de-interleave with the plain loop.
        if constexpr (std::is_same_v<V, std::int32_t>) {
          scatter(row, width, jb, je, grows.data(), S);
        } else {
          for (std::size_t s = 0; s < S; ++s)
            for (std::size_t j = jb; j < je; ++j)
              grows[s][j] = row[j * width + s];
        }
      }

      // NE edge column: reads prev-row column min_cols from the lane's
      // own sink (final — last row's remainder wrote it).
      if (jK < min_cols) {
        const std::size_t j = min_cols - 1;
        for (std::size_t s = 0; s < S; ++s) edge(s, i, j, row);
        for (std::size_t s = S; s < width; ++s)
          row[j * width + s] = row[j * width];
      }

      // Per-lane column remainder — before the next row, whose NE edge
      // reads this remainder's first column — and the row is final.
      for (std::size_t s = 0; s < S; ++s) {
        const P& p = *probs[s];
        const std::size_t pc = p.cols();
        if (pc > min_cols)
          run_row(p, deps, bound, i, min_cols, pc, pc, rows[s].row(i - 1),
                  grows[s], batch_kernels);
        rows[s].done(i);
      }
    }

    // Lanes taller than min_rows retire from lockstep and finish solo.
    for (std::size_t s = 0; s < S; ++s)
      fill_rows(*probs[s], rows[s], min_rows, batch_kernels);

    st.width = width;
    st.lockstep_cells = S * (min_rows - 1) * (jK - 1);
  }

  if (stats_out) *stats_out = st;
}

/// Full-table cohort: one row-major grid per problem, in order.
template <LddpProblem P>
std::vector<Grid<typename P::Value>> solve_lane_cohort(
    const std::vector<const P*>& probs, bool batch_kernels,
    LaneExecStats* stats_out,
    const std::function<void(std::size_t)>& poll = {}) {
  using V = typename P::Value;
  std::vector<GridRows<V>> rows;
  rows.reserve(probs.size());
  for (const P* p : probs) rows.emplace_back(p->rows(), p->cols());
  run_lane_cohort(probs, rows, batch_kernels, stats_out, poll);
  std::vector<Grid<V>> tables;
  tables.reserve(rows.size());
  for (GridRows<V>& r : rows) tables.push_back(r.take());
  return tables;
}

}  // namespace lddp::detail
