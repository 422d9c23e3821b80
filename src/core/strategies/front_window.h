// Table storage as a sink the engines are templated on.
//
// Every untiled engine computes its wavefronts into a ring of front slots.
// A slot holds one front contiguously in the layout's within-front order,
// so a front's reads and writes are stride-one (the paper's
// wavefront-contiguous storage, Section IV-B) and the live fronts stay
// cache-resident. Where finished cells go is a layout decision, not a
// different algorithm, so it lives here and nowhere else:
//
//   * front sinks (cpu-parallel, gpu): GridDrain drains every retired
//     front into the row-major result grid (full tier); FrontierHarvest
//     copies each retired front's checkpoint-row and last-row cells into
//     a FrontierTable (frontier tier).
//   * row sinks (serial scan, lane cohorts): GridRows hands out the grid's
//     rows; CheckpointRows hands out a checkpoint row, the last row or one
//     of two rolling rows.
//
// Both kinds expose the same surface: addr(i, j) or row(i) for where a
// cell lives, retire(f) or done(i) when it is final, ring_size for the
// window the engine allocates (on the host or on the device), finish()
// for the storage stats and take() for the result. retire(f) returns the
// cells the engine must price as a halo download: 0 for the grid drain,
// which is host work and never priced, the harvested count for
// checkpoints. GridStorage and CheckpointStorage pick one sink of each
// kind for an engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/front_runner.h"
#include "core/run_config.h"
#include "cpu/thread_pool.h"
#include "tables/frontier.h"
#include "tables/grid.h"
#include "tables/layout.h"
#include "util/aligned.h"
#include "util/check.h"

namespace lddp::detail {

/// Rolling window over the last `w` fronts of a layout: front f lives in
/// slot f % w, slots `stride` elements apart. A per-front offset table
/// (slot base minus the front's lane origin) turns addr(i, j) into one
/// table load plus the cell's row or column index. addr is affine along
/// any FrontRun, so the SIMD batch-front machinery works on it unchanged,
/// and consecutive cells of a front are unit-stride.
template <typename V, typename Layout>
class FrontWindow {
 public:
  /// The largest front padded to 16 elements: on a 64-byte-aligned base
  /// every slot starts on a cache line.
  static std::size_t slot_stride(const Layout& L) {
    std::size_t fs = 0;
    for (std::size_t f = 0; f < L.num_fronts(); ++f)
      fs = std::max(fs, L.front_size(f));
    return (fs + 15) & ~std::size_t{15};
  }

  FrontWindow(const Layout& L, V* base, std::size_t w, std::size_t stride)
      : layout_(&L), base_(base), w_(w), stride_(stride),
        off_(L.num_fronts()) {
    for (std::size_t f = 0; f < off_.size(); ++f)
      off_[f] = static_cast<std::ptrdiff_t>((f % w) * stride) -
                lane_origin(L, f);
  }

  std::size_t fronts() const { return w_; }
  std::size_t stride() const { return stride_; }

  V* addr(std::size_t i, std::size_t j) const {
    const std::size_t f = layout_->front_of(i, j);
    return base_ + (off_[f] + lane(i, j, f));
  }

 private:
  // A cell's position within its front is lane(i, j) - lane_origin(f):
  // i - i_min on anti-diagonals, i_max - i on knight-move lines (which
  // enumerate i descending), j on rows, the flat offset otherwise.
  static std::ptrdiff_t lane_origin(const Layout& L, std::size_t f) {
    if constexpr (std::is_same_v<Layout, AntiDiagonalLayout>)
      return static_cast<std::ptrdiff_t>(L.i_min(f));
    else if constexpr (std::is_same_v<Layout, KnightMoveLayout>)
      return -static_cast<std::ptrdiff_t>(L.i_max(f));
    else
      return 0;
  }
  std::ptrdiff_t lane(std::size_t i, std::size_t j, std::size_t f) const {
    if constexpr (std::is_same_v<Layout, AntiDiagonalLayout>)
      return static_cast<std::ptrdiff_t>(i);
    else if constexpr (std::is_same_v<Layout, KnightMoveLayout>)
      return -static_cast<std::ptrdiff_t>(i);
    else if constexpr (std::is_same_v<Layout, RowMajorLayout>)
      return static_cast<std::ptrdiff_t>(j);
    else
      return static_cast<std::ptrdiff_t>(layout_->flat(i, j) -
                                         layout_->front_offset(f));
  }

  const Layout* layout_;
  V* base_;
  std::size_t w_;       ///< fronts retained
  std::size_t stride_;  ///< elements per front slot
  std::vector<std::ptrdiff_t> off_;
};

/// Full-tier storage of the untiled engines: they compute into a
/// FrontWindow ring of frontier_window_fronts + kBlock fronts, and every
/// kBlock retired fronts one blocked copy drains them into the row-major
/// grid. On anti-diagonal and knight-move layouts a block's cells in row
/// i form one contiguous segment, j in [f0 - a*i, f1 - a*i) with
/// front_of(i, j) = a*i + j, so the copy is a plain load and store per
/// cell; rows are split across the solve's executor. Row fronts need no
/// ring: the grid itself is the window. The drain is host work only and
/// is never priced.
template <typename V, typename Layout>
class GridDrain {
  static constexpr bool kRows = std::is_same_v<Layout, RowMajorLayout>;
  static constexpr bool kDiagonal =
      std::is_same_v<Layout, AntiDiagonalLayout> ||
      std::is_same_v<Layout, KnightMoveLayout>;

 public:
  /// Fronts per blocked copy.
  static constexpr std::size_t kBlock = 256;
  /// Target cells per executor morsel of a drain.
  static constexpr std::size_t kGrain = 16384;

  /// Ring elements the caller provides (0 for row fronts).
  static std::size_t ring_size(const Layout& L, ContributingSet deps) {
    if constexpr (kRows) {
      (void)L;
      (void)deps;
      return 0;
    } else {
      return ring_fronts(L, deps) * FrontWindow<V, Layout>::slot_stride(L);
    }
  }

  /// `ring` holds ring_size(L, deps) elements (contents irrelevant) and
  /// must outlive the drain; `pool` may be null (drain inline).
  GridDrain(const Layout& L, ContributingSet deps, V* ring,
            cpu::ThreadPool* pool)
      : layout_(&L),
        pool_(pool),
        grid_(Grid<V>::uninitialized(L.rows(), L.cols())),
        fw_(kRows ? FrontWindow<V, Layout>(L, grid_.data(), L.rows(),
                                           L.cols())
                  : FrontWindow<V, Layout>(
                        L, ring, ring_fronts(L, deps),
                        FrontWindow<V, Layout>::slot_stride(L))) {}

  GridDrain(const GridDrain&) = delete;
  GridDrain& operator=(const GridDrain&) = delete;

  V* addr(std::size_t i, std::size_t j) const { return fw_.addr(i, j); }

  /// Front f is final. Fronts retire in order; a full block, and the
  /// last front, trigger a drain. Nothing to price: returns 0.
  std::size_t retire(std::size_t f) {
    LDDP_DCHECK(f == next_);
    next_ = f + 1;
    if (next_ - block_ == kBlock || next_ == layout_->num_fronts()) {
      drain(block_, next_);
      block_ = next_;
    }
    return 0;
  }

  /// Grid plus ring: the solve's table-storage high-water.
  std::size_t peak_bytes() const {
    const std::size_t ring = kRows ? 0 : fw_.fronts() * fw_.stride();
    return (grid_.size() + ring) * sizeof(V);
  }
  void finish(SolveStats& stats) const {
    stats.peak_table_bytes = peak_bytes();
  }

  /// The filled grid; every front must have retired.
  Grid<V> take() {
    LDDP_DCHECK(drained_.load() == grid_.size());
    return std::move(grid_);
  }

 private:
  // The live window plus one block, so a block stays resident until it
  // drains; a table with fewer fronts never wraps.
  static std::size_t ring_fronts(const Layout& L, ContributingSet deps) {
    const std::size_t w = frontier_window_fronts(L, deps);
    LDDP_CHECK_MSG(w > 0, "layout/deps pair has no bounded front window");
    return std::min(w + kBlock, L.num_fronts());
  }

  void drain(std::size_t f0, std::size_t f1) {
    const std::size_t n = layout_->rows(), m = layout_->cols();
    if constexpr (kRows) {
      drained_ += (f1 - f0) * m;
    } else if constexpr (kDiagonal) {
      constexpr std::size_t a =
          std::is_same_v<Layout, AntiDiagonalLayout> ? 1 : 2;
      // Rows holding a cell of the block: f0 - m < a*i < f1.
      const std::size_t i_lo = f0 >= m ? (f0 - m) / a + 1 : 0;
      const std::size_t i_hi = std::min(n, (f1 + a - 1) / a);
      if (i_hi <= i_lo) return;
      // Item r*nb + u is row i_lo + r, front f0 + u; a morsel copies the
      // part of each row segment that falls in its item range.
      const std::size_t nb = f1 - f0;
      auto body = [&](std::size_t lo, std::size_t hi) {
        std::size_t cells = 0;
        for (std::size_t r = lo / nb; r * nb < hi; ++r) {
          const std::size_t i = i_lo + r;
          const std::size_t u0 = lo > r * nb ? lo - r * nb : 0;
          const std::size_t u1 = std::min(nb, hi - r * nb);
          // j = f0 + u - a*i, clipped to the row.
          const std::ptrdiff_t base =
              static_cast<std::ptrdiff_t>(f0) -
              static_cast<std::ptrdiff_t>(a * i);
          const std::size_t j0 = static_cast<std::size_t>(std::max<
              std::ptrdiff_t>(0, base + static_cast<std::ptrdiff_t>(u0)));
          const std::size_t j1 = static_cast<std::size_t>(std::clamp<
              std::ptrdiff_t>(base + static_cast<std::ptrdiff_t>(u1), 0,
                              static_cast<std::ptrdiff_t>(m)));
          if (j0 >= j1) continue;
          V* const dst = grid_.data() + i * m;
          for (std::size_t j = j0; j < j1; ++j) dst[j] = *fw_.addr(i, j);
          cells += j1 - j0;
        }
        drained_.fetch_add(cells, std::memory_order_relaxed);
      };
      const std::size_t items = (i_hi - i_lo) * nb;
      if (pool_ != nullptr)
        pool_->parallel_for_chunked(0, items, body, kGrain);
      else
        body(0, items);
    } else {
      // Other layouts (shells, columns): per-front scatter along runs.
      for (std::size_t f = f0; f < f1; ++f) {
        FrontRun runs[2];
        const std::size_t nr = front_runs(*layout_, f, runs);
        for (std::size_t r = 0; r < nr; ++r) {
          const FrontRun& run = runs[r];
          for (std::size_t k = 0; k < run.len; ++k) {
            const auto step = static_cast<std::ptrdiff_t>(k);
            const std::size_t i = run.i0 + static_cast<std::size_t>(
                                               step * run.di);
            const std::size_t j = run.j0 + static_cast<std::size_t>(
                                               step * run.dj);
            grid_.at(i, j) = *fw_.addr(i, j);
          }
          drained_ += run.len;
        }
      }
    }
  }

  const Layout* layout_;
  cpu::ThreadPool* pool_;
  Grid<V> grid_;
  FrontWindow<V, Layout> fw_;
  std::size_t next_ = 0;   ///< next front to retire
  std::size_t block_ = 0;  ///< first front of the undrained block
  std::atomic<std::size_t> drained_{0};
};

/// Copies front f's checkpoint-row and last-row cells out of the window
/// into the table's retained storage. Cost is O(front_size / K) via mod-K
/// lane stepping over the front's affine runs — not a per-cell scan.
/// Returns the number of cells harvested (for transfer pricing).
template <typename V, typename Layout, typename WindowAddr>
std::size_t harvest_front(FrontierTable<V>& t, const Layout& layout,
                          std::size_t f, std::size_t rows, std::size_t K,
                          const WindowAddr& addr) {
  FrontRun runs[2];
  const std::size_t nr = front_runs(layout, f, runs);
  std::size_t harvested = 0;
  auto store = [&](std::size_t i, std::size_t j) {
    const V v = *addr(i, j);
    if (i % K == 0) t.checkpoint_row(i)[j] = v;
    if (i == rows - 1) t.last_row()[j] = v;
    ++harvested;
  };
  for (std::size_t r = 0; r < nr; ++r) {
    const FrontRun& run = runs[r];
    if (run.len == 0) continue;
    if (run.di == 0) {
      const std::size_t i = run.i0;
      const bool ck = i % K == 0, last = i == rows - 1;
      if (!ck && !last) continue;
      if (run.dj == 1 && (ck || last)) {
        // Contiguous row segment: bulk copies into the retained rows.
        const V* src = addr(i, run.j0);
        if (ck) std::copy(src, src + run.len, t.checkpoint_row(i) + run.j0);
        if (last) std::copy(src, src + run.len, t.last_row() + run.j0);
        harvested += run.len;
      } else {
        for (std::size_t k = 0; k < run.len; ++k)
          store(i, run.j0 + static_cast<std::size_t>(
                                static_cast<std::ptrdiff_t>(k) * run.dj));
      }
      continue;
    }
    // di = +/-1: rows hitting the checkpoint grid are every K-th lane.
    const std::size_t k0 =
        run.di > 0 ? (K - run.i0 % K) % K : run.i0 % K;
    for (std::size_t k = k0; k < run.len; k += K) {
      const std::size_t i =
          run.i0 + static_cast<std::size_t>(
                       static_cast<std::ptrdiff_t>(k) * run.di);
      const std::size_t j =
          run.j0 + static_cast<std::size_t>(
                       static_cast<std::ptrdiff_t>(k) * run.dj);
      store(i, j);
    }
    // The last row rides along whatever lane reaches it.
    const std::ptrdiff_t kl =
        run.di > 0 ? static_cast<std::ptrdiff_t>(rows - 1) -
                         static_cast<std::ptrdiff_t>(run.i0)
                   : static_cast<std::ptrdiff_t>(run.i0) -
                         static_cast<std::ptrdiff_t>(rows - 1);
    if (kl >= 0 && kl < static_cast<std::ptrdiff_t>(run.len) &&
        (rows - 1) % K != 0) {  // % K == 0 lanes stored it already
      const std::size_t k = static_cast<std::size_t>(kl);
      store(run.i0 + static_cast<std::size_t>(
                         static_cast<std::ptrdiff_t>(k) * run.di),
            run.j0 + static_cast<std::size_t>(
                         static_cast<std::ptrdiff_t>(k) * run.dj));
    }
  }
  return harvested;
}

/// Fills the frontier-specific stats fields.
template <typename V>
void finish_frontier_stats(SolveStats& stats, const FrontierTable<V>& t,
                           std::size_t transient_bytes) {
  stats.peak_table_bytes = t.resident_bytes() + transient_bytes;
  stats.checkpoint_interval = t.checkpoint_interval();
  stats.checkpoint_rows = t.checkpoint_row_count();
}

/// Frontier-tier front sink: a FrontWindow of frontier_window_fronts
/// fronts, each retired front harvested into a checkpointed table.
template <typename V, typename Layout>
class FrontierHarvest {
 public:
  /// Window elements the caller provides.
  static std::size_t ring_size(const Layout& L, ContributingSet deps) {
    return window_fronts(L, deps) * FrontWindow<V, Layout>::slot_stride(L);
  }

  FrontierHarvest(const Layout& L, ContributingSet deps, V* ring,
                  std::size_t k)
      : layout_(&L),
        k_(k),
        table_(FrontierTable<V>::checkpointed(L.rows(), L.cols(), k)),
        fw_(L, ring, window_fronts(L, deps),
            FrontWindow<V, Layout>::slot_stride(L)) {}

  V* addr(std::size_t i, std::size_t j) const { return fw_.addr(i, j); }

  /// Front f is final: harvests it and returns the cells copied out.
  std::size_t retire(std::size_t f) {
    return harvest_front(
        table_, *layout_, f, layout_->rows(), k_,
        [this](std::size_t i, std::size_t j) { return fw_.addr(i, j); });
  }

  void finish(SolveStats& stats) const {
    finish_frontier_stats(stats, table_,
                          fw_.fronts() * fw_.stride() * sizeof(V));
  }
  FrontierTable<V> take() { return std::move(table_); }

 private:
  static std::size_t window_fronts(const Layout& L, ContributingSet deps) {
    const std::size_t w = frontier_window_fronts(L, deps);
    LDDP_CHECK_MSG(w > 0, "layout/deps pair has no bounded frontier window");
    return w;
  }

  const Layout* layout_;
  std::size_t k_;
  FrontierTable<V> table_;
  FrontWindow<V, Layout> fw_;
};

/// Full-tier row sink: the rows of a row-major grid. solve_canonical
/// reports the grid's bytes, so finish() has nothing to add.
template <typename V>
class GridRows {
 public:
  GridRows(std::size_t rows, std::size_t cols)
      : grid_(Grid<V>::uninitialized(rows, cols)) {}

  V* row(std::size_t i) { return grid_.data() + i * grid_.cols(); }
  void done(std::size_t) {}
  void finish(SolveStats&) const {}
  Grid<V> take() { return std::move(grid_); }

 private:
  Grid<V> grid_;
};

/// Frontier-tier row sink: rows on the checkpoint grid and the last row
/// are computed straight into the table's retained storage, every other
/// row into one of two rolling rows. Only rows i - 1 and i are ever live.
template <typename V>
class CheckpointRows {
 public:
  CheckpointRows(std::size_t rows, std::size_t cols, std::size_t k)
      : rows_(rows),
        cols_(cols),
        k_(k),
        table_(FrontierTable<V>::checkpointed(rows, cols, k)) {
    roll_.ensure(2 * cols);
  }

  V* row(std::size_t i) {
    if (i % k_ == 0) return table_.checkpoint_row(i);
    if (i == rows_ - 1) return table_.last_row();
    return roll_.data() + (i & 1) * cols_;
  }
  /// A last row that is also a checkpoint is copied into the last row.
  void done(std::size_t i) {
    if (i == rows_ - 1 && i % k_ == 0) {
      const V* const r = table_.checkpoint_row(i);
      std::copy(r, r + cols_, table_.last_row());
    }
  }
  void finish(SolveStats& stats) const {
    finish_frontier_stats(stats, table_, 2 * cols_ * sizeof(V));
  }
  FrontierTable<V> take() { return std::move(table_); }

 private:
  std::size_t rows_, cols_, k_;
  FrontierTable<V> table_;
  AlignedBuf<V> roll_;
};

/// Row-major sweep of rows [r0, p.rows()) into a row sink: the serial
/// reference scan (all four representative cells of every LDDP-Plus
/// contributing set lie up or left). Row r0 - 1, when r0 > 0, must
/// already be in the sink.
template <LddpProblem P, typename Rows>
void fill_rows(const P& p, Rows& rows, std::size_t r0, bool batch) {
  using V = typename P::Value;
  const std::size_t m = p.cols();
  const ContributingSet deps = p.deps();
  const V bound = p.boundary();
  for (std::size_t i = r0; i < p.rows(); ++i) {
    run_row(p, deps, bound, i, 0, m, m, i > 0 ? rows.row(i - 1) : nullptr,
            rows.row(i), batch);
    rows.done(i);
  }
}

/// Full-tier storage: GridDrain fronts (split across `pool`) and grid
/// rows; the engines return a Grid.
struct GridStorage {
  template <typename V, typename Layout>
  using Front = GridDrain<V, Layout>;

  template <typename V, typename Layout>
  GridDrain<V, Layout> front(const Layout& L, ContributingSet deps, V* ring,
                             cpu::ThreadPool* pool) const {
    return GridDrain<V, Layout>(L, deps, ring, pool);
  }
  template <typename V>
  GridRows<V> rows(std::size_t n, std::size_t m) const {
    return GridRows<V>(n, m);
  }
};

/// Frontier-tier storage: checkpoint rows every `k` rows plus the last
/// row; the engines return a FrontierTable without a remat callback.
struct CheckpointStorage {
  std::size_t k;

  template <typename V, typename Layout>
  using Front = FrontierHarvest<V, Layout>;

  template <typename V, typename Layout>
  FrontierHarvest<V, Layout> front(const Layout& L, ContributingSet deps,
                                   V* ring, cpu::ThreadPool*) const {
    return FrontierHarvest<V, Layout>(L, deps, ring, k);
  }
  template <typename V>
  CheckpointRows<V> rows(std::size_t n, std::size_t m) const {
    return CheckpointRows<V>(n, m, k);
  }
};

}  // namespace lddp::detail
