// Public entry point of the LDDP-Plus framework (Section V-C).
//
// A user supplies a problem — the function f, its contributing set, the
// boundary/initialization values — and calls solve(). The framework
// classifies the contributing set into a pattern (Table I), reduces
// Vertical / mirrored-Inverted-L to their canonical siblings by symmetry,
// picks the wavefront-contiguous layout and the execution strategy for the
// requested mode, and returns the filled table plus timing statistics.
//
//   LevenshteinProblem p(a, b);
//   auto [table, stats] = lddp::solve(p);   // heterogeneous by default
//   int distance = table.at(p.rows() - 1, p.cols() - 1);
#pragma once

#include <type_traits>

#include "core/adapters.h"
#include "core/pattern.h"
#include "core/problem.h"
#include "core/run_config.h"
#include "core/strategies/cpu_strategy.h"
#include "core/strategies/cpu_tiled.h"
#include "core/strategies/frontier_engine.h"
#include "core/strategies/gpu_strategy.h"
#include "core/strategies/gpu_tiled.h"
#include "core/strategies/hetero_antidiagonal.h"
#include "core/strategies/hetero_horizontal.h"
#include "core/strategies/hetero_invertedl.h"
#include "core/strategies/hetero_knightmove.h"
#include "core/strategies/hetero_tiled.h"
#include "sim/platform.h"

namespace lddp {

/// The filled DP table (row-major) and the run's measurements.
template <LddpProblem P>
struct SolveResult {
  Grid<typename P::Value> table;
  SolveStats stats;
};

/// Result of solve_frontier: the table is a FrontierTable — checkpoint
/// rows plus on-demand rematerialization on the frontier tier, a plain
/// grid facade on the full tier. Cell reads go through table.at(i, j)
/// (by value) in user orientation either way.
template <LddpProblem P>
struct FrontierSolveResult {
  FrontierTable<typename P::Value> table;
  SolveStats stats;
};

namespace detail {

/// Auto mode: small tables run on the multicore CPU (kernel-launch and
/// transfer overheads dominate them — the Section VI observation); large
/// tables use the heterogeneous split.
inline Mode resolve_auto(Mode mode, std::size_t cells) {
  if (mode != Mode::kAuto) return mode;
  constexpr std::size_t kHeteroThresholdCells = 512 * 512;
  return cells < kHeteroThresholdCells ? Mode::kCpuParallel
                                       : Mode::kHeterogeneous;
}

/// RunConfig::schedule resolution: kStealing swaps in the process-wide
/// shared executor; kAuto keeps cfg.pool verbatim (null runs inline).
inline cpu::ThreadPool* resolve_pool(const RunConfig& cfg) {
  return cfg.schedule == cpu::Schedule::kStealing
             ? &cpu::shared_stealing_pool()
             : cfg.pool;
}

/// RunConfig::tile resolution: 0 keeps the legacy untiled strategies, a
/// positive value is used as-is, -1 asks the heuristics for a model-based
/// default for this problem/platform.
template <LddpProblem P>
std::size_t resolve_tile(const P& p, const RunConfig& cfg) {
  if (cfg.tile == 0) return 0;
  if (cfg.tile > 0) return static_cast<std::size_t>(cfg.tile);
  const sim::KernelInfo info = kernel_info_for(p, "auto.tile");
  return default_tile(cfg.platform, info, p.rows(), p.cols(),
                      sizeof(typename P::Value), p.deps(),
                      cfg.fused_launches);
}

/// Mode x pattern dispatch of both storage tiers. `store` is GridStorage
/// (solve) or CheckpointStorage (solve_frontier); the serial, cpu-parallel
/// and gpu engines are the same for both. What has no front window runs a
/// full-table strategy, wrapped in the FrontierTable facade on the
/// frontier tier: the tiled strategies (full tier only — the frontier
/// tier runs kCpuTiled as cpu-parallel and ignores RunConfig::tile, the
/// window replacing tiling's locality role), Inverted-L unless the
/// frontier tier has a bounded shell window for it, and the Inverted-L
/// heterogeneous split. The other heterogeneous splits still have one
/// engine per tier. The frontier table comes back without a remat
/// callback or transform; the solve_frontier wrappers attach both.
template <LddpProblem P, typename Store>
auto solve_canonical(const P& p, Pattern pattern, const RunConfig& cfg,
                     const Store& store) {
  using V = typename P::Value;
  constexpr bool kFrontier = std::is_same_v<Store, CheckpointStorage>;
  std::conditional_t<kFrontier, FrontierSolveResult<P>, SolveResult<P>>
      result;
  sim::Platform platform(cfg.platform, detail::resolve_pool(cfg),
                         cfg.buffer_pool);
  // Lifecycle enforcement rides the Timeline: every strategy's recorded op
  // (CPU front, kernel, copy) passes through Timeline::record, so a single
  // install point gives cancellation/deadline checks at front granularity
  // across all execution layers without touching any strategy.
  platform.timeline().set_request_control(cfg.control);
  Mode mode = resolve_auto(cfg.mode, p.rows() * p.cols());
  if (kFrontier && mode == Mode::kCpuTiled) mode = Mode::kCpuParallel;
  const bool fused = cfg.fused_launches;
  const bool batch = cfg.batch_kernels;
  const std::size_t n = p.rows(), m = p.cols();
  SolveStats& stats = result.stats;
  auto full = [&](Grid<V> g) {
    if constexpr (kFrontier)
      result.table = FrontierTable<V>::full(std::move(g));
    else
      result.table = std::move(g);
  };
  const bool shell_window =
      kFrontier && frontier_window_fronts(ShellLayout(n, m), p.deps()) > 0;
  switch (mode) {
    case Mode::kCpuSerial:
      result.table = solve_cpu_serial(p, &platform, &stats, batch, store);
      break;

    case Mode::kCpuTiled:
      if constexpr (!kFrontier)
        full(solve_cpu_tiled(p, platform, cfg.cpu_tile, &stats, batch));
      break;

    case Mode::kCpuParallel:
      switch (pattern) {
        case Pattern::kAntiDiagonal:
          result.table = solve_cpu_parallel(
              p, AntiDiagonalLayout(n, m), platform, &stats,
              detail::kDiagonalCpuAmplification, batch, store);
          break;
        case Pattern::kHorizontal:
          result.table = solve_cpu_parallel(
              p, RowMajorLayout(n, m), platform, &stats,
              /*mem_amplification=*/1.0, batch, store);
          break;
        case Pattern::kKnightMove:
          result.table = solve_cpu_parallel(
              p, KnightMoveLayout(n, m), platform, &stats,
              detail::kDiagonalCpuAmplification, batch, store);
          break;
        case Pattern::kInvertedL:
          if constexpr (kFrontier) {
            if (shell_window) {
              result.table = solve_cpu_parallel(
                  p, ShellLayout(n, m), platform, &stats,
                  detail::kDiagonalCpuAmplification, batch, store);
              break;
            }
          }
          full(solve_cpu_invertedl(p, platform, &stats, batch));
          break;
        default:
          LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
      }
      break;

    case Mode::kGpu:
      if constexpr (!kFrontier) {
        if (const std::size_t tile = resolve_tile(p, cfg); tile > 0) {
          full(solve_gpu_tiled(p, platform, tile, &stats, fused, batch));
          break;
        }
      }
      switch (pattern) {
        case Pattern::kAntiDiagonal:
          result.table = solve_gpu(p, AntiDiagonalLayout(n, m), platform,
                                   &stats, fused, batch, store);
          break;
        case Pattern::kHorizontal:
          result.table = solve_gpu(p, RowMajorLayout(n, m), platform, &stats,
                                   fused, batch, store);
          break;
        case Pattern::kKnightMove:
          result.table = solve_gpu(p, KnightMoveLayout(n, m), platform,
                                   &stats, fused, batch, store);
          break;
        case Pattern::kInvertedL:
          if constexpr (kFrontier) {
            if (shell_window) {
              result.table = solve_gpu(p, ShellLayout(n, m), platform,
                                       &stats, fused, batch, store);
              break;
            }
          }
          full(solve_gpu_invertedl(p, platform, &stats, fused, batch));
          break;
        default:
          LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
      }
      break;

    case Mode::kHeterogeneous:
      if constexpr (kFrontier) {
        switch (pattern) {
          case Pattern::kAntiDiagonal:
            result.table = solve_frontier_hetero(
                p, AntiDiagonalLayout(n, m), pattern, platform, cfg.hetero,
                &stats, detail::kDiagonalCpuAmplification, fused, batch,
                store.k);
            break;
          case Pattern::kHorizontal:
            result.table = solve_frontier_hetero(
                p, RowMajorLayout(n, m), pattern, platform, cfg.hetero,
                &stats, /*mem_amplification=*/1.0, fused, batch, store.k);
            break;
          case Pattern::kKnightMove:
            result.table = solve_frontier_hetero(
                p, KnightMoveLayout(n, m), pattern, platform, cfg.hetero,
                &stats, detail::kDiagonalCpuAmplification, fused, batch,
                store.k);
            break;
          case Pattern::kInvertedL:
            // The L-shaped shell split has no strip decomposition over a
            // window; run the full-table heterogeneous strategy.
            full(solve_hetero_invertedl(p, platform, cfg.hetero, &stats,
                                        fused, batch));
            break;
          default:
            LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
        }
      } else {
        if (const std::size_t tile = resolve_tile(p, cfg); tile > 0) {
          full(solve_hetero_tiled(p, platform, cfg.hetero, tile, &stats,
                                  fused, batch));
          break;
        }
        switch (pattern) {
          case Pattern::kAntiDiagonal:
            full(solve_hetero_antidiagonal(p, platform, cfg.hetero, &stats,
                                           fused, batch));
            break;
          case Pattern::kHorizontal:
            full(solve_hetero_horizontal(p, platform, cfg.hetero, &stats,
                                         fused, batch));
            break;
          case Pattern::kKnightMove:
            full(solve_hetero_knightmove(p, platform, cfg.hetero, &stats,
                                         fused, batch));
            break;
          case Pattern::kInvertedL:
            full(solve_hetero_invertedl(p, platform, cfg.hetero, &stats,
                                        fused, batch));
            break;
          default:
            LDDP_CHECK_MSG(false, "non-canonical pattern reached dispatch");
        }
      }
      break;

    case Mode::kAuto:
      LDDP_CHECK_MSG(false, "unreachable: auto mode was resolved above");
  }
  // Table-storage high-water. The front-window engines report their own;
  // the full-table strategies hold the host grid, plus a full device copy
  // for the tiled and Inverted-L GPU/heterogeneous strategies.
  if (stats.peak_table_bytes == 0) {
    const bool device_copy =
        mode == Mode::kGpu || mode == Mode::kHeterogeneous;
    stats.peak_table_bytes = n * m * sizeof(V) * (device_copy ? 2 : 1);
  }
  if (!cfg.trace_path.empty())
    platform.timeline().export_chrome_trace(cfg.trace_path);
  // Detach the per-attempt control before copying the timeline out: the
  // recorded schedule outlives this attempt (batch replay, retries).
  platform.timeline().set_request_control(nullptr);
  if (cfg.record_timeline != nullptr)
    *cfg.record_timeline = platform.timeline();
  return result;
}

/// Shared body of the solve_frontier overloads. `holder` is a copyable
/// callable yielding the (caller-owned) problem; it is baked into the
/// table's rematerialization callback, so whatever it references must
/// outlive the returned table.
template <LddpProblem P, typename Holder>
FrontierSolveResult<P> solve_frontier_impl(const P& p, Holder holder,
                                           const RunConfig& cfg) {
  using V = typename P::Value;
  using Transform = typename FrontierTable<V>::Transform;
  LDDP_CHECK_MSG(p.rows() > 0 && p.cols() > 0,
                 "problem table must be non-empty");
  if (cfg.storage == Storage::kFull) {
    auto inner = solve(p, cfg);
    FrontierSolveResult<P> out;
    out.stats = inner.stats;
    out.table = FrontierTable<V>::full(std::move(inner.table));
    return out;
  }
  const Pattern pattern = classify(p.deps());
  // The checkpoint interval counts canonical rows.
  auto store = [&cfg](const auto& canon) {
    return CheckpointStorage{
        resolve_checkpoint_interval(cfg.checkpoint_interval, canon.rows())};
  };
  FrontierSolveResult<P> out;
  if (pattern == Pattern::kVertical) {
    // Horizontal on the transposed table; the undo is a coordinate view
    // on the facade (a frontier table cannot be transposed eagerly).
    TransposedProblem<P> t(p);
    auto inner = solve_canonical(t, Pattern::kHorizontal, cfg, store(t));
    out.table = std::move(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kVertical;
    if (out.table.frontier())
      attach_row_remat(
          out.table,
          [holder]() { return TransposedProblem<P>(holder()); },
          cfg.batch_kernels);
    out.table.set_transform(Transform::kTransposed);
    return out;
  }
  if (pattern == Pattern::kMirroredInvertedL) {
    MirroredProblem<P> mp(p);
    auto inner = solve_canonical(mp, Pattern::kInvertedL, cfg, store(mp));
    out.table = std::move(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kMirroredInvertedL;
    if (out.table.frontier())
      attach_row_remat(out.table,
                       [holder]() { return MirroredProblem<P>(holder()); },
                       cfg.batch_kernels);
    out.table.set_transform(Transform::kMirrored);
    return out;
  }
  auto inner = solve_canonical(p, pattern, cfg, store(p));
  out.table = std::move(inner.table);
  out.stats = inner.stats;
  if (out.table.frontier())
    attach_row_remat(out.table, holder, cfg.batch_kernels);
  return out;
}

}  // namespace detail

/// Solves the problem with the configured platform and mode. Thread-safe
/// for distinct problem/config objects; one call uses one simulated
/// platform instance.
template <LddpProblem P>
SolveResult<P> solve(const P& p, const RunConfig& cfg = RunConfig{}) {
  LDDP_CHECK_MSG(p.rows() > 0 && p.cols() > 0,
                 "problem table must be non-empty");
  const Pattern pattern = classify(p.deps());

  if (pattern == Pattern::kVertical) {
    // Horizontal on the transposed table (Section III symmetry).
    TransposedProblem<P> t(p);
    auto inner = detail::solve_canonical(t, Pattern::kHorizontal, cfg,
                                         detail::GridStorage{});
    SolveResult<P> out;
    out.table = transpose_grid(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kVertical;
    return out;
  }
  if (pattern == Pattern::kMirroredInvertedL) {
    // Inverted-L on the mirrored table.
    MirroredProblem<P> mp(p);
    auto inner = detail::solve_canonical(mp, Pattern::kInvertedL, cfg,
                                         detail::GridStorage{});
    SolveResult<P> out;
    out.table = mirror_grid(inner.table);
    out.stats = inner.stats;
    out.stats.pattern = Pattern::kMirroredInvertedL;
    return out;
  }
  return detail::solve_canonical(p, pattern, cfg, detail::GridStorage{});
}

/// Solves the problem on the storage tier selected by cfg.storage:
/// kFrontier (and kAuto) keeps only checkpoint rows plus the live front
/// window during the sweep — O(rows/K * cols) retained instead of
/// O(rows * cols) — and serves interior reads through checkpointed
/// rematerialization; kFull wraps the ordinary solve() in the same
/// facade. Final values and every traceback are bit-identical across
/// tiers. The problem must outlive the returned table (its
/// rematerialization callback re-runs p's recurrence); use the
/// shared_ptr overload to have the table share ownership instead.
template <LddpProblem P>
FrontierSolveResult<P> solve_frontier(const P& p,
                                      const RunConfig& cfg = RunConfig{}) {
  return detail::solve_frontier_impl(
      p, [pp = &p]() -> const P& { return *pp; }, cfg);
}

/// Ownership-sharing overload: the returned table keeps the problem
/// alive for as long as it may rematerialize (the batch engine uses this
/// so tables can outlive their jobs).
template <LddpProblem P>
FrontierSolveResult<P> solve_frontier(std::shared_ptr<const P> sp,
                                      const RunConfig& cfg = RunConfig{}) {
  LDDP_CHECK(sp != nullptr);
  const P& ref = *sp;
  auto out = detail::solve_frontier_impl(
      ref, [sp]() -> const P& { return *sp; }, cfg);
  out.table.keep_alive(std::move(sp));
  return out;
}

}  // namespace lddp
