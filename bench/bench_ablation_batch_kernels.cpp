// Ablation: batch-front (SIMD) cell kernels versus the scalar per-cell
// path. This bench measures *real wall-clock* — the batch kernels change
// how fast the host fills tables, not the simulated platform schedule
// (the cost model's vector-throughput term shifts simulated CPU speed,
// but that is a modelling knob, not the subject here).
//
// Three measurements, gated where noted (the process exits non-zero on
// failure so CI catches regressions):
//
//  1. Full-solve throughput: 4k x 4k Levenshtein and LCS through the
//     simulated-GPU path (anti-diagonal fronts — the SIMD sweet spot),
//     batch on vs off, best of 5. Gate: >= 2x cells/second.
//  2. Problems without a compute_front hook: 2k x 2k NW (anti-diagonal),
//     Floyd-Steinberg dither (knight-move) and column-min (Vertical, via
//     the transpose adapter), simulated-GPU mode, full tier, best of 5.
//     Batch on runs interior runs through the front runner's generic span
//     loop, batch off runs every cell through compute_cell. Gate: NW >=
//     1.25x cells/second. Full-tier dither and column-min are recorded
//     only: the first touch and drain of dither's 64 MiB result grid, and
//     column-min's transposes, take most of their time whichever path
//     computes the cells. Dither is gated (>= 1.25x) on the frontier tier,
//     which keeps no result grid.
//  3. Front-length sweep: run_front_range over one packed anti-diagonal
//     front at L in {16, 64, 256, ..., 4096}. Gate: at L >= 256 the batch
//     path is never slower than 1.10x the scalar path (below that the
//     kMinBatchRun heuristic and span setup make the comparison noise).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/front_runner.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/column_min.h"
#include "problems/floyd_steinberg.h"
#include "problems/image.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"
#include "tables/layout.h"
#include "util/rng.h"

namespace {

using namespace lddp;
using Clock = std::chrono::steady_clock;

std::string random_dna(std::size_t n, std::uint64_t seed) {
  static constexpr char kAlpha[] = {'A', 'C', 'G', 'T'};
  std::string s(n, 'A');
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = kAlpha[rng.uniform_int(0, 3)];
  return s;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int failures = 0;

/// Best-of-5 full solves; returns wall-clock cells/second. A shared
/// BufferPool gives steady-state allocation behaviour (the batch engine's
/// serving regime) to both variants alike.
template <typename P>
double full_solve_cells_per_sec(const P& p, bool batch, bool frontier,
                                sim::BufferPool* buffers) {
  RunConfig cfg;
  cfg.mode = Mode::kGpu;  // anti-diagonal wavefronts, untiled
  cfg.tile = 0;
  cfg.batch_kernels = batch;
  cfg.buffer_pool = buffers;
  cfg.storage = Storage::kFrontier;  // read by solve_frontier only
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const SolveStats stats =
        frontier ? solve_frontier(p, cfg).stats : solve(p, cfg).stats;
    if (stats.real_seconds <= 0.0) continue;
    best = std::max(
        best, static_cast<double>(stats.cells) / stats.real_seconds);
  }
  return best;
}

/// Batch on vs off over full solves of `p` (full tier, or the frontier
/// tier when `frontier` is set); records both wall rows under `size` and
/// fails the run when the speedup is below `gate` (0 records only).
template <typename P>
void full_solve_ablation(const char* name, std::size_t size, const P& p,
                         double gate, lddp::bench::JsonWriter& json,
                         bool frontier = false) {
  sim::BufferPool buffers;
  const double off = full_solve_cells_per_sec(p, false, frontier, &buffers);
  const double on = full_solve_cells_per_sec(p, true, frontier, &buffers);
  const double speedup = off > 0.0 ? on / off : 0.0;
  std::printf("%-16s %6zu | off %10.1f Mcell/s | on %10.1f Mcell/s | %.2fx\n",
              name, size, off / 1e6, on / 1e6, speedup);
  json.record_wall(std::string(name) + "/off", size,
                   1e3 * p.rows() * p.cols() / off, off);
  json.record_wall(std::string(name) + "/on", size,
                   1e3 * p.rows() * p.cols() / on, on);
  if (speedup < gate) {
    std::fprintf(stderr,
                 "GATE FAIL: %s full-solve batch speedup %.2fx < %.2fx\n",
                 name, speedup, gate);
    ++failures;
  }
}

/// Times run_front_range over the longest anti-diagonal front of an
/// (L+1) x (L+1) Levenshtein table stored in wavefront-major device
/// order — the kernel inner loop with everything else stripped away.
/// Returns nanoseconds per cell (best of 3).
double front_ns_per_cell(const problems::LevenshteinProblem& p,
                         const AntiDiagonalLayout& layout, std::size_t d,
                         std::vector<std::int32_t>& storage, bool batch) {
  std::int32_t* const data = storage.data();
  const ContributingSet deps = p.deps();
  const auto bound = p.boundary();
  auto addr = [&](std::size_t i, std::size_t j) {
    return data + layout.flat(i, j);
  };
  const std::size_t fs = layout.front_size(d);
  const std::size_t reps = std::max<std::size_t>(1, (1u << 22) / fs);
  double best = 1e100;
  for (int trial = 0; trial < 3; ++trial) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r)
      detail::run_front_range(p, deps, bound, layout, d, 0, fs, addr, batch);
    best = std::min(best, seconds_since(t0));
  }
  return best * 1e9 / (static_cast<double>(reps) * fs);
}

void front_sweep(lddp::bench::JsonWriter& json) {
  std::printf("\n=== Front-length sweep: run_front_range, anti-diagonal "
              "Levenshtein (ns/cell, best of 3) ===\n");
  std::printf("%8s %12s %12s %9s\n", "L", "scalar", "batch", "ratio");
  for (const std::size_t L : {16u, 64u, 256u, 512u, 1024u, 2048u, 4096u}) {
    problems::LevenshteinProblem p(random_dna(L, 11), random_dna(L, 13));
    const AntiDiagonalLayout layout(p.rows(), p.cols());
    std::vector<std::int32_t> storage(layout.size(), 0);
    // Fill fronts 0..d-1 so the measured front reads settled neighbours.
    const std::size_t d = L;  // the longest diagonal: length L + 1
    const auto deps = p.deps();
    const auto bound = p.boundary();
    auto addr = [&](std::size_t i, std::size_t j) {
      return storage.data() + layout.flat(i, j);
    };
    for (std::size_t f = 0; f < d; ++f)
      detail::run_front_range(p, deps, bound, layout, f, 0,
                              layout.front_size(f), addr, false);
    const double scalar = front_ns_per_cell(p, layout, d, storage, false);
    const double batch = front_ns_per_cell(p, layout, d, storage, true);
    const double ratio = batch / scalar;
    std::printf("%8zu %12.3f %12.3f %8.2fx\n", L, scalar, batch,
                scalar / batch);
    json.record_wall("front_sweep/scalar", L, scalar);
    json.record_wall("front_sweep/batch", L, batch);
    if (L >= 256 && ratio > 1.10) {
      std::fprintf(stderr,
                   "GATE FAIL: L=%zu batch path %.2fx slower than scalar "
                   "(limit 1.10x)\n",
                   L, ratio);
      ++failures;
    }
  }
}

}  // namespace

int main() {
  lddp::bench::JsonWriter json("ablation_batch_kernels");

  std::printf("=== Full-solve wall-clock throughput (simulated-GPU mode, "
              "best of 5) ===\n");
  constexpr std::size_t kN = 4096;
  full_solve_ablation("levenshtein", kN,
                      problems::LevenshteinProblem(random_dna(kN, 1),
                                                   random_dna(kN, 2)),
                      2.0, json);
  full_solve_ablation(
      "lcs", kN, problems::LcsProblem(random_dna(kN, 3), random_dna(kN, 4)),
      2.0, json);

  std::printf("\n=== Hook-less problems: generic span loop vs per-cell path "
              "(simulated-GPU mode, best of 5) ===\n");
  constexpr std::size_t kM = 2048;
  full_solve_ablation("nw", kM,
                      problems::NeedlemanWunschProblem(random_dna(kM, 5),
                                                       random_dna(kM, 6)),
                      1.25, json);
  const problems::FloydSteinbergProblem dither(
      problems::noise_image(kM, kM, 7));
  full_solve_ablation("dither", kM, dither, 0.0, json);
  full_solve_ablation("dither_frontier", kM, dither, 1.25, json,
                      /*frontier=*/true);
  full_solve_ablation(
      "columnmin", kM,
      problems::ColumnMinPathProblem(problems::random_cost_board(kM, kM, 8)),
      0.0, json);

  front_sweep(json);
  json.save();

  if (failures > 0) {
    std::fprintf(stderr, "%d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
