// Ablation: the work-stealing executor versus inline execution and versus
// per-solve private pools. This bench measures *real wall-clock* — the
// executor changes how fast the host retires fronts, never the simulated
// schedule (results and recorded timelines are bit-identical by contract;
// tests/test_stealing_executor.cpp holds that line).
//
// Three measurements; (b) and (c) are gated (nonzero exit on regression
// so the perf-smoke CI job catches it):
//
//  (a) Ragged solo solves: anti-diagonal Levenshtein 1k..8k in
//      Mode::kCpuParallel, inline (no pool) vs the shared stealing
//      executor. Recorded, not gated — front lengths grow 1..n..1, so
//      the share of fronts crossing the parallel-dispatch threshold (and
//      with it the executor's influence) rises with n.
//  (b) Mixed-size batch of 16 (four 1024x4096 wide + twelve 256), 4
//      slots x 4 threads per solve: a private-pool baseline built here —
//      4 plain std::thread slots draining the batch, each slot with its
//      own cpu::ThreadPool(4), 16 host threads in all — vs the batch
//      engine's ONE shared executor sized to the hardware. The big solves
//      use a horizontal-pattern synthetic (every front is 4096 cells
//      wide) so each front actually reaches the executor; 4k
//      *anti-diagonal* tables would cross the dispatch threshold on only
//      ~3 of 8k fronts and measure nothing. Both arms run every request
//      as its own solve (engine lane packing off). Gate: the shared
//      executor achieves >= 1.25x solves/second over private pools.
//      Arms run interleaved so host drift cannot pick the winner.
//  (c) Uniform small fronts: Levenshtein 1024 solo (every front below
//      the dispatch threshold). Gate: stealing is never worse than 1.05x
//      inline wall-clock — the executor must cost nothing when it is not
//      used.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "core/batch_engine.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"
#include "util/rng.h"

namespace {

using namespace lddp;

int failures = 0;

std::string random_dna(std::size_t n, std::uint64_t seed) {
  static constexpr char kAlpha[] = {'A', 'C', 'G', 'T'};
  std::string s(n, 'A');
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = kAlpha[rng.uniform_int(0, 3)];
  return s;
}

/// Horizontal-pattern synthetic (deps = {N}): every front is one full
/// `cols`-cell row, so a 4096-wide table dispatches every front to the
/// execution substrate under test.
auto make_wide_problem(std::size_t rows, std::size_t cols,
                       std::uint64_t salt) {
  return problems::make_function_problem<std::uint64_t>(
      rows, cols, ContributingSet({Dep::kN}), salt,
      [salt](std::size_t i, std::size_t j, const Neighbors<std::uint64_t>& nb) {
        return (salt + i * 1000003 + j * 10007) * 31 + nb.n;
      });
}

/// (a) Ragged solo solves, inline vs stealing executor.
void solo_ragged(lddp::bench::JsonWriter& json) {
  std::printf("=== (a) Ragged anti-diagonal solo solves, CPU parallel "
              "(wall ms, best of 2) ===\n");
  std::printf("%8s %12s %12s %9s\n", "n", "inline", "stealing", "ratio");
  sim::BufferPool buffers;
  for (const std::size_t n : {1024u, 2048u, 4096u, 8192u}) {
    const problems::LevenshteinProblem p(random_dna(n, 2 * n),
                                         random_dna(n, 2 * n + 1));
    RunConfig in;
    in.mode = Mode::kCpuParallel;
    in.buffer_pool = &buffers;
    const double wall_inline = lddp::bench::min_wall_seconds(
        [&] { solve(p, in); }, /*reps=*/2, /*warmup=*/1);

    RunConfig wk = in;
    wk.schedule = cpu::Schedule::kStealing;
    const double wall_steal = lddp::bench::min_wall_seconds(
        [&] { solve(p, wk); }, /*reps=*/2, /*warmup=*/1);

    std::printf("%8zu %12.3f %12.3f %8.2fx\n", n, wall_inline * 1e3,
                wall_steal * 1e3, wall_inline / wall_steal);
    json.record_wall("solo_ragged/inline", n, wall_inline * 1e3);
    json.record_wall("solo_ragged/stealing", n, wall_steal * 1e3);
  }
}

/// The (b) batch: four wide solves, then twelve small ones.
constexpr int kBigSolves = 4;
constexpr int kBatchSolves = 16;
constexpr int kSlots = 4;
constexpr std::size_t kThreadsPerSolve = 4;

// 1024x4096 = 4M cells: over detail::kLaneMaxCells, so even with lane
// packing on the big solves would take the per-solve path.
const auto& big_problem() {
  static const auto big = make_wide_problem(1024, 4096, 7);
  return big;
}

const problems::LevenshteinProblem& small_problem() {
  static const problems::LevenshteinProblem small(random_dna(256, 5),
                                                  random_dna(256, 6));
  return small;
}

double batch_cells() {
  return kBigSolves * static_cast<double>(big_problem().rows() *
                                          big_problem().cols()) +
         (kBatchSolves - kBigSolves) *
             static_cast<double>(small_problem().rows() *
                                 small_problem().cols());
}

/// Private-pool baseline: kSlots plain threads drain the batch in order,
/// each solving on its own kThreadsPerSolve-thread pool — kSlots x
/// kThreadsPerSolve host threads, oversubscribed whenever the machine has
/// fewer cores. Returns wall seconds for the batch.
double private_pools_once() {
  std::atomic<int> next{0};
  Stopwatch timer;
  std::vector<std::thread> slots;
  for (int s = 0; s < kSlots; ++s)
    slots.emplace_back([&next] {
      cpu::ThreadPool pool(kThreadsPerSolve);
      RunConfig rc;
      rc.mode = Mode::kCpuParallel;
      rc.pool = &pool;
      for (int k = next.fetch_add(1); k < kBatchSolves;
           k = next.fetch_add(1)) {
        if (k < kBigSolves)
          solve(big_problem(), rc);
        else
          solve(small_problem(), rc);
      }
    });
  for (auto& t : slots) t.join();
  return timer.seconds();
}

/// The same batch through the engine, whose kSlots slots share ONE
/// executor sized to min(hardware, slots x threads_per_solve). Returns
/// wall seconds for the batch.
double shared_executor_once() {
  Stopwatch timer;
  {
    BatchConfig bc;
    bc.pack_solves = false;
    bc.lane_pack = 0;
    bc.threads_per_solve = kThreadsPerSolve;
    bc.concurrency = kSlots;
    bc.worker_threads = kSlots;
    BatchEngine engine(bc);
    RunConfig rc;
    rc.mode = Mode::kCpuParallel;
    using Big = std::decay_t<decltype(big_problem())>;
    std::vector<std::future<SolveResult<Big>>> big_futs;
    std::vector<std::future<SolveResult<problems::LevenshteinProblem>>>
        small_futs;
    for (int k = 0; k < kBigSolves; ++k) {
      auto f = engine.submit(big_problem(), rc);
      if (f.has_value()) big_futs.push_back(std::move(*f));
    }
    for (int k = kBigSolves; k < kBatchSolves; ++k) {
      auto f = engine.submit(small_problem(), rc);
      if (f.has_value()) small_futs.push_back(std::move(*f));
    }
    engine.wait();
    for (auto& f : big_futs) f.get();
    for (auto& f : small_futs) f.get();
  }
  return timer.seconds();
}

/// (b) Mixed-size batch, gated >= 1.25x against private pools. The arms
/// are measured INTERLEAVED and each takes its best rep: host-level drift
/// across the run (frequency scaling, noisy neighbours, allocator state)
/// then biases both arms equally instead of whichever ran last.
void batch_mixed(lddp::bench::JsonWriter& json) {
  std::printf("\n=== (b) Mixed batch of 16 (four 1024x4096 wide + twelve "
              "256), %zu threads per solve, %d slots ===\n",
              kThreadsPerSolve, kSlots);
  constexpr int kReps = 4;
  double wall_pr = 1e300, wall_wk = 1e300;
  private_pools_once();  // warm both arms (and the problem tables)
  shared_executor_once();
  for (int rep = 0; rep < kReps; ++rep) {
    wall_pr = std::min(wall_pr, private_pools_once());
    wall_wk = std::min(wall_wk, shared_executor_once());
  }
  const double pr = kBatchSolves / wall_pr;
  const double wk = kBatchSolves / wall_wk;
  const double speedup = wk / pr;
  std::printf("private %8.2f solves/s | shared executor %8.2f solves/s | "
              "shared/private %.2fx\n",
              pr, wk, speedup);
  const double cells = batch_cells();
  json.record_wall("batch_mixed/private_pools", kBatchSolves, wall_pr * 1e3,
                   cells / wall_pr);
  json.record_wall("batch_mixed/stealing", kBatchSolves, wall_wk * 1e3,
                   cells / wall_wk);
  if (speedup < 1.25) {
    std::fprintf(stderr,
                 "GATE FAIL: mixed-batch stealing speedup %.2fx < 1.25x "
                 "over private pools\n",
                 speedup);
    ++failures;
  }
}

/// (c) Uniform small fronts, gated never-worse 1.05x.
void small_fronts_never_worse(lddp::bench::JsonWriter& json) {
  std::printf("\n=== (c) Uniform small fronts (Levenshtein 1024, every "
              "front below the dispatch threshold) ===\n");
  const problems::LevenshteinProblem p(random_dna(1024, 21),
                                       random_dna(1024, 22));
  sim::BufferPool buffers;
  RunConfig in;
  in.mode = Mode::kCpuParallel;
  in.buffer_pool = &buffers;
  const double wall_inline = lddp::bench::min_wall_seconds(
      [&] { solve(p, in); }, /*reps=*/5, /*warmup=*/2);

  RunConfig wk = in;
  wk.schedule = cpu::Schedule::kStealing;
  const double wall_steal = lddp::bench::min_wall_seconds(
      [&] { solve(p, wk); }, /*reps=*/5, /*warmup=*/2);

  const double ratio = wall_steal / wall_inline;
  std::printf("inline %.3f ms | stealing %.3f ms | ratio %.3f\n",
              wall_inline * 1e3, wall_steal * 1e3, ratio);
  json.record_wall("small_fronts/inline", 1024, wall_inline * 1e3);
  json.record_wall("small_fronts/stealing", 1024, wall_steal * 1e3);
  if (ratio > 1.05) {
    std::fprintf(stderr,
                 "GATE FAIL: stealing %.2fx slower than inline on small "
                 "fronts (limit 1.05x)\n",
                 ratio);
    ++failures;
  }
}

}  // namespace

int main() {
  lddp::bench::stabilize_allocator();
  lddp::bench::JsonWriter json("ablation_stealing");

  solo_ragged(json);
  batch_mixed(json);
  small_fronts_never_worse(json);
  json.save();

  if (failures > 0) {
    std::fprintf(stderr, "%d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
