// Inter-solve SIMD lane packing: cohorts of same-class batched solves run
// in vector lockstep, one lane per solve. These tests pin the contract —
// lane-packed tables are bit-identical to solo serial solves across every
// contributing set, ragged and degenerate shapes, cohort sizes, and ISA
// dispatch tiers — and check cohort formation, eligibility gating, and the
// BatchReport lane counters. The cohort tests also run on the frontier
// storage tier (submit_frontier), where each lane keeps only checkpoint
// rows, at checkpoint intervals K = 1, 3 and K >= rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/framework.h"
#include "core/lane_kernels.h"
#include "core/pattern.h"
#include "problems/checkerboard.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"
#include "problems/max_square.h"
#include "problems/seam_carving.h"
#include "problems/synthetic.h"
#include "util/rng.h"

namespace lddp {
namespace {

std::string rand_str(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, 'a');
  for (auto& c : s) c = static_cast<char>('a' + rng.uniform_int(0, 3));
  return s;
}

BatchConfig lane_config(long long lane_pack = -1, std::size_t workers = 0) {
  BatchConfig bc;
  bc.worker_threads = workers;
  bc.concurrency = 8;
  bc.queue_capacity = 64;
  bc.lane_pack = lane_pack;
  return bc;
}

enum class Tier { kFull, kFrontier };

/// Checkpoint intervals the frontier-tier cohorts run at: every row, a
/// small band, and one band covering every table in these tests.
constexpr std::size_t kFrontierKs[] = {1, 3, 4096};

RunConfig serial_config(Tier tier, std::size_t k) {
  RunConfig rc;
  rc.mode = Mode::kCpuSerial;
  if (tier == Tier::kFrontier) {
    rc.storage = Storage::kFrontier;
    rc.checkpoint_interval = k;
  }
  return rc;
}

template <typename P>
BatchReport run_batch(const std::vector<P>& probs, long long lane_pack,
                      std::size_t workers, Tier tier, std::size_t k,
                      std::vector<FrontierSolveResult<P>>* frontier_out,
                      std::vector<SolveResult<P>>* full_out) {
  BatchEngine engine(lane_config(lane_pack, workers));
  std::vector<std::future<SolveResult<P>>> full;
  std::vector<std::future<FrontierSolveResult<P>>> frontier;
  for (const P& p : probs) {
    if (tier == Tier::kFull) {
      auto f = engine.submit(P(p), serial_config(tier, k));
      EXPECT_TRUE(f.has_value());
      full.push_back(std::move(*f));
    } else {
      auto f = engine.submit_frontier(P(p), serial_config(tier, k));
      EXPECT_TRUE(f.has_value());
      frontier.push_back(std::move(*f));
    }
  }
  const BatchReport rep = engine.wait();
  for (auto& f : full) full_out->push_back(f.get());
  for (auto& f : frontier) frontier_out->push_back(f.get());
  return rep;
}

/// Submits every problem as a serial-CPU request on `tier`, drains the
/// batch, and checks each result against the solo solver. Full tier:
/// every cell, bit for bit. Frontier tier (checkpoint interval k): every
/// checkpoint row, the last row and one rematerialized interior read
/// against a solo solve_frontier, and each lane job's recorded schedule
/// against a solo serial scan's — the same solo stats, and the same
/// merged start and end as in a batch with lane packing off, where every
/// request runs the serial engine alone. Returns the report for counter
/// assertions.
template <typename P>
BatchReport expect_lane_identical(const std::vector<P>& probs,
                                  long long lane_pack = -1,
                                  std::size_t workers = 0,
                                  Tier tier = Tier::kFull,
                                  std::size_t k = 0) {
  std::vector<SolveResult<P>> full;
  std::vector<FrontierSolveResult<P>> frontier;
  const BatchReport rep =
      run_batch(probs, lane_pack, workers, tier, k, &frontier, &full);
  if (tier == Tier::kFull) {
    for (std::size_t s = 0; s < probs.size(); ++s)
      EXPECT_EQ(full[s].table, solve(probs[s], serial_config(tier, k)).table)
          << "lane " << s << " of " << probs.size() << " diverged";
    return rep;
  }
  std::vector<SolveResult<P>> unused;
  std::vector<FrontierSolveResult<P>> solo_batch;
  const BatchReport off = run_batch(probs, /*lane_pack=*/0, /*workers=*/0,
                                    tier, k, &solo_batch, &unused);
  for (std::size_t s = 0; s < probs.size(); ++s) {
    const std::string what = "lane " + std::to_string(s) + " of " +
                             std::to_string(probs.size()) +
                             " K=" + std::to_string(k);
    const P& p = probs[s];
    const auto want = solve_frontier(p, serial_config(tier, k));
    const auto& got = frontier[s];
    EXPECT_TRUE(got.table.frontier()) << what;
    // A lane sweeps rows in user orientation (a solo solve of a Vertical
    // set checkpoints the transposed table instead).
    EXPECT_EQ(got.stats.checkpoint_rows, (p.rows() - 1) / k + 1) << what;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < p.rows(); ++i) {
      if (i % k != 0 && i + 1 != p.rows()) continue;
      for (std::size_t j = 0; j < p.cols(); ++j)
        mismatches += got.table.at(i, j) != want.table.at(i, j);
    }
    EXPECT_EQ(mismatches, 0u) << what << ": checkpoint or last-row cells";
    if (const std::size_t i = p.rows() - 2; p.rows() > 2 && i % k != 0) {
      const std::size_t j = p.cols() / 2;
      EXPECT_EQ(got.table.at(i, j), want.table.at(i, j)) << what << " remat";
      EXPECT_GT(got.table.remat_stats().bands, 0u) << what;
    }
    const BatchItemStats& item = rep.items[s];
    const SolveStats& solo = want.stats;
    EXPECT_EQ(item.solve.mode_used, Mode::kCpuSerial) << what;
    EXPECT_EQ(item.solve.sim_seconds, solo.sim_seconds) << what;
    EXPECT_EQ(item.solve.cpu_busy_seconds, solo.cpu_busy_seconds) << what;
    EXPECT_EQ(item.solve.cells, solo.cells) << what;
    EXPECT_EQ(item.sim_start, off.items[s].sim_start) << what;
    EXPECT_EQ(item.sim_end, off.items[s].sim_end) << what;
  }
  EXPECT_EQ(rep.sim_makespan, off.sim_makespan);
  return rep;
}

/// expect_lane_identical on the full tier and on the frontier tier at
/// every interval of kFrontierKs.
template <typename P>
void expect_lane_identical_both_tiers(const std::vector<P>& probs) {
  expect_lane_identical(probs);
  for (std::size_t k : kFrontierKs)
    expect_lane_identical(probs, -1, 0, Tier::kFrontier, k);
}

// Every contributing set, cohort sizes 2/3/4/8, ragged shapes. Function
// problems carry no LaneTraits, so cohorts form in the engine but execute
// on the per-lane fallback — this pins the grouping/retire machinery
// independently of the vector kernels.
TEST(LanePacking, AllContributingSetsAllCohortSizes) {
  for (int set = 0; set < kNumContributingSets; ++set) {
    const ContributingSet deps = contributing_set_by_index(set);
    // Single call site so every cohort member shares one problem type (the
    // engine keys cohorts on the concrete type plus deps/shape/mode).
    const auto make = [deps](std::size_t rows, std::size_t cols) {
      return problems::make_function_problem(
          rows, cols, deps, std::int64_t{0},
          [deps](std::size_t i, std::size_t j,
                 const Neighbors<std::int64_t>& nb) {
            std::int64_t r = static_cast<std::int64_t>(i * 31 + j);
            if (deps.has_w()) r ^= nb.w;
            if (deps.has_nw()) r += nb.nw + 1;
            if (deps.has_n()) r ^= nb.n << 1;
            if (deps.has_ne()) r -= nb.ne;
            return r;
          });
    };
    for (std::size_t cohort : {2u, 3u, 4u, 8u}) {
      std::vector<decltype(make(1, 1))> probs;
      for (std::size_t k = 0; k < cohort; ++k)
        probs.push_back(make(18 + 3 * k, 27 - 2 * k));
      const BatchReport rep = expect_lane_identical(probs);
      EXPECT_EQ(rep.lane_eligible_solves, cohort)
          << "set " << set << " cohort " << cohort;
      for (std::size_t k : kFrontierKs) {
        const BatchReport frep =
            expect_lane_identical(probs, -1, 0, Tier::kFrontier, k);
        EXPECT_EQ(frep.lane_eligible_solves, cohort)
            << "frontier set " << set << " cohort " << cohort << " K=" << k;
      }
    }
  }
}

// The vector-kernel problem families, ragged cohorts: same shape bucket,
// distinct sides, so shorter lanes retire early and per-lane remainders
// finish rows and trailing columns.
TEST(LanePacking, KernelFamiliesRaggedBitIdentical) {
  {
    std::vector<problems::LevenshteinProblem> v;
    for (std::size_t k = 0; k < 8; ++k)
      v.emplace_back(rand_str(60 + 5 * k, 2 * k + 1),
                     rand_str(90 - 4 * k, 2 * k + 2));
    expect_lane_identical_both_tiers(v);
  }
  {
    std::vector<problems::LcsProblem> v;
    for (std::size_t k = 0; k < 8; ++k)
      v.emplace_back(rand_str(45 + k, 30 + k), rand_str(70 - 3 * k, 40 + k));
    expect_lane_identical_both_tiers(v);
  }
  {
    std::vector<problems::CheckerboardProblem> v;
    v.emplace_back(problems::random_cost_board(24, 31, 1));
    v.emplace_back(problems::random_cost_board(31, 24, 2));
    v.emplace_back(problems::random_cost_board(27, 27, 3));
    expect_lane_identical_both_tiers(v);
  }
  {
    std::vector<problems::SeamCarveProblem> v;
    v.emplace_back(problems::random_input_grid(20, 26, 4, 0, 255));
    v.emplace_back(problems::random_input_grid(26, 20, 5, 0, 255));
    v.emplace_back(problems::random_input_grid(23, 23, 6, 0, 255));
    v.emplace_back(problems::random_input_grid(21, 25, 7, 0, 255));
    expect_lane_identical_both_tiers(v);
  }
  {
    std::vector<problems::MaxSquareProblem> v;
    for (std::size_t k = 0; k < 8; ++k)
      v.emplace_back(problems::random_bit_grid(25 + k, 35 - k, 10 + k));
    expect_lane_identical_both_tiers(v);
  }
  {
    std::vector<problems::MinNwNProblem> v;
    v.emplace_back(29, 35, 3);
    v.emplace_back(35, 29, 5);
    v.emplace_back(31, 31, 7);
    expect_lane_identical_both_tiers(v);
  }
  {
    std::vector<problems::MaxNwProblem> v;
    v.emplace_back(problems::random_input_grid(22, 24, 8), 2);
    v.emplace_back(problems::random_input_grid(24, 22, 9), 4);
    expect_lane_identical_both_tiers(v);
  }
}

// Larger ragged cohort in one shape bucket (rows/cols in [257, 511]):
// lanes retire across many rows, and the lockstep region is bounded by the
// smallest table while the longest keeps running per-lane.
TEST(LanePacking, EarlyRetiringLanesSameBucket) {
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 8; ++k)
    v.emplace_back(rand_str(257 + 28 * k, 70 + k),
                   rand_str(480 - 25 * k, 80 + k));
  expect_lane_identical_both_tiers(v);
}

// Degenerate shapes (single-row, single-column, 2x2 tables) fail the
// lockstep minimums and must fall back per-lane, still bit-identical.
TEST(LanePacking, DegenerateShapesFallBack) {
  {
    std::vector<problems::LevenshteinProblem> v;
    v.emplace_back(rand_str(1, 1), rand_str(40, 2));
    v.emplace_back(rand_str(40, 3), rand_str(1, 4));
    v.emplace_back(rand_str(1, 5), rand_str(1, 6));
    expect_lane_identical(v);
  }
  {
    std::vector<problems::LcsProblem> v;
    v.emplace_back(rand_str(1, 7), rand_str(30, 8));
    v.emplace_back(rand_str(30, 9), rand_str(1, 10));
    expect_lane_identical(v);
  }
}

// Forcing the baseline tier must drop dispatch off the AVX2 table and
// still produce identical results.
TEST(LanePacking, ForcedBaselineDispatch) {
  lanes::force_baseline_kernels(true);
  EXPECT_STRNE(lanes::active_isa(), "avx2");
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 8; ++k)
    v.emplace_back(rand_str(50 + k, 100 + k), rand_str(64 - k, 200 + k));
  expect_lane_identical(v);
  lanes::force_baseline_kernels(false);
  EXPECT_GE(lanes::preferred_lane_width(), 4u);
}

// lane_pack = 0 disables the path entirely: nothing is even eligible.
TEST(LanePacking, LanePackOffDisablesEligibility) {
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 4; ++k)
    v.emplace_back(rand_str(40 + k, k), rand_str(40 + k, k + 50));
  const BatchReport rep = expect_lane_identical(v, /*lane_pack=*/0);
  EXPECT_EQ(rep.lane_eligible_solves, 0u);
  EXPECT_EQ(rep.lane_packed_solves, 0u);
  EXPECT_EQ(rep.lane_cohorts, 0u);
}

// lane_pack = N caps cohort width: 10 identical-class jobs drained inline
// with a cap of 3 form cohorts 3+3+3+1 deterministically.
TEST(LanePacking, CohortCapAndReportCounters) {
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 10; ++k)
    v.emplace_back(rand_str(100 + k, 2 * k), rand_str(120 - k, 2 * k + 1));
  const BatchReport rep = expect_lane_identical(v, /*lane_pack=*/3);
  EXPECT_EQ(rep.lane_eligible_solves, 10u);
  EXPECT_EQ(rep.lane_packed_solves, 9u);
  EXPECT_EQ(rep.lane_cohorts, 3u);
  EXPECT_NEAR(rep.lane_hit_rate, 0.9, 1e-12);
  EXPECT_GT(rep.lane_occupancy, 0.0);
  EXPECT_LE(rep.lane_occupancy, 1.0);
}

// Large tables and non-CPU modes are not lane-eligible.
TEST(LanePacking, EligibilityRespectsModeAndCells) {
  {
    // 1501x1501 > the lane cell ceiling.
    std::vector<problems::LevenshteinProblem> v;
    v.emplace_back(rand_str(1500, 1), rand_str(1500, 2));
    v.emplace_back(rand_str(1500, 3), rand_str(1500, 4));
    const BatchReport rep = expect_lane_identical(v);
    EXPECT_EQ(rep.lane_eligible_solves, 0u);
  }
  {
    BatchEngine engine(lane_config());
    RunConfig rc;
    rc.mode = Mode::kGpu;
    auto f = engine.submit(
        problems::LevenshteinProblem(rand_str(64, 1), rand_str(64, 2)), rc);
    ASSERT_TRUE(f.has_value());
    const BatchReport rep = engine.wait();
    f->get();
    EXPECT_EQ(rep.lane_eligible_solves, 0u);
  }
}

// Worker threads racing over the queue (the TSan target): cohorts form
// nondeterministically but results and recorded sim times must not change
// — the lane path prices every eligible solve as the same serial scan
// regardless of cohort size, so the makespan matches the lane-off run.
TEST(LanePacking, ConcurrentWorkersDeterministicTimeline) {
  std::vector<problems::LevenshteinProblem> v;
  for (std::size_t k = 0; k < 12; ++k)
    v.emplace_back(rand_str(80 + k, 3 * k), rand_str(96 - k, 3 * k + 1));
  const BatchReport packed =
      expect_lane_identical(v, /*lane_pack=*/-1, /*workers=*/2);
  const BatchReport off =
      expect_lane_identical(v, /*lane_pack=*/0, /*workers=*/0);
  EXPECT_LE(packed.lane_packed_solves, packed.lane_eligible_solves);
  EXPECT_GE(packed.lane_hit_rate, 0.0);
  EXPECT_LE(packed.lane_hit_rate, 1.0);
  EXPECT_NEAR(packed.sim_makespan, off.sim_makespan,
              1e-12 + off.sim_makespan * 1e-9);
}

}  // namespace
}  // namespace lddp
