// Full-tier simulated schedules are pinned: the engines compute into a
// rolling front window and drain it into the result grid, which is host
// work only, so every priced op — CPU fronts, kernels, transfers with
// their byte counts, waits and syncs — must stay exactly as recorded by
// the grid-walking engines these replaced. The constants below were
// captured from those engines; any drift in sim_seconds or in the op
// count of the recorded timeline is a pricing change, not a storage one.
//
// The frontier tier is pinned the same way through solve_frontier: both
// tiers run the same serial, cpu-parallel and gpu engines over a storage
// sink, so the op sequence of a frontier solve — including the pinned
// halo download the gpu engine records for every front that harvests
// checkpoint cells — must not move when the storage changes. Its pins
// also carry the table-storage figures (peak_table_bytes and the number
// of checkpoint rows) and the checkpoint interval K they were taken at.
// The frontier constants were captured at commit 4db5d03, where each tier
// still had its own copy of these engines.
//
// batch_kernels is off so the CPU pricing does not pick up the host's
// calibrated vector speedup (a per-machine measurement); the hook-less
// NW and SW pins hold with it on as well.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ios>
#include <string>

#include "core/framework.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/column_min.h"
#include "problems/floyd_steinberg.h"
#include "problems/image.h"
#include "problems/levenshtein.h"
#include "problems/synthetic.h"

namespace lddp {
namespace {

constexpr std::size_t kRows = 257, kCols = 263;

enum class Tier { kFull, kFrontier };

struct Pinned {
  Mode mode;
  double sim_seconds;
  std::size_t ops;
  // Frontier tier only: the requested checkpoint interval (0 asks the
  // model) and the storage figures the solve reports.
  std::size_t k = 0;
  std::size_t peak_table_bytes = 0;
  std::size_t checkpoint_rows = 0;
};

template <typename V>
bool same_value(const V& a, const V& b) {
  return a == b;
}
bool same_value(const problems::FsCell& a, const problems::FsCell& b) {
  return a.err == b.err && a.out == b.out;
}

/// `a` is a Grid or a FrontierTable (read through remat).
template <typename Table, typename V>
bool same_table(const Table& a, const Grid<V>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (!same_value(a.at(i, j), b.at(i, j))) return false;
  return true;
}

/// Solves `p` once per pin on the given tier and checks the recorded
/// schedule (and, on the frontier tier, the storage figures) against it;
/// every cell must match the serial full-table reference.
template <LddpProblem P, std::size_t N>
void expect_pinned(const std::string& name, const P& p,
                   const Pinned (&pins)[N], bool batch_kernels = false,
                   Tier tier = Tier::kFull) {
  const Grid<typename P::Value> ref = [&] {
    RunConfig cfg;
    cfg.mode = Mode::kCpuSerial;
    return solve(p, cfg).table;
  }();
  for (const Pinned& pin : pins) {
    RunConfig cfg;
    cfg.mode = pin.mode;
    cfg.batch_kernels = batch_kernels;
    sim::Timeline recorded;
    cfg.record_timeline = &recorded;
    std::string what = name + " " + to_string(pin.mode) +
                       (batch_kernels ? " batch" : " scalar");
    SolveStats stats;
    if (tier == Tier::kFull) {
      const auto r = solve(p, cfg);
      stats = r.stats;
      EXPECT_TRUE(same_table(r.table, ref)) << what;
    } else {
      cfg.storage = Storage::kFrontier;
      cfg.checkpoint_interval = pin.k;
      what += " frontier K=" + std::to_string(pin.k);
      const auto r = solve_frontier(p, cfg);
      stats = r.stats;
      EXPECT_EQ(stats.peak_table_bytes, pin.peak_table_bytes) << what;
      EXPECT_EQ(stats.checkpoint_rows, pin.checkpoint_rows) << what;
      EXPECT_TRUE(same_table(r.table, ref)) << what;
    }
    EXPECT_EQ(stats.sim_seconds, pin.sim_seconds)
        << what << ": " << std::hexfloat << stats.sim_seconds;
    EXPECT_EQ(recorded.op_count(), pin.ops) << what;
  }
}

TEST(FullTierSchedule, LevenshteinAntiDiagonal) {
  const problems::LevenshteinProblem p(
      problems::random_sequence(kRows - 1, 1),
      problems::random_sequence(kCols - 1, 2));
  expect_pinned("lev", p,
                {{Mode::kCpuParallel, 0x1.452e3a6c890f5p-12, 519},
                 {Mode::kGpu, 0x1.066658924e444p-10, 522},
                 {Mode::kHeterogeneous, 0x1.54f8771fc02cbp-12, 534}});
}

// NW and SW have no compute_front hook. Their interior fronts run through
// the front runner's generic span loop whenever batch kernels are on, but
// pricing keys on a real SIMD hook, so both settings must give the same
// schedule (and it cannot depend on the host's calibrated vector
// speedup). The constants were captured at commit 00cff56, where these
// problems still ran per cell.
constexpr Pinned kNwPins[] = {
    {Mode::kCpuParallel, 0x1.6fbf6afeeb2c3p-12, 519},
    {Mode::kGpu, 0x1.1bcb147d55e74p-10, 522},
    {Mode::kHeterogeneous, 0x1.7eba7bf18a857p-12, 534}};
constexpr Pinned kSwPins[] = {
    {Mode::kCpuParallel, 0x1.9a509b914d498p-12, 519},
    {Mode::kGpu, 0x1.1bcb147d55e74p-10, 522},
    {Mode::kHeterogeneous, 0x1.a87c80c354de8p-12, 534}};

TEST(FullTierSchedule, NeedlemanWunschAntiDiagonal) {
  const problems::NeedlemanWunschProblem p(
      problems::random_sequence(kRows - 1, 7),
      problems::random_sequence(kCols - 1, 8));
  expect_pinned("nw", p, kNwPins);
  expect_pinned("nw", p, kNwPins, /*batch_kernels=*/true);
}

TEST(FullTierSchedule, SmithWatermanAntiDiagonal) {
  const problems::SmithWatermanProblem p(
      problems::random_sequence(kRows - 1, 9),
      problems::random_sequence(kCols - 1, 10));
  expect_pinned("sw", p, kSwPins);
  expect_pinned("sw", p, kSwPins, /*batch_kernels=*/true);
}

TEST(FullTierSchedule, DitherKnightMove) {
  const problems::FloydSteinbergProblem p(
      problems::noise_image(kRows, kCols, 3));
  expect_pinned("dither", p,
                {{Mode::kCpuParallel, 0x1.a7bc94deaba15p-12, 775},
                 {Mode::kGpu, 0x1.90853bd0d59fep-10, 778},
                 {Mode::kHeterogeneous, 0x1.c34b7de77762ep-12, 781}});
}

TEST(FullTierSchedule, CheckerboardHorizontal) {
  const problems::CheckerboardProblem p(
      problems::random_cost_board(kRows, kCols, 4));
  expect_pinned("checkerboard", p,
                {{Mode::kCpuParallel, 0x1.0ce088b4f865ep-12, 257},
                 {Mode::kGpu, 0x1.32ae4b3ffef67p-11, 260},
                 {Mode::kHeterogeneous, 0x1.937d360675ed9p-10, 517}});
}

TEST(FullTierSchedule, MaxNwInvertedL) {
  const problems::MaxNwProblem p(problems::random_input_grid(kRows, kCols, 5),
                                 3);
  expect_pinned("maxnw", p,
                {{Mode::kCpuParallel, 0x1.c49eb0452c8ecp-13, 257},
                 {Mode::kGpu, 0x1.32d914b7d505cp-11, 260},
                 {Mode::kHeterogeneous, 0x1.7eb10628aa491p-12, 479}});
}

TEST(FullTierSchedule, ColumnMinVertical) {
  const problems::ColumnMinPathProblem p(
      problems::random_cost_board(kRows, kCols, 6));
  expect_pinned("columnmin", p,
                {{Mode::kCpuParallel, 0x1.c53fbff4ccf8p-13, 263},
                 {Mode::kGpu, 0x1.8e6619686794ap-11, 266},
                 {Mode::kHeterogeneous, 0x1.4e37e5a750abep-11, 792}});
}

// Table-storage high-water: the front-window engines hold the grid plus
// their ring (no ring on row fronts, where the grid is the window); only
// the strategies outside the window engines keep a second, full device
// copy on gpu/hetero.
TEST(FullTierSchedule, PeakTableBytes) {
  auto peak = [](const auto& p, Mode mode) {
    RunConfig cfg;
    cfg.mode = mode;
    return solve(p, cfg).stats.peak_table_bytes;
  };
  {
    const problems::LevenshteinProblem p(
        problems::random_sequence(kRows - 1, 1),
        problems::random_sequence(kCols - 1, 2));
    using V = problems::LevenshteinProblem::Value;
    const std::size_t expected =
        (kRows * kCols + detail::GridDrain<V, AntiDiagonalLayout>::ring_size(
                             AntiDiagonalLayout(kRows, kCols), p.deps())) *
        sizeof(V);
    for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous})
      EXPECT_EQ(peak(p, mode), expected) << to_string(mode);
    EXPECT_EQ(peak(p, Mode::kCpuSerial), kRows * kCols * sizeof(V));
  }
  {
    const problems::CheckerboardProblem p(
        problems::random_cost_board(kRows, kCols, 4));
    using V = problems::CheckerboardProblem::Value;
    for (Mode mode : {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous})
      EXPECT_EQ(peak(p, mode), kRows * kCols * sizeof(V)) << to_string(mode);
  }
  {
    const problems::MaxNwProblem p(
        problems::random_input_grid(kRows, kCols, 5), 3);
    using V = problems::MaxNwProblem::Value;
    EXPECT_EQ(peak(p, Mode::kCpuParallel), kRows * kCols * sizeof(V));
    for (Mode mode : {Mode::kGpu, Mode::kHeterogeneous})
      EXPECT_EQ(peak(p, mode), 2 * kRows * kCols * sizeof(V))
          << to_string(mode);
  }
}


// --- Frontier tier ------------------------------------------------------
//
// Serial, cpu-parallel, gpu and hetero at the model's default checkpoint
// interval and at K = 1 (every row is a checkpoint, so every front
// harvests and the gpu engine prices a halo download for each).

constexpr Pinned kLevFrontierPins[] = {
    {Mode::kCpuSerial, 0x1.2a05bff9fc29fp-12, 1, 0, 21040, 17},
    {Mode::kCpuParallel, 0x1.452e3a6c890f5p-12, 519, 0, 22200, 17},
    {Mode::kGpu, 0x1.3d9a2ce0a5201p-10, 1041, 0, 22200, 17},
    {Mode::kHeterogeneous, 0x1.417fe1fa860b6p-12, 537, 0, 22200, 17},
    {Mode::kCpuSerial, 0x1.2a05bff9fc29fp-12, 1, 1, 273520, 257},
    {Mode::kCpuParallel, 0x1.452e3a6c890f5p-12, 519, 1, 274680, 257},
    {Mode::kGpu, 0x1.48a21dc5d50fep-10, 1041, 1, 274680, 257},
    {Mode::kHeterogeneous, 0x1.417fe1fa860b6p-12, 537, 1, 274680, 257},
};
constexpr Pinned kDitherFrontierPins[] = {
    {Mode::kCpuSerial, 0x1.7f28211ec0642p-12, 1, 0, 84160, 17},
    {Mode::kCpuParallel, 0x1.a7bc94deaba15p-12, 775, 0, 84960, 17},
    {Mode::kGpu, 0x1.e4e9191dd024p-10, 1553, 0, 84960, 17},
    {Mode::kHeterogeneous, 0x1.a702da6bc9201p-12, 781, 0, 84960, 17},
    {Mode::kCpuSerial, 0x1.7f28211ec0642p-12, 1, 1, 1094080, 257},
    {Mode::kCpuParallel, 0x1.a7bc94deaba15p-12, 775, 1, 1094880, 257},
    {Mode::kGpu, 0x1.08846e5947f36p-9, 1553, 1, 1094880, 257},
    {Mode::kHeterogeneous, 0x1.a702da6bc9201p-12, 781, 1, 1094880, 257},
};
constexpr Pinned kCheckerboardFrontierPins[] = {
    {Mode::kCpuSerial, 0x1.fee91ecf3419cp-13, 1, 0, 21040, 17},
    {Mode::kCpuParallel, 0x1.0ce088b4f865ep-12, 257, 0, 21112, 17},
    {Mode::kGpu, 0x1.37cf0865d0aep-11, 277, 0, 21112, 17},
    {Mode::kHeterogeneous, 0x1.e0eacf303340ap-9, 1048, 0, 21112, 17},
    {Mode::kCpuSerial, 0x1.fee91ecf3419cp-13, 1, 1, 273520, 257},
    {Mode::kCpuParallel, 0x1.0ce088b4f865ep-12, 257, 1, 273592, 257},
    {Mode::kGpu, 0x1.8033d11252551p-11, 517, 1, 273592, 257},
    {Mode::kHeterogeneous, 0x1.e0eacf303340ap-9, 1288, 1, 273592, 257},
};
// Inverted-L: cpu-parallel and gpu run a ShellLayout front window; the
// hetero split has no window and falls back to the full-table engine.
constexpr Pinned kMaxNwFrontierPins[] = {
    {Mode::kCpuSerial, 0x1.a9c6bdaa6fdf9p-13, 1, 0, 42080, 17},
    {Mode::kCpuParallel, 0x1.c49eb0452c8ecp-13, 257, 0, 46320, 17},
    {Mode::kGpu, 0x1.6bdec7ad0d2cap-11, 517, 0, 46320, 17},
    {Mode::kHeterogeneous, 0x1.7eb10628aa491p-12, 479, 0, 1081456, 0},
    {Mode::kCpuSerial, 0x1.a9c6bdaa6fdf9p-13, 1, 1, 547040, 257},
    {Mode::kCpuParallel, 0x1.c49eb0452c8ecp-13, 257, 1, 551280, 257},
    {Mode::kGpu, 0x1.97fe8b41ccee8p-11, 517, 1, 551280, 257},
    {Mode::kHeterogeneous, 0x1.7eb10628aa491p-12, 479, 1, 1081456, 0},
};
constexpr Pinned kColumnMinFrontierPins[] = {
    {Mode::kCpuSerial, 0x1.a9c6bdaa6fdf9p-13, 1, 0, 41120, 17},
    {Mode::kCpuParallel, 0x1.c53fbff4ccf8p-13, 263, 0, 41360, 17},
    {Mode::kGpu, 0x1.95685263ececap-11, 284, 0, 41360, 17},
    {Mode::kHeterogeneous, 0x1.79373b32b52b8p-11, 810, 0, 41360, 17},
    {Mode::kCpuSerial, 0x1.a9c6bdaa6fdf9p-13, 1, 1, 546896, 263},
    {Mode::kCpuParallel, 0x1.c53fbff4ccf8p-13, 263, 1, 547136, 263},
    {Mode::kGpu, 0x1.f4cdaf51a0528p-11, 529, 1, 547136, 263},
    {Mode::kHeterogeneous, 0x1.79373b32b52b8p-11, 1055, 1, 547136, 263},
};

TEST(FrontierTierSchedule, LevenshteinAntiDiagonal) {
  const problems::LevenshteinProblem p(
      problems::random_sequence(kRows - 1, 1),
      problems::random_sequence(kCols - 1, 2));
  expect_pinned("lev", p, kLevFrontierPins, false, Tier::kFrontier);
}

TEST(FrontierTierSchedule, DitherKnightMove) {
  const problems::FloydSteinbergProblem p(
      problems::noise_image(kRows, kCols, 3));
  expect_pinned("dither", p, kDitherFrontierPins, false, Tier::kFrontier);
}

TEST(FrontierTierSchedule, CheckerboardHorizontal) {
  const problems::CheckerboardProblem p(
      problems::random_cost_board(kRows, kCols, 4));
  expect_pinned("checkerboard", p, kCheckerboardFrontierPins, false,
                Tier::kFrontier);
}

TEST(FrontierTierSchedule, MaxNwInvertedLShell) {
  const problems::MaxNwProblem p(problems::random_input_grid(kRows, kCols, 5),
                                 3);
  expect_pinned("maxnw", p, kMaxNwFrontierPins, false, Tier::kFrontier);
}

TEST(FrontierTierSchedule, ColumnMinVertical) {
  const problems::ColumnMinPathProblem p(
      problems::random_cost_board(kRows, kCols, 6));
  expect_pinned("columnmin", p, kColumnMinFrontierPins, false,
                Tier::kFrontier);
}

// Mirrored Inverted-L ({NE}): the symmetry adapter maps it onto the
// canonical shell window, and the table serves reads through a mirrored
// coordinate view.
TEST(FrontierTierSchedule, MirroredInvertedLShell) {
  const auto p = problems::make_function_problem<std::int64_t>(
      kRows, kCols, ContributingSet{Dep::kNE}, 0,
      [](std::size_t i, std::size_t j, const Neighbors<std::int64_t>& nb) {
        return nb.ne * 3 + static_cast<std::int64_t>((i * 7 + j * 13) % 29);
      });
  constexpr Pinned pins[] = {
      {Mode::kCpuParallel, 0x1.0ce088b4f8649p-12, 257, 0, 46320, 17},
      {Mode::kGpu, 0x1.9647c62610eaap-11, 516, 0, 46320, 17},
      {Mode::kCpuParallel, 0x1.0ce088b4f8649p-12, 257, 1, 551280, 257},
      {Mode::kGpu, 0x1.c26789bad0acp-11, 516, 1, 551280, 257},
  };
  expect_pinned("mirrored-shell", p, pins, false, Tier::kFrontier);
}

}  // namespace
}  // namespace lddp
