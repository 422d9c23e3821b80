// Full-tier simulated schedules are pinned: the engines compute into a
// rolling front window and drain it into the result grid, which is host
// work only, so every priced op — CPU fronts, kernels, transfers with
// their byte counts, waits and syncs — must stay exactly as recorded by
// the grid-walking engines these replaced. The constants below were
// captured from those engines; any drift in sim_seconds or in the op
// count of the recorded timeline is a pricing change, not a storage one.
//
// batch_kernels is off so the CPU pricing does not pick up the host's
// calibrated vector speedup (a per-machine measurement).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
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

struct Pinned {
  Mode mode;
  double sim_seconds;
  std::size_t ops;
};

template <typename V>
bool same_value(const V& a, const V& b) {
  return a == b;
}
bool same_value(const problems::FsCell& a, const problems::FsCell& b) {
  return a.err == b.err && a.out == b.out;
}

template <typename V>
bool same_table(const Grid<V>& a, const Grid<V>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (!same_value(a.at(i, j), b.at(i, j))) return false;
  return true;
}

template <LddpProblem P>
void expect_pinned(const std::string& name, const P& p,
                   const Pinned (&pins)[3]) {
  const Grid<typename P::Value> ref = [&] {
    RunConfig cfg;
    cfg.mode = Mode::kCpuSerial;
    return solve(p, cfg).table;
  }();
  for (const Pinned& pin : pins) {
    RunConfig cfg;
    cfg.mode = pin.mode;
    cfg.batch_kernels = false;
    sim::Timeline recorded;
    cfg.record_timeline = &recorded;
    const auto r = solve(p, cfg);
    EXPECT_EQ(r.stats.sim_seconds, pin.sim_seconds)
        << name << " " << to_string(pin.mode);
    EXPECT_EQ(recorded.op_count(), pin.ops)
        << name << " " << to_string(pin.mode);
    EXPECT_TRUE(same_table(r.table, ref))
        << name << " " << to_string(pin.mode);
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

}  // namespace
}  // namespace lddp
