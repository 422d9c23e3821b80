// Differential and property tests for the batch-front (SIMD) cell
// kernels: RunConfig::batch_kernels = true must produce bit-identical
// tables to the scalar per-cell path across every contributing set,
// execution mode, tiling setting and table shape — and the front runner
// must hand every interior cell to the hook exactly once with a valid
// span, covering the rest through the scalar fallback. Problems without
// the hook (and spans a hook rejects) take the runner's generic span loop,
// which must be just as bit-identical.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/front_runner.h"
#include "cpu/thread_pool.h"
#include "problems/alignment.h"
#include "problems/checkerboard.h"
#include "problems/column_min.h"
#include "problems/dtw.h"
#include "problems/floyd_steinberg.h"
#include "problems/gotoh.h"
#include "problems/image.h"
#include "problems/lcs.h"
#include "problems/levenshtein.h"
#include "problems/max_square.h"
#include "problems/seam_carving.h"
#include "problems/synthetic.h"
#include "tables/layout.h"
#include "util/rng.h"

namespace lddp {
namespace {

// ---------------------------------------------------------------------
// A configurable-deps problem whose batch hook accepts *any* span shape
// with a scalar lane loop — so every layout's packing path (unit-stride
// rows, strided anti-diagonal gathers, two-run shells) is exercised.
class SyntheticBatchProblem {
 public:
  using Value = std::int32_t;

  SyntheticBatchProblem(std::size_t rows, std::size_t cols,
                        ContributingSet deps)
      : rows_(rows), cols_(cols), deps_(deps) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  ContributingSet deps() const { return deps_; }
  Value boundary() const { return 12345; }

  Value combine(std::size_t i, std::size_t j, Value w, Value nw, Value n,
                Value ne) const {
    Value v = static_cast<Value>((i * 31 + j * 17) % 257);
    if (deps_.has_w()) v += 3 * (w & 0xffff);
    if (deps_.has_nw()) v += 5 * (nw & 0xffff);
    if (deps_.has_n()) v += 7 * (n & 0xffff);
    if (deps_.has_ne()) v += 9 * (ne & 0xffff);
    return v;
  }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    return combine(i, j, nb.w, nb.nw, nb.n, nb.ne);
  }

  bool compute_front(const FrontSpan<Value>& s) const {
    for (std::size_t k = 0; k < s.len; ++k) {
      const auto i = static_cast<std::size_t>(
          static_cast<std::int64_t>(s.i0) +
          static_cast<std::int64_t>(k) * s.di);
      const auto j = static_cast<std::size_t>(
          static_cast<std::int64_t>(s.j0) +
          static_cast<std::int64_t>(k) * s.dj);
      s.out[k] = combine(i, j, deps_.has_w() ? s.w[k] : 0,
                         deps_.has_nw() ? s.nw[k] : 0,
                         deps_.has_n() ? s.n[k] : 0,
                         deps_.has_ne() ? s.ne[k] : 0);
    }
    return true;
  }

 private:
  std::size_t rows_, cols_;
  ContributingSet deps_;
};
static_assert(has_batch_front_v<SyntheticBatchProblem>);

// gtest's ASSERT_* only works in void functions; emulate for bool.
#define ASSERT_LT_OR_RETURN(a, b)  \
  if (!((a) < (b))) {              \
    ADD_FAILURE() << #a " >= " #b; \
    return false;                  \
  }

// What the recording wrapper's hook does with a span.
enum class Hook {
  kAccept,  ///< computes the span (SyntheticBatchProblem's lane loop)
  kNone,    ///< no compute_front at all: the runner's generic span loop
  kReject,  ///< validates the span, then declines it
};

// Per-cell bookkeeping of one property run: which cells the hook computed
// and which went through compute (generic span loop or compute_cell).
struct CellCounts {
  CellCounts(std::size_t rows, std::size_t cols)
      : hook(rows, cols, 0), scalar(rows, cols, 0) {}
  Grid<std::int32_t> hook, scalar;
  std::size_t rejected_spans = 0;
};

// Wraps SyntheticBatchProblem with per-cell bookkeeping and checks that
// every span offered to the hook is interior and in range.
template <Hook H>
class RecordingProblem {
 public:
  using Value = std::int32_t;

  RecordingProblem(const SyntheticBatchProblem& base, CellCounts* counts)
      : base_(base), counts_(counts) {}

  std::size_t rows() const { return base_.rows(); }
  std::size_t cols() const { return base_.cols(); }
  ContributingSet deps() const { return base_.deps(); }
  Value boundary() const { return base_.boundary(); }

  Value compute(std::size_t i, std::size_t j,
                const Neighbors<Value>& nb) const {
    ++counts_->scalar.at(i, j);
    return base_.compute(i, j, nb);
  }

  bool compute_front(const FrontSpan<Value>& s) const
    requires(H != Hook::kNone)
  {
    EXPECT_GE(s.len, detail::kMinBatchRun);
    const ContributingSet d = base_.deps();
    for (std::size_t k = 0; k < s.len; ++k) {
      const auto i = static_cast<std::size_t>(
          static_cast<std::int64_t>(s.i0) +
          static_cast<std::int64_t>(k) * s.di);
      const auto j = static_cast<std::size_t>(
          static_cast<std::int64_t>(s.j0) +
          static_cast<std::int64_t>(k) * s.dj);
      ASSERT_LT_OR_RETURN(i, rows());
      ASSERT_LT_OR_RETURN(j, cols());
      EXPECT_GE(i, 1u) << "span reaches the top boundary row";
      EXPECT_GE(j, 1u) << "span reaches the left boundary column";
      if (d.has_ne()) {
        EXPECT_LT(j + 1, cols()) << "NE span reaches the right edge";
      }
      if (H == Hook::kAccept) ++counts_->hook.at(i, j);
    }
    if (H == Hook::kReject) {
      ++counts_->rejected_spans;
      return false;
    }
    return base_.compute_front(s);
  }

 private:
  const SyntheticBatchProblem& base_;
  CellCounts* counts_;
};
static_assert(has_batch_front_v<RecordingProblem<Hook::kAccept>>);
static_assert(!has_batch_front_v<RecordingProblem<Hook::kNone>>);
static_assert(has_batch_front_v<RecordingProblem<Hook::kReject>>);

// ---------------------------------------------------------------------
// Differential: batch on == batch off, bit for bit.

template <typename V>
bool same_value(const V& a, const V& b) {
  return a == b;
}
// FsCell has no operator==; compare the error bits and the output pixel.
bool same_value(const problems::FsCell& a, const problems::FsCell& b) {
  return std::bit_cast<std::uint64_t>(a.err) ==
             std::bit_cast<std::uint64_t>(b.err) &&
         a.out == b.out;
}

template <typename TableA, typename TableB>
void expect_tables_identical(const TableA& on, const TableB& off,
                             const std::string& what) {
  ASSERT_EQ(on.rows(), off.rows()) << what;
  ASSERT_EQ(on.cols(), off.cols()) << what;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < on.rows() && bad < 5; ++i)
    for (std::size_t j = 0; j < on.cols() && bad < 5; ++j)
      if (!same_value(on.at(i, j), off.at(i, j))) {
        ADD_FAILURE() << what << ": mismatch at (" << i << ", " << j << ")";
        ++bad;
      }
}

template <typename P>
void expect_batch_identical(const P& p, RunConfig cfg,
                            const std::string& what) {
  cfg.batch_kernels = false;
  const auto off = solve(p, cfg);
  cfg.batch_kernels = true;
  const auto on = solve(p, cfg);
  expect_tables_identical(on.table, off.table, what);
  // The knob must not change anything the stats derive from the table.
  EXPECT_EQ(on.stats.cells, off.stats.cells) << what;
  // Pricing keys on a real SIMD hook: a hook-less problem's schedule must
  // not move when its fronts take the span path.
  if constexpr (!has_batch_front_v<P>) {
    EXPECT_EQ(on.stats.sim_seconds, off.stats.sim_seconds) << what;
  }
}

/// The same comparison through solve_frontier (frontier tier, short
/// checkpoint bands so reads rematerialize through the engines too).
template <typename P>
void expect_frontier_batch_identical(const P& p, RunConfig cfg,
                                     const std::string& what) {
  cfg.storage = Storage::kFrontier;
  cfg.checkpoint_interval = 3;
  cfg.batch_kernels = false;
  const auto off = solve_frontier(p, cfg);
  cfg.batch_kernels = true;
  const auto on = solve_frontier(p, cfg);
  expect_tables_identical(on.table, off.table, what + " frontier");
  if constexpr (!has_batch_front_v<P>) {
    EXPECT_EQ(on.stats.sim_seconds, off.stats.sim_seconds) << what;
  }
}

struct Shape {
  std::size_t rows, cols;
};
constexpr Shape kShapes[] = {{1, 1},   {1, 64},  {64, 1},
                             {64, 64}, {33, 77}, {128, 5}};

TEST(BatchKernels, DifferentialAllContributingSets) {
  for (std::uint8_t mask = 1; mask <= 15; ++mask) {
    const ContributingSet deps{mask};
    for (const Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                            Mode::kHeterogeneous}) {
      for (const long long tile : {0LL, 32LL}) {
        for (const Shape& sh : kShapes) {
          SyntheticBatchProblem p(sh.rows, sh.cols, deps);
          RunConfig cfg;
          cfg.mode = mode;
          cfg.tile = tile;
          expect_batch_identical(
              p, cfg,
              "deps=" + deps.to_string() + " mode=" + to_string(mode) +
                  " tile=" + std::to_string(tile) + " " +
                  std::to_string(sh.rows) + "x" + std::to_string(sh.cols));
        }
      }
    }
    // CPU tiling handles NE-free sets only.
    if (!deps.has_ne()) {
      for (const Shape& sh : kShapes) {
        SyntheticBatchProblem p(sh.rows, sh.cols, deps);
        RunConfig cfg;
        cfg.mode = Mode::kCpuTiled;
        cfg.cpu_tile = 16;
        expect_batch_identical(p, cfg,
                               "deps=" + deps.to_string() + " cpu_tiled " +
                                   std::to_string(sh.rows) + "x" +
                                   std::to_string(sh.cols));
      }
    }
  }
}

TEST(BatchKernels, DifferentialWithThreadPool) {
  cpu::ThreadPool pool(4);
  for (const std::uint8_t mask :
       {std::uint8_t{0b0111}, std::uint8_t{0b1110}, std::uint8_t{0b0010}}) {
    const ContributingSet deps{mask};
    SyntheticBatchProblem p(128, 128, deps);
    for (const Mode mode : {Mode::kCpuParallel, Mode::kHeterogeneous}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.pool = &pool;
      expect_batch_identical(p, cfg,
                             "pooled deps=" + deps.to_string() +
                                 " mode=" + to_string(mode));
    }
  }
}

std::string random_seq(std::size_t n, std::uint64_t seed) {
  static constexpr char kAlpha[] = {'A', 'C', 'G', 'T'};
  std::string s(n, 'A');
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) s[i] = kAlpha[rng.uniform_int(0, 3)];
  return s;
}

TEST(BatchKernels, DifferentialRealProblems) {
  const std::string a = random_seq(91, 7), b = random_seq(57, 9);
  const problems::LevenshteinProblem lev(a, b);
  const problems::LcsProblem lcs(a, b);
  const problems::GotohProblem gotoh(a, b);
  const problems::MaxSquareProblem sq(problems::random_bit_grid(80, 70, 21));
  const problems::CheckerboardProblem chk(
      problems::random_cost_board(60, 90, 22));
  const problems::SeamCarveProblem seam(
      problems::random_cost_board(90, 60, 23));
  const problems::MaxNwProblem maxnw(problems::random_input_grid(70, 70, 24),
                                     3);
  problems::MinNwNProblem minnwn(64, 96, 1);
  // Problems without a compute_front hook: their interior runs take the
  // runner's generic span loop when batch kernels are on and compute_cell
  // when off. Column-min runs through the Vertical transpose adapter.
  const problems::NeedlemanWunschProblem nw(a, b);
  const problems::SmithWatermanProblem sw(a, b);
  const problems::DtwProblem dtw(problems::random_walk_series(73, 25),
                                 problems::random_walk_series(88, 26));
  const problems::FloydSteinbergProblem fs(
      problems::noise_image(70, 83, 27));
  const problems::ColumnMinPathProblem cmin(
      problems::random_cost_board(66, 95, 28));
  static_assert(!has_batch_front_v<problems::NeedlemanWunschProblem>);
  static_assert(!has_batch_front_v<problems::SmithWatermanProblem>);
  static_assert(!has_batch_front_v<problems::DtwProblem>);
  static_assert(!has_batch_front_v<problems::FloydSteinbergProblem>);
  static_assert(!has_batch_front_v<problems::ColumnMinPathProblem>);

  for (const Mode mode : {Mode::kCpuSerial, Mode::kCpuParallel, Mode::kGpu,
                          Mode::kHeterogeneous}) {
    for (const long long tile : {0LL, 32LL}) {
      RunConfig cfg;
      cfg.mode = mode;
      cfg.tile = tile;
      const std::string tag =
          " mode=" + to_string(mode) + " tile=" + std::to_string(tile);
      expect_batch_identical(lev, cfg, "levenshtein" + tag);
      expect_batch_identical(lcs, cfg, "lcs" + tag);
      expect_batch_identical(gotoh, cfg, "gotoh" + tag);
      expect_batch_identical(sq, cfg, "max_square" + tag);
      expect_batch_identical(chk, cfg, "checkerboard" + tag);
      expect_batch_identical(seam, cfg, "seam" + tag);
      expect_batch_identical(maxnw, cfg, "maxnw" + tag);
      expect_batch_identical(minnwn, cfg, "minnwn" + tag);
      expect_batch_identical(nw, cfg, "nw" + tag);
      expect_batch_identical(sw, cfg, "sw" + tag);
      expect_batch_identical(dtw, cfg, "dtw" + tag);
      expect_batch_identical(fs, cfg, "dither" + tag);
      expect_batch_identical(cmin, cfg, "columnmin" + tag);
    }
    RunConfig cfg;
    cfg.mode = mode;
    const std::string tag = " mode=" + to_string(mode);
    expect_frontier_batch_identical(nw, cfg, "nw" + tag);
    expect_frontier_batch_identical(sw, cfg, "sw" + tag);
    expect_frontier_batch_identical(dtw, cfg, "dtw" + tag);
    expect_frontier_batch_identical(fs, cfg, "dither" + tag);
    expect_frontier_batch_identical(cmin, cfg, "columnmin" + tag);
  }
}

// The hook-less path on the executor's workers (thread_local scratch).
TEST(BatchKernels, DifferentialHooklessWithThreadPool) {
  cpu::ThreadPool pool(4);
  const problems::NeedlemanWunschProblem nw(random_seq(300, 31),
                                            random_seq(280, 32));
  const problems::FloydSteinbergProblem fs(
      problems::noise_image(150, 170, 33));
  const problems::ColumnMinPathProblem cmin(
      problems::random_cost_board(140, 160, 34));
  for (const Mode mode :
       {Mode::kCpuParallel, Mode::kGpu, Mode::kHeterogeneous}) {
    RunConfig cfg;
    cfg.mode = mode;
    cfg.pool = &pool;
    const std::string tag = " pooled mode=" + to_string(mode);
    expect_batch_identical(nw, cfg, "nw" + tag);
    expect_batch_identical(fs, cfg, "dither" + tag);
    expect_batch_identical(cmin, cfg, "columnmin" + tag);
  }
}

// ---------------------------------------------------------------------
// Property: over every layout, running fronts through run_front_range in
// arbitrary [lo, hi) chunks computes each cell exactly once (hook or
// compute, never both), hands the hook only valid interior spans, and
// reproduces the plain row-major reference table — whether the problem
// accepts spans, has no hook, or rejects every span.

template <Hook H, typename Layout>
void run_layout_property(const Layout& layout, ContributingSet deps,
                         std::uint64_t seed) {
  const std::size_t rows = layout.rows(), cols = layout.cols();
  SyntheticBatchProblem base(rows, cols, deps);
  CellCounts counts(rows, cols);
  RecordingProblem<H> p(base, &counts);

  std::vector<std::int32_t> storage(layout.size(), 0);
  auto addr = [&](std::size_t i, std::size_t j) {
    return storage.data() + layout.flat(i, j);
  };
  Rng rng(seed);
  for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
    const std::size_t fs = layout.front_size(f);
    std::size_t lo = 0;
    while (lo < fs) {
      const std::size_t hi = std::min<std::size_t>(
          fs, lo + static_cast<std::size_t>(rng.uniform_int(
                      1, static_cast<std::int64_t>(fs))));
      detail::run_front_range(p, deps, p.boundary(), layout, f, lo, hi, addr,
                              /*batch=*/true);
      lo = hi;
    }
  }

  // Reference: plain row-major scalar sweep (valid for every set here —
  // all four offsets point to earlier rows or earlier columns).
  Grid<std::int32_t> ref(rows, cols, 0);
  auto read_ref = [&](std::size_t i, std::size_t j) { return ref.at(i, j); };
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      ref.at(i, j) = detail::compute_cell(base, deps, base.boundary(), i, j,
                                          cols, read_ref);

  std::size_t bad = 0;
  for (std::size_t i = 0; i < rows && bad < 5; ++i) {
    for (std::size_t j = 0; j < cols && bad < 5; ++j) {
      const std::int32_t times =
          counts.hook.at(i, j) + counts.scalar.at(i, j);
      if (times != 1) {
        ADD_FAILURE() << "cell (" << i << ", " << j << ") computed "
                      << times << " times";
        ++bad;
      }
      if (storage[layout.flat(i, j)] != ref.at(i, j)) {
        ADD_FAILURE() << "value mismatch at (" << i << ", " << j << ")";
        ++bad;
      }
    }
  }
  // A 64x64 table has interior runs on every layout, so the rejecting
  // hook must actually have been offered spans.
  if (H == Hook::kReject && rows == 64 && cols == 64) {
    EXPECT_GT(counts.rejected_spans, 0u);
  }
}

template <Hook H>
void run_all_layouts_property(std::uint64_t seed) {
  constexpr Shape kPropShapes[] = {{1, 1},   {1, 37},  {37, 1}, {17, 23},
                                   {40, 9},  {9, 40},  {64, 64}};
  for (const Shape& sh : kPropShapes) {
    SCOPED_TRACE(std::to_string(sh.rows) + "x" + std::to_string(sh.cols));
    const std::size_t n = sh.rows, m = sh.cols;
    run_layout_property<H>(RowMajorLayout(n, m),
                           ContributingSet{Dep::kNW, Dep::kN, Dep::kNE},
                           ++seed);
    run_layout_property<H>(ColumnMajorLayout(n, m),
                           ContributingSet{Dep::kW, Dep::kNW}, ++seed);
    run_layout_property<H>(AntiDiagonalLayout(n, m),
                           ContributingSet{Dep::kW, Dep::kNW, Dep::kN},
                           ++seed);
    run_layout_property<H>(
        KnightMoveLayout(n, m),
        ContributingSet{Dep::kW, Dep::kNW, Dep::kN, Dep::kNE}, ++seed);
    run_layout_property<H>(ShellLayout(n, m), ContributingSet{Dep::kNW},
                           ++seed);
    run_layout_property<H>(MirrorShellLayout(n, m),
                           ContributingSet{Dep::kNE}, ++seed);
  }
}

TEST(BatchKernels, FrontRunTilingProperty) {
  {
    SCOPED_TRACE("hook accepts");
    run_all_layouts_property<Hook::kAccept>(1000);
  }
  {
    SCOPED_TRACE("no hook");
    run_all_layouts_property<Hook::kNone>(2000);
  }
  {
    SCOPED_TRACE("hook rejects");
    run_all_layouts_property<Hook::kReject>(3000);
  }
}

}  // namespace
}  // namespace lddp
