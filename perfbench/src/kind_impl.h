// KindOps for one problem family. Included by exactly one kind_*.cpp per
// family, which supplies a Traits type:
//
//   struct Traits {
//     using P = <problem type>;
//     static Made<P> make(std::size_t side, std::uint64_t seed);
//   };
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <type_traits>

#include "bench.h"
#include "entry_points.h"
#include "gen.h"
#include "problems/floyd_steinberg.h"
#include "problems/gotoh.h"
#include "trace.h"
#include "util/aligned.h"

namespace perfbench {

/// A generated problem and the fingerprint of its input bytes.
template <class P>
struct Made {
  P problem;
  std::uint64_t digest;
};

/// Two seeded ACGT sequences of side - 1 characters (an n x n table).
template <class P>
Made<P> sequence_pair(std::size_t side, std::uint64_t seed) {
  std::string a = gen::sequence(side - 1, seed);
  std::string b = gen::sequence(side - 1, seed ^ 0xb);
  const std::uint64_t d =
      gen::fnv(b.data(), b.size(), gen::fnv(a.data(), a.size()));
  return {P(std::move(a), std::move(b)), d};
}

namespace detail {

using clock = std::chrono::steady_clock;

inline double since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

inline Answer answer_of(std::int32_t v) {
  return {static_cast<double>(v), static_cast<std::uint64_t>(v)};
}
inline Answer answer_of(std::int64_t v) {
  return {static_cast<double>(v), static_cast<std::uint64_t>(v)};
}
inline Answer answer_of(double v) {
  return {v, std::bit_cast<std::uint64_t>(v)};
}
inline Answer answer_of(const lddp::problems::FsCell& c) {
  return {c.err, std::bit_cast<std::uint64_t>(c.err) ^
                     (std::uint64_t{c.out} * 0x9E3779B97F4A7C15ULL)};
}
inline Answer answer_of(const lddp::problems::GotohCell& c) {
  const std::int32_t v[3] = {c.m, c.x, c.y};
  return {static_cast<double>(c.best()), gen::fnv(v, sizeof v)};
}

template <class Table>
Answer final_cell(const Table& t) {
  return answer_of(t.at(t.rows() - 1, t.cols() - 1));
}

/// Calls fn(problem, layout) with the problem in the canonical orientation
/// the framework runs it in, and the layout of its pattern.
template <class P, class Fn>
auto with_canonical(const P& p, Fn&& fn) {
  using lddp::Pattern;
  switch (lddp::classify(p.deps())) {
    case Pattern::kAntiDiagonal:
      return fn(p, lddp::AntiDiagonalLayout(p.rows(), p.cols()));
    case Pattern::kKnightMove:
      return fn(p, lddp::KnightMoveLayout(p.rows(), p.cols()));
    case Pattern::kInvertedL:
      return fn(p, lddp::ShellLayout(p.rows(), p.cols()));
    case Pattern::kVertical: {
      const lddp::TransposedProblem<P> t(p);
      return fn(t, lddp::RowMajorLayout(t.rows(), t.cols()));
    }
    case Pattern::kMirroredInvertedL: {
      const lddp::MirroredProblem<P> m(p);
      return fn(m, lddp::ShellLayout(m.rows(), m.cols()));
    }
    default:
      return fn(p, lddp::RowMajorLayout(p.rows(), p.cols()));
  }
}

template <class V>
void fill_operand(V* v, std::size_t n) {
  if constexpr (std::is_arithmetic_v<V>) {
    for (std::size_t k = 0; k < n; ++k) v[k] = static_cast<V>(k % 7);
  } else {
    std::fill(v, v + n, V{});
  }
}

template <class Q, class Layout>
Probe kernel_sweep(const Q& q, const Layout& layout) {
  using V = typename Q::Value;
  Probe out;
  if constexpr (lddp::BatchFrontProblem<Q>) {
    const lddp::ContributingSet deps = q.deps();
    if (!lddp::detail::layout_batchable(layout, deps)) return out;
    std::size_t widest = 0;
    for (std::size_t f = 0; f < layout.num_fronts(); ++f)
      widest = std::max(widest, layout.front_size(f));
    lddp::AlignedBuf<V> ops[5];
    for (auto& b : ops) fill_operand(b.ensure(widest), widest);
    const std::size_t reads = static_cast<std::size_t>(deps.has_w()) +
                              deps.has_nw() + deps.has_n() + deps.has_ne();
    const double cells = static_cast<double>(q.rows() * q.cols());
    out.bytes_per_cell =
        static_cast<double>((reads + 1) * sizeof(V)) +
        static_cast<double>(lddp::input_bytes_of(q)) / cells;
    // Sweep every front's interior runs until the probe has run long
    // enough to time reliably.
    const auto t0 = clock::now();
    do {
      for (std::size_t f = 0; f < layout.num_fronts(); ++f) {
        lddp::detail::FrontRun runs[2];
        const std::size_t nr = lddp::detail::front_runs(layout, f, runs);
        for (std::size_t r = 0; r < nr; ++r) {
          std::size_t ia = 0, ib = 0;
          lddp::detail::interior_lanes(runs[r], deps, layout.cols(), ia, ib);
          if (ib - ia < lddp::detail::kMinBatchRun) continue;
          lddp::FrontSpan<V> s;
          s.i0 = static_cast<std::size_t>(
              static_cast<std::int64_t>(runs[r].i0) +
              static_cast<std::int64_t>(ia) * runs[r].di);
          s.j0 = static_cast<std::size_t>(
              static_cast<std::int64_t>(runs[r].j0) +
              static_cast<std::int64_t>(ia) * runs[r].dj);
          s.di = runs[r].di;
          s.dj = runs[r].dj;
          s.len = ib - ia;
          s.w = deps.has_w() ? ops[0].data() : nullptr;
          s.nw = deps.has_nw() ? ops[1].data() : nullptr;
          s.n = deps.has_n() ? ops[2].data() : nullptr;
          s.ne = deps.has_ne() ? ops[3].data() : nullptr;
          s.out = ops[4].data();
          if (entry::compute_front(q, s)) out.cells += s.len;
        }
      }
    } while (since(t0) < 0.05);
    out.seconds = since(t0);
  }
  return out;
}

template <class Q, class Layout>
Probe front_runner_sweep(const Q& q, const Layout& layout) {
  using V = typename Q::Value;
  lddp::Grid<V> table(q.rows(), q.cols());
  auto addr = [&table](std::size_t i, std::size_t j) {
    return &table.at(i, j);
  };
  Probe out;
  const auto t0 = clock::now();
  for (std::size_t f = 0; f < layout.num_fronts(); ++f)
    if (layout.front_size(f) > 0) entry::run_front(q, layout, f, addr);
  out.seconds = since(t0);
  out.cells = q.rows() * q.cols();
  return out;
}

}  // namespace detail

template <class Traits>
struct KindImpl {
  using P = typename Traits::P;
  using V = typename P::Value;
  using Holder = Made<P>;
  static constexpr bool kTraceback =
      std::is_same_v<P, lddp::problems::NeedlemanWunschProblem>;

  static const P& get(const void* h) {
    return static_cast<const Holder*>(h)->problem;
  }

  static ProblemRef make(std::size_t side, std::uint64_t seed) {
    return std::make_shared<const Holder>(Traits::make(side, seed));
  }

  static std::uint64_t digest(const void* h) {
    return static_cast<const Holder*>(h)->digest;
  }

  template <class Table>
  static void finish(SolveOutcome& out, const P& p, const Table& table,
                     bool traceback, Tracer* tracer, std::uint64_t request) {
    out.table_cells = p.rows() * p.cols();
    if constexpr (kTraceback) {
      if (traceback) {
        const auto t0 = detail::clock::now();
        lddp::problems::Alignment aln;
        {
          Tracer::Scope span(tracer, "tables.traceback", request);
          aln = entry::nw_traceback(p, table);
        }
        out.traceback_s = detail::since(t0);
        out.answer = detail::answer_of(aln.score);
        return;
      }
    }
    out.answer = detail::final_cell(table);
  }

  static SolveOutcome solve(const void* h, const lddp::RunConfig& rc,
                            Tier tier, bool traceback, Tracer* tracer,
                            std::uint64_t request) {
    const P& p = get(h);
    SolveOutcome out;
    if (tier == Tier::kFull) {
      lddp::SolveResult<P> r;
      {
        Tracer::Scope span(tracer, "core.framework.solve", request);
        r = entry::solve(p, rc);
      }
      out.stats = r.stats;
      finish(out, p, r.table, traceback, tracer, request);
    } else {
      lddp::FrontierSolveResult<P> r;
      {
        Tracer::Scope span(tracer, "core.framework.solve_frontier", request);
        r = entry::solve_frontier(p, rc);
      }
      out.stats = r.stats;
      finish(out, p, r.table, traceback, tracer, request);
      out.remat_bands = r.table.remat_stats().bands;
      out.remat_cells = r.table.remat_stats().cells;
    }
    return out;
  }

  template <class Future>
  class PendingImpl final : public Pending {
   public:
    explicit PendingImpl(Future f) : f_(std::move(f)) {}
    bool wait_for(std::chrono::microseconds timeout) const override {
      return f_.wait_for(timeout) == std::future_status::ready;
    }
    Answer get() override { return detail::final_cell(f_.get().table); }

   private:
    Future f_;
  };

  template <class Optional>
  static std::unique_ptr<Pending> wrap(Optional f) {
    if (!f.has_value()) return nullptr;
    using Future = typename Optional::value_type;
    return std::make_unique<PendingImpl<Future>>(std::move(*f));
  }

  static std::unique_ptr<Pending> submit(lddp::BatchEngine& engine,
                                         const void* h,
                                         const lddp::RunConfig& rc, Tier tier,
                                         Tracer* tracer, std::uint64_t request,
                                         double* submit_s) {
    P copy = get(h);  // the engine takes its problem by value
    Tracer::Scope span(tracer, "core.batch_engine.submit", request);
    const auto t0 = detail::clock::now();
    std::unique_ptr<Pending> out =
        tier == Tier::kFull
            ? wrap(entry::submit(engine, std::move(copy), rc))
            : wrap(entry::submit_frontier(engine, std::move(copy), rc));
    *submit_s = detail::since(t0);
    return out;
  }

  static void record(const void* h, const lddp::RunConfig& rc, Tier tier,
                     lddp::sim::Timeline* out, Tracer* tracer,
                     std::uint64_t request) {
    const P& p = get(h);
    lddp::RunConfig r = rc;
    r.record_timeline = out;
    // The engine runs small CPU-resolved requests as lane-cohort jobs and
    // prices each one exactly like a solo serial scan.
    const std::size_t cells = p.rows() * p.cols();
    const lddp::Mode resolved = lddp::detail::resolve_auto(rc.mode, cells);
    const bool cpu_mode = resolved == lddp::Mode::kCpuSerial ||
                          resolved == lddp::Mode::kCpuParallel;
    const bool lane = rc.batch_kernels && cpu_mode &&
                      (tier == Tier::kFrontier ||
                       cells <= lddp::detail::kLaneMaxCells);
    if (lane) r.mode = lddp::Mode::kCpuSerial;
    solve(h, r, tier, /*traceback=*/false, tracer, request);
  }

  static std::vector<std::size_t> front_lengths(const void* h) {
    return detail::with_canonical(get(h), [](const auto&, const auto& L) {
      std::vector<std::size_t> out(L.num_fronts());
      for (std::size_t f = 0; f < out.size(); ++f) out[f] = L.front_size(f);
      return out;
    });
  }

  static Probe kernel(const void* h) {
    return detail::with_canonical(get(h), [](const auto& q, const auto& L) {
      return detail::kernel_sweep(q, L);
    });
  }

  static Probe front_runner(const void* h) {
    return detail::with_canonical(get(h), [](const auto& q, const auto& L) {
      return detail::front_runner_sweep(q, L);
    });
  }

  static Probe lane_cohort(const std::vector<const void*>& hs) {
    std::vector<const P*> probs;
    Probe out;
    for (const void* h : hs) {
      probs.push_back(&get(h));
      out.cells += get(h).rows() * get(h).cols();
    }
    lddp::detail::LaneExecStats st;
    const auto t0 = detail::clock::now();
    auto tables = entry::solve_lane_cohort(probs, &st);
    out.seconds = detail::since(t0);
    return out;
  }

  static double alloc_s(const void* h) {
    const P& p = get(h);
    const auto t0 = detail::clock::now();
    const auto table = entry::make_table<V>(p.rows(), p.cols());
    return detail::since(t0);
  }

  static const KindOps& ops() {
    static const KindOps k{&make,   &digest,       &solve,
                           &submit, &record,       &front_lengths,
                           &kernel, &front_runner, &lane_cohort,
                           &alloc_s};
    return k;
  }
};

}  // namespace perfbench
