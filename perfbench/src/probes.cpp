#include "probes.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "entry_points.h"
#include "sim/platform.h"
#include "trace.h"

namespace perfbench {
namespace {

using clock = std::chrono::steady_clock;
constexpr double kMiB = 1024.0 * 1024.0;

double since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

template <class Fn>
void on_all_cores(Fn fn) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) threads.emplace_back(fn, t, n);
  for (auto& t : threads) t.join();
}

// One core's vector int32 throughput: eight independent add+min chains
// held in registers, two lane operations per chain per iteration.
#define PERFBENCH_SIMD_BODY(Vec, lanes)                                     \
  Vec a0 = Vec{} + 0, a1 = Vec{} + 1, a2 = Vec{} + 2, a3 = Vec{} + 3;       \
  Vec a4 = Vec{} + 4, a5 = Vec{} + 5, a6 = Vec{} + 6, a7 = Vec{} + 7;       \
  const Vec inc = Vec{} + 1, cap = Vec{} + (1 << 30);                       \
  const auto t0 = clock::now();                                             \
  for (std::size_t i = 0; i < iters; ++i) {                                 \
    a0 = a0 + inc; a0 = a0 < cap ? a0 : cap;                                \
    a1 = a1 + inc; a1 = a1 < cap ? a1 : cap;                                \
    a2 = a2 + inc; a2 = a2 < cap ? a2 : cap;                                \
    a3 = a3 + inc; a3 = a3 < cap ? a3 : cap;                                \
    a4 = a4 + inc; a4 = a4 < cap ? a4 : cap;                                \
    a5 = a5 + inc; a5 = a5 < cap ? a5 : cap;                                \
    a6 = a6 + inc; a6 = a6 < cap ? a6 : cap;                                \
    a7 = a7 + inc; a7 = a7 < cap ? a7 : cap;                                \
    asm volatile("" : "+x"(a0), "+x"(a1), "+x"(a2), "+x"(a3));              \
    asm volatile("" : "+x"(a4), "+x"(a5), "+x"(a6), "+x"(a7));              \
  }                                                                         \
  const double s = since(t0);                                               \
  return static_cast<double>(iters) * 8 * 2 * (lanes) / s / 1e9;

typedef std::int32_t v4si __attribute__((vector_size(16)));
typedef std::int32_t v8si __attribute__((vector_size(32)));

double simd_sse2(std::size_t iters) { PERFBENCH_SIMD_BODY(v4si, 4) }

__attribute__((target("avx2"))) double simd_avx2(std::size_t iters) {
  PERFBENCH_SIMD_BODY(v8si, 8)
}

#undef PERFBENCH_SIMD_BODY

/// The largest input of each kind in the workload.
std::vector<const Input*> representatives(const Workload& w) {
  std::vector<const Input*> out;
  for (const Input& in : w.inputs) {
    auto it = std::find_if(out.begin(), out.end(), [&](const Input* o) {
      return o->kind == in.kind;
    });
    if (it == out.end())
      out.push_back(&in);
    else if (in.side > (*it)->side)
      *it = &in;
  }
  return out;
}

const Input* representative(const std::vector<const Input*>& reps, Kind k,
                            const Workload& w) {
  for (const Input* in : reps)
    if (in->kind == k) return in;
  return &w.inputs.front();
}

struct Merge {
  double seconds = 0.0;
  double makespan_ms = 0.0;
};

/// Replays recorded schedules the way BatchEngine::wait() does: FIFO
/// admission into `concurrency` slots, cross-solve packing on.
Merge replay(const std::vector<const lddp::sim::Timeline*>& timelines,
             const lddp::BatchConfig& bc) {
  lddp::sim::Platform platform(bc.platform);
  lddp::sim::TimelineMerger merger(platform.timeline());
  merger.enable_packing(bc.platform.gpu);
  std::size_t next = 0;
  auto dispatch = [&](double release, lddp::sim::OpId dep) {
    while (next < timelines.size()) {
      const lddp::sim::Timeline* t = timelines[next++];
      if (t->op_count() == 0) continue;
      entry::merger_add(merger, *t, release, dep);
      return;
    }
  };
  const auto t0 = clock::now();
  for (std::size_t s = 0; s < bc.concurrency; ++s)
    dispatch(0.0, lddp::sim::kNoOp);
  while (merger.busy()) {
    const std::size_t done = entry::merger_step(merger);
    if (done == lddp::sim::TimelineMerger::kNone) continue;
    dispatch(merger.job_end(done), merger.job_last_op(done));
  }
  Merge m;
  m.seconds = since(t0);
  m.makespan_ms = platform.elapsed() * 1e3;
  return m;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double median_span_ms(const Tracer& tracer, std::size_t from, std::size_t to,
                      const std::string& prefix) {
  std::vector<double> d;
  for (std::size_t k = from; k < to && k < tracer.spans().size(); ++k) {
    const Span& s = tracer.spans()[k];
    if (std::string(s.name).rfind(prefix, 0) == 0)
      d.push_back((s.t1 - s.t0) * 1e3);
  }
  if (d.empty()) return 0.0;
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

}  // namespace

std::size_t llc_bytes() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return llc > 0 ? static_cast<std::size_t>(llc) : 0;
}

HostBounds measure_host(Tracer* tracer) {
  HostBounds h;
  const std::size_t llc = llc_bytes();
  h.llc_mb = static_cast<double>(llc) / kMiB;
  // Stream: scale an array of at least four times the LLC in place on every
  // core; each pass reads and writes every byte once. Best of three passes.
  {
    Tracer::Scope span(tracer, "host.stream", 0);
    const std::size_t bytes = std::max<std::size_t>(4 * llc, 256u << 20);
    const std::size_t n = bytes / sizeof(double);
    std::unique_ptr<double[]> a(new double[n]);
    auto chunk = [n](unsigned t, unsigned threads, std::size_t& lo,
                     std::size_t& hi) {
      lo = n * t / threads;
      hi = n * (t + 1) / threads;
    };
    on_all_cores([&](unsigned t, unsigned threads) {
      std::size_t lo, hi;
      chunk(t, threads, lo, hi);
      std::fill(a.get() + lo, a.get() + hi, 1.0);
    });
    double best = 1e30;
    for (int pass = 0; pass < 3; ++pass) {
      const auto t0 = clock::now();
      on_all_cores([&](unsigned t, unsigned threads) {
        std::size_t lo, hi;
        chunk(t, threads, lo, hi);
        double* p = a.get();
        for (std::size_t i = lo; i < hi; ++i) p[i] = p[i] * 0.999 + 0.001;
      });
      best = std::min(best, since(t0));
    }
    h.array_mb = static_cast<double>(n * sizeof(double)) / kMiB;
    h.stream_gb_s = 2.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
  }
  {
    Tracer::Scope span(tracer, "host.simd", 0);
    constexpr std::size_t kIters = 20'000'000;
    if (__builtin_cpu_supports("avx2")) {
      h.simd_gops = simd_avx2(kIters);
      h.simd_isa = "avx2";
    } else {
      h.simd_gops = simd_sse2(kIters);
      h.simd_isa = "sse2";
    }
  }
  return h;
}

std::map<std::string, double> layer_metrics(const Session& s,
                                            const LayerLog& log,
                                            const LayerLog& engine_log,
                                            const HostBounds& host,
                                            Tracer* tracer) {
  const Workload& w = s.w;
  std::map<std::string, double> m;
  const auto reps = representatives(w);

  // problems / core.front_runner: the same inputs, so the front runner's
  // gap over the kernel is its gather/scatter.
  double k_s = 0, k_cells = 0, k_bytes = 0, f_s = 0, f_cells = 0;
  double serial_s = 0.0;
  const Input* lev = representative(reps, Kind::kLevenshtein, w);
  for (const Input* in : reps) {
    const KindOps& o = ops(in->kind);
    Probe k;
    {
      Tracer::Scope span(tracer, "problems.compute_front", 0);
      k = o.kernel(in->problem.get());
    }
    Probe f;
    {
      Tracer::Scope span(tracer, "core.front_runner.run_front_range", 0);
      f = o.front_runner(in->problem.get());
    }
    if (in == lev) serial_s = f.seconds;
    if (k.cells == 0) continue;
    k_s += k.seconds;
    k_cells += static_cast<double>(k.cells);
    k_bytes += k.bytes_per_cell * static_cast<double>(k.cells);
    f_s += f.seconds;
    f_cells += static_cast<double>(f.cells);
  }
  m["problems.kernel_ns_per_cell"] = k_s / k_cells * 1e9;
  m["problems.kernel_bytes_per_cell_computed"] = k_bytes / k_cells;
  m["problems.kernel_roofline_frac"] =
      (k_cells / k_s) * (k_bytes / k_cells) / (host.stream_gb_s * 1e9);
  m["core.front_runner.ns_per_cell"] = f_s / f_cells * 1e9;

  // core.lane_cohort: one full cohort of a batch_small class.
  {
    std::vector<ProblemRef> keep;
    std::vector<const void*> cohort;
    for (std::uint64_t k = 0; k < 8; ++k) {
      keep.push_back(ops(Kind::kLevenshtein).make(256, w.seed * 8 + k));
      cohort.push_back(keep.back().get());
    }
    double secs = 0, cells = 0;
    Tracer::Scope span(tracer, "core.lane_cohort.solve_lane_cohort", 0);
    while (secs < 0.05) {
      const Probe p = ops(Kind::kLevenshtein).lane_cohort(cohort);
      secs += p.seconds;
      cells += static_cast<double>(p.cells);
    }
    m["core.lane_cohort.ns_per_cell"] = secs / cells * 1e9;
  }

  // cpu: empty-body parallel_for over the workload's front lengths.
  {
    std::size_t fronts = 0;
    Tracer::Scope span(tracer, "cpu.parallel_for", 0);
    const auto t0 = clock::now();
    for (const Input* in : reps)
      for (std::size_t len : ops(in->kind).front_lengths(in->problem.get())) {
        entry::parallel_for_empty(len);
        ++fronts;
      }
    const double us = since(t0) * 1e6 / static_cast<double>(fronts);
    m["cpu.dispatch_us_per_front"] = us;
    std::vector<double> fronts_per_request;
    for (const auto& st : log.stats)
      fronts_per_request.push_back(static_cast<double>(st.fronts));
    m["cpu.span_overhead_ms"] = mean(fronts_per_request) * us / 1e3;
  }
  {
    lddp::RunConfig rc;
    rc.mode = lddp::Mode::kCpuParallel;
    rc.schedule = lddp::cpu::Schedule::kStealing;
    const auto t0 = clock::now();
    ops(lev->kind).solve(lev->problem.get(), rc, Tier::kFull, false, tracer, 0);
    m["cpu.parallel_speedup"] = serial_s / since(t0);
  }

  // tables: construction, and a frontier-tier NW traceback.
  {
    std::vector<double> ms;
    Tracer::Scope span(tracer, "tables.alloc", 0);
    for (const Input* in : reps)
      ms.push_back(ops(in->kind).alloc_s(in->problem.get()) * 1e3);
    m["tables.alloc_ms"] = mean(ms);
  }
  {
    double peak = 0;
    for (const auto& st : log.stats)
      peak = std::max(peak, static_cast<double>(st.peak_table_bytes));
    m["tables.peak_table_mb"] = peak / kMiB;
    const Input* nw = representative(reps, Kind::kNeedlemanWunsch, w);
    lddp::RunConfig rc;
    rc.mode = lddp::Mode::kCpuParallel;
    rc.schedule = lddp::cpu::Schedule::kStealing;
    const SolveOutcome out = ops(nw->kind).solve(
        nw->problem.get(), rc, Tier::kFrontier, true, tracer, 0);
    m["tables.checkpoint_rows"] =
        static_cast<double>(out.stats.checkpoint_rows);
    m["tables.remat_bands"] = static_cast<double>(out.remat_bands);
    m["tables.remat_cells"] = static_cast<double>(out.remat_cells);
    m["tables.work_inflation"] = static_cast<double>(out.remat_cells) /
                                 static_cast<double>(out.table_cells);
    m["tables.traceback_ms"] = out.traceback_s * 1e3;
  }

  // sim: recorded schedules of one unit, and their replay.
  {
    std::vector<const lddp::sim::Timeline*> timelines = log.timelines;
    std::vector<std::unique_ptr<lddp::sim::Timeline>> owned;
    double cells = log.cells;
    std::size_t span_from = log.span_from, span_to = log.span_to;
    if (w.batch) {
      // The engine records inside its workers; re-record from outside.
      cells = 0;
      span_from = tracer->spans().size();
      for (const Request& r : w.unit) {
        const Input& in = w.inputs[r.input];
        owned.push_back(std::make_unique<lddp::sim::Timeline>());
        ops(in.kind).record(in.problem.get(), w.config(r), r.tier,
                            owned.back().get(), tracer, 0);
        timelines.push_back(owned.back().get());
        cells += static_cast<double>(w.cells(r));
      }
      span_to = tracer->spans().size();
    }
    double n_ops = 0;
    for (const auto* t : timelines) n_ops += static_cast<double>(t->op_count());
    m["sim.ops"] = n_ops;
    m["sim.ops_per_cell"] = n_ops / cells;
    const lddp::BatchConfig bc = w.batch ? w.engine : lddp::BatchConfig{};
    Merge merge;
    {
      Tracer::Scope span(tracer, "sim.merge", 0);
      merge = replay(timelines, bc);
    }
    m["sim.merge_ms"] = merge.seconds * 1e3;
    m["sim.merge_ns_per_op"] = merge.seconds / n_ops * 1e9;
    m["sim.replay_makespan_ms"] = merge.makespan_ms;
    m["core.framework.solve_ms"] =
        median_span_ms(*tracer, span_from, span_to, "core.framework.solve");
    double cpu = 0, gpu = 0, dma = 0, h2d = 0, d2h = 0;
    for (const auto& st : log.stats) {
      cpu += st.cpu_busy_seconds;
      gpu += st.gpu_busy_seconds;
      dma += st.copy_busy_seconds;
      h2d += static_cast<double>(st.h2d_bytes);
      d2h += static_cast<double>(st.d2h_bytes);
    }
    m["sim.cpu_busy_ms"] = cpu * 1e3;
    m["sim.gpu_busy_ms"] = gpu * 1e3;
    m["sim.dma_ms"] = dma * 1e3;
    m["sim.h2d_mb"] = h2d / kMiB;
    m["sim.d2h_mb"] = d2h / kMiB;
  }

  // core.batch_engine: per-batch means of the engine's own report.
  {
    const auto& reps_b = engine_log.reports;
    const double n =
        static_cast<double>(std::max<std::size_t>(1, reps_b.size()));
    double hit = 0, occ = 0, packs = 0, saved = 0, deferrals = 0, inflight = 0;
    for (const auto& r : reps_b) {
      hit += r.lane_hit_rate;
      occ += r.lane_occupancy;
      packs += static_cast<double>(r.packs);
      saved += r.pack_saved_seconds * 1e3;
      deferrals += static_cast<double>(r.budget_deferrals);
      inflight = std::max(
          inflight, static_cast<double>(r.peak_inflight_table_bytes));
    }
    m["core.batch_engine.wait_ms"] = mean(engine_log.wait_ms);
    m["core.batch_engine.lane_hit_rate"] = hit / n;
    m["core.batch_engine.lane_occupancy"] = occ / n;
    m["core.batch_engine.packs"] = packs / n;
    m["core.batch_engine.pack_saved_ms"] = saved / n;
    m["core.batch_engine.budget_deferrals"] = deferrals / n;
    m["core.batch_engine.peak_inflight_table_mb"] = inflight / kMiB;
    double arena = 0;
    if (!reps_b.empty()) {
      const auto& a = reps_b.back().arena;
      if (a.hits + a.misses > 0)
        arena = static_cast<double>(a.hits) /
                static_cast<double>(a.hits + a.misses);
    }
    m["core.batch_engine.arena_hit_rate"] = arena;
  }

  m["host.stream_gb_s"] = host.stream_gb_s;
  m["host.simd_gops"] = host.simd_gops;
  return m;
}

}  // namespace perfbench
