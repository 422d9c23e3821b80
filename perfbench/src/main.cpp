// Benchmark program: runs one workload (or all of them) and prints one JSON
// line of raw measurements, which perfbench/run.py turns into metrics.
//
//   perfbench --workload solo_large --seed 1 --seconds 10 --trace 0
//
// Options: --units N runs exactly N units instead of timing; --out DIR
// receives the span file of a traced run; --corrupt-answer K flips the
// K-th collected answer before the correctness check (tests use it).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/lane_kernels.h"
#include "cpu/stealing_executor.h"
#include "probes.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t units = 0;
  long long corrupt = -1;
  std::string out = ".bench_out";
};

std::string quote(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Minimal JSON object builder.
class Obj {
 public:
  Obj& raw(const std::string& k, const std::string& json) {
    s_ += (s_.size() > 1 ? ", " : "") + quote(k) + ": " + json;
    return *this;
  }
  Obj& num(const std::string& k, double v) { return raw(k, number(v)); }
  Obj& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Obj& list(const std::string& k, const std::vector<double>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      a += (i ? ", " : "") + number(v[i]);
    return raw(k, a + "]");
  }
  std::string done() const { return s_ + "}"; }

 private:
  std::string s_ = "{";
};

std::string phase_json(const Phase& p) {
  return Obj()
      .num("wall_s", p.wall_s)
      .num("units", static_cast<double>(p.units))
      .num("solves", static_cast<double>(p.solves))
      .num("cells", p.cells)
      .num("sim_makespan_ms", p.sim_makespan_ms())
      .list("order_sim_ms", p.order_sim_ms)
      .raw("sim_stable", p.sim_stable ? "true" : "false")
      .list("latency_ms", p.latency_ms)
      .list("unit_wall_s", p.unit_wall_s)
      .list("unit_samples", p.unit_samples)
      .list("unit_solves", p.unit_solves)
      .done();
}

std::string provenance_json() {
  return Obj()
      .str("compiler",
           std::string(PERFBENCH_COMPILER) + " (" + __VERSION__ + ")")
      .str("flags", PERFBENCH_CXX_FLAGS)
      .num("hardware_concurrency", std::thread::hardware_concurrency())
      .num("llc_bytes", static_cast<double>(llc_bytes()))
      .str("lane_isa", lddp::lanes::active_isa())
      .num("lane_width",
           static_cast<double>(lddp::lanes::preferred_lane_width()))
      .num("executor_workers",
           static_cast<double>(1 + lddp::cpu::shared_executor_workers()))
      .done();
}

/// Counts answers that differ from the serial reference of their input.
std::size_t mismatches(const Workload& w, const Ledger& ledger) {
  const std::vector<Answer> ref = references(w);
  std::size_t bad = 0;
  for (const auto& [input, answer] : ledger.answers)
    if (answer.bits != ref[input].bits) ++bad;
  return bad;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string run_workload(const std::string& name, const Args& a) {
  // Set-up: input generation, engine construction and warm-up, repeated.
  std::vector<double> setup_s;
  Session s;
  do {
    const auto t0 = clock::now();
    Session next = set_up(name, a.seed);
    setup_s.push_back(
        std::chrono::duration<double>(clock::now() - t0).count());
    s = std::move(next);
  } while (static_cast<int>(setup_s.size()) < s.w.setup_reps);
  // A traced run alternates untraced and traced units, so drift over the
  // run cancels out of the tracing overhead.
  Ledger ledger;
  Tracer tracer;
  LayerLog log;
  Phase untraced, traced;
  const auto t0 = clock::now();
  if (!a.trace) {
    untraced = run_phase(s, a.seconds, a.units, ledger, nullptr, nullptr);
  } else {
    log.span_from = tracer.spans().size();
    const std::size_t units = std::max<std::size_t>(1, a.units / 2);
    for (;;) {
      untraced.add(run_phase(s, 0.0, 1, ledger, nullptr, nullptr));
      traced.add(run_phase(s, 0.0, 1, ledger, &tracer, &log));
      const bool enough =
          untraced.latency_ms.size() >= s.w.min_samples &&
          traced.latency_ms.size() >= s.w.min_samples &&
          std::chrono::duration<double>(clock::now() - t0).count() >=
              a.seconds;
      if (a.units > 0 ? traced.units >= units : enough) break;
    }
    log.span_to = tracer.spans().size();
  }

  Obj out;
  out.str("workload", name)
      .num("seed", static_cast<double>(a.seed))
      .num("trace", a.trace ? 1 : 0)
      .raw("provenance", provenance_json());
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(s.w.digest()));
  std::string shapes = "[";
  for (const Request& r : s.w.unit) {
    const Input& in = s.w.inputs[r.input];
    shapes += (shapes.size() > 1 ? ", " : "") + std::string("[") +
              quote(to_string(in.kind)) + ", " + std::to_string(in.side) +
              ", " + quote(lddp::to_string(r.mode)) + ", " +
              quote(to_string(r.tier)) + "]";
  }
  out.str("inputs_digest", digest)
      .raw("unit", shapes + "]")
      .num("unit_requests", static_cast<double>(s.w.unit.size()))
      .num("inputs", static_cast<double>(s.w.inputs.size()))
      .num("tail_percentile", s.w.tail_percentile)
      .num("min_samples", static_cast<double>(s.w.min_samples))
      .list("setup_s", setup_s)
      .raw("phase", phase_json(untraced));

  std::size_t probe_attempted = 0, probe_failed = 0;
  if (a.trace) {
    LayerLog engine_log;
    if (!s.w.batch) {
      // The batch engine is off the solo request path: measure its layer on
      // enough batch_mixed-class batches (large frontier solves beside small
      // ones under a tight memory budget) for a p99 of submit().
      Session probe = set_up("batch_mixed", a.seed);
      Ledger pl;
      const std::size_t units = 1000 / probe.w.unit.size() + 2;
      run_phase(probe, 0.0, units, pl, &tracer, &engine_log);
      probe_attempted = pl.attempted;
      probe_failed = pl.exceptions + pl.refused + mismatches(probe.w, pl);
    }
    const HostBounds host = measure_host(&tracer);
    const auto layers =
        layer_metrics(s, log, s.w.batch ? log : engine_log, host, &tracer);
    Obj lj;
    for (const auto& [k, v] : layers) lj.num(k, v);
    Obj self;
    for (const auto& [k, v] : tracer.self_ms()) self.num(k, v);
    std::filesystem::create_directories(a.out);
    const std::string path =
        a.out + "/trace-" + name + "-" + std::to_string(a.seed) + ".json";
    tracer.write_chrome(path);
    out.raw("traced_phase", phase_json(traced))
        .raw("layers", lj.done())
        .list("submit_us", s.w.batch ? log.submit_us : engine_log.submit_us)
        .raw("self_ms", self.done())
        .num("spans", static_cast<double>(tracer.spans().size()))
        .str("trace_file", path)
        .raw("host", Obj()
                         .num("llc_mb", host.llc_mb)
                         .num("stream_array_mb", host.array_mb)
                         .str("simd_isa", host.simd_isa)
                         .done());
  }

  if (a.corrupt >= 0 &&
      static_cast<std::size_t>(a.corrupt) < ledger.answers.size())
    ledger.answers[static_cast<std::size_t>(a.corrupt)].second.bits ^= 1;
  const std::size_t bad = mismatches(s.w, ledger);
  const double run_rss_mb = peak_rss_mb();
  out.raw("checks",
          Obj()
              .num("attempted",
                   static_cast<double>(ledger.attempted + probe_attempted))
              .num("exceptions", static_cast<double>(ledger.exceptions))
              .num("refused", static_cast<double>(ledger.refused))
              .num("mismatches", static_cast<double>(bad))
              .num("probe_failed", static_cast<double>(probe_failed))
              .num("checked", static_cast<double>(ledger.answers.size()))
              .done())
      .num("peak_rss_mb", run_rss_mb);
  return out.done();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload solo_large|batch_small|"
               "batch_mixed|all --seed N --seconds S --trace 0|1 "
               "[--units N] [--out DIR] [--corrupt-answer K]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--units") a.units = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--out") a.out = v;
    else if (k == "--corrupt-answer") a.corrupt = std::atoll(v.c_str());
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  std::vector<std::string> names;
  if (a.workload == "all")
    names = {"solo_large", "batch_small"};
  else if (Workload::known(a.workload))
    names = {a.workload};
  else
    return usage();
  std::string runs = "[";
  for (std::size_t k = 0; k < names.size(); ++k)
    runs += (k ? ", " : "") + run_workload(names[k], a);
  std::printf("{\"runs\": %s]}\n", runs.c_str());
  return 0;
}
