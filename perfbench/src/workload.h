// The benchmark's workloads: what each one submits, and the closed loops
// that run them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/batch_engine.h"

namespace perfbench {

class Tracer;

struct Input {
  Kind kind;
  std::size_t side;
  std::uint64_t seed;
  ProblemRef problem;  ///< built by Workload::generate()
};

struct Request {
  std::size_t input;  ///< index into Workload::inputs
  lddp::Mode mode;
  Tier tier;
  bool traceback;
};

/// One workload, fully determined by its name and seed. A *unit* is one
/// solo cycle (every request once, back to back) or one batch (every
/// request submitted, then BatchEngine::wait()). Successive units take the
/// requests in `orders` in turn, so a run averages over several seeded
/// orders instead of depending on one.
struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  bool batch = false;
  std::vector<Input> inputs;
  std::vector<Request> unit;
  /// Request orders the units rotate through; orders[0] is `unit`.
  std::vector<std::vector<Request>> orders;
  lddp::BatchConfig engine;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 5;
  /// Latency samples a run must collect so that `tail_percentile` has at
  /// least ten samples beyond it.
  std::size_t min_samples = 0;
  double tail_percentile = 0.0;

  static bool known(const std::string& name);
  static Workload make(const std::string& name, std::uint64_t seed);

  /// Builds every input problem from its seed.
  void generate();
  /// Fingerprint of the request sequence and every generated input.
  std::uint64_t digest() const;
  lddp::RunConfig config(const Request& r) const;
  std::size_t cells(const Request& r) const {
    return inputs[r.input].side * inputs[r.input].side;
  }
};

/// Measurements of one timed phase.
struct Phase {
  double wall_s = 0.0;
  std::size_t units = 0;
  std::size_t solves = 0;
  double cells = 0.0;
  std::vector<double> latency_ms;
  // Per unit: wall time, latency samples collected, solves completed.
  std::vector<double> unit_wall_s;
  std::vector<double> unit_samples;
  std::vector<double> unit_solves;
  /// Simulated makespan of one unit in each order (-1 until run); every
  /// repeat of an order must reproduce it exactly.
  std::vector<double> order_sim_ms;
  bool sim_stable = true;

  /// Mean simulated makespan over the orders run.
  double sim_makespan_ms() const;

  /// Appends another phase's measurements of the same workload.
  void add(const Phase& o);
};

/// Failure accounting and the answers to check after timing.
struct Ledger {
  std::size_t attempted = 0;
  std::size_t exceptions = 0;
  std::size_t refused = 0;
  std::vector<std::pair<std::size_t, Answer>> answers;  ///< (input, answer)
};

/// What the traced phase collects for the per-layer metrics.
struct LayerLog {
  std::vector<lddp::SolveStats> stats;  ///< one unit's requests
  std::vector<const lddp::sim::Timeline*> timelines;
  std::vector<std::unique_ptr<lddp::sim::Timeline>> owned;
  std::vector<double> submit_us;
  std::vector<double> wait_ms;
  std::vector<lddp::BatchReport> reports;
  double cells = 0.0;
  /// Tracer span indices [span_from, span_to) of the traced phase.
  std::size_t span_from = 0, span_to = 0;
};

/// Set-up state: generated inputs and, for batch workloads, the engine.
struct Session {
  Workload w;
  std::unique_ptr<lddp::BatchEngine> engine;
  std::size_t next_unit = 0;  ///< units run so far (selects the order)
};

/// Generates the inputs, builds the engine, and runs a warm-up.
Session set_up(const std::string& name, std::uint64_t seed);

/// Runs whole units until `seconds` have passed, at least `min_samples`
/// latencies were collected and every order ran once (or exactly `units`
/// units when `units` > 0). `log`, when given, receives layer details:
/// every batch, or the first solo cycle it sees.
Phase run_phase(Session& s, double seconds, std::size_t units,
                Ledger& ledger, Tracer* tracer, LayerLog* log);

/// Reference answer of every input (Mode::kCpuSerial, full tier).
std::vector<Answer> references(const Workload& w);

}  // namespace perfbench
