// Shared types of the repository benchmark.
//
// The benchmark drives the library only through its public entry points
// (entry_points.h). Problem types are erased behind KindOps so that each
// problem family is instantiated in its own translation unit (kind_*.cpp),
// which keeps the benchmark's compile parallel and its peak compiler memory
// bounded.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/run_config.h"

namespace lddp {
class BatchEngine;
namespace sim {
class Timeline;
}  // namespace sim
}  // namespace lddp

namespace perfbench {

class Tracer;

/// Problem families the workloads draw from.
enum class Kind {
  kLevenshtein,
  kLcs,
  kNeedlemanWunsch,
  kSmithWaterman,
  kGotoh,
  kDtw,
  kDither,
  kCheckerboard,
  kMaxNw,
  kColumnMin,
};

/// solve() materializes the whole table; solve_frontier() keeps checkpoints.
enum class Tier { kFull, kFrontier };

const char* to_string(Kind k);
const char* to_string(Tier t);

/// A checked answer: the final cell (or the NW traceback score), with an
/// exact fingerprint of its bits so that every comparison is bit-identity.
struct Answer {
  double value = 0.0;
  std::uint64_t bits = 0;
};

/// Everything one solo solve returns to the benchmark.
struct SolveOutcome {
  Answer answer;
  lddp::SolveStats stats;
  double traceback_s = 0.0;
  std::size_t table_cells = 0;
  std::size_t remat_bands = 0;
  std::size_t remat_cells = 0;
};

/// A submitted batch request whose result has not been collected yet.
class Pending {
 public:
  virtual ~Pending() = default;
  /// Waits up to `timeout` for the request; true once it has completed.
  virtual bool wait_for(std::chrono::microseconds timeout) const = 0;
  /// Blocks until the request completes; rethrows its failure.
  virtual Answer get() = 0;
};

/// Seconds and cells of one layer probe; bytes_per_cell is computed from
/// the span shape (operands read plus the result written), not measured.
struct Probe {
  double seconds = 0.0;
  std::size_t cells = 0;
  double bytes_per_cell = 0.0;
};

using ProblemRef = std::shared_ptr<const void>;

/// Type-erased operations on one problem family.
struct KindOps {
  /// Builds the problem with an n x n table from `seed`.
  ProblemRef (*make)(std::size_t side, std::uint64_t seed);
  /// Fingerprint of the generated input (determinism checks).
  std::uint64_t (*digest)(const void* problem);
  /// solve() or solve_frontier(); `traceback` walks the NW alignment and
  /// reports its score as the answer.
  SolveOutcome (*solve)(const void* problem, const lddp::RunConfig& rc,
                        Tier tier, bool traceback, Tracer* tracer,
                        std::uint64_t request);
  /// BatchEngine::submit or submit_frontier; `submit_s` receives the time
  /// spent inside the call. Null means the request was refused.
  std::unique_ptr<Pending> (*submit)(lddp::BatchEngine& engine,
                                     const void* problem,
                                     const lddp::RunConfig& rc, Tier tier,
                                     Tracer* tracer, std::uint64_t request,
                                     double* submit_s);
  /// Records the simulated schedule the batch engine would record for this
  /// request (lane-eligible requests are priced as a serial scan).
  void (*record)(const void* problem, const lddp::RunConfig& rc, Tier tier,
                 lddp::sim::Timeline* out, Tracer* tracer,
                 std::uint64_t request);
  /// Front lengths of the canonical layout, in execution order.
  std::vector<std::size_t> (*front_lengths)(const void* problem);
  /// compute_front over pre-packed interior spans; zero cells when the
  /// family has no batch-front hook.
  Probe (*kernel)(const void* problem);
  /// run_front_range over every whole front of a fresh table, one thread.
  Probe (*front_runner)(const void* problem);
  /// solve_lane_cohort over the given problems (all of this family).
  Probe (*lane_cohort)(const std::vector<const void*>& problems);
  /// Seconds to construct one full table of this problem.
  double (*alloc_s)(const void* problem);
};

const KindOps& ops(Kind k);

}  // namespace perfbench
