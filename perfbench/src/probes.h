// Host reference bounds and the per-layer probes of the traced run.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

class Tracer;

struct HostBounds {
  double llc_mb = 0.0;        ///< last-level cache the host reports
  double array_mb = 0.0;      ///< stream probe array (>= 4x the LLC)
  double stream_gb_s = 0.0;   ///< read + write bandwidth over that array
  double simd_gops = 0.0;     ///< one core's vector int32 add/min rate
  const char* simd_isa = "";  ///< the vector width the SIMD probe used
};

std::size_t llc_bytes();

HostBounds measure_host(Tracer* tracer);

/// Per-layer metrics by name. `log` holds what the traced phase recorded;
/// `engine_log` the batch-engine details (the workload's own batches, or a
/// batch_small probe for solo workloads).
std::map<std::string, double> layer_metrics(const Session& s,
                                            const LayerLog& log,
                                            const LayerLog& engine_log,
                                            const HostBounds& host,
                                            Tracer* tracer);

}  // namespace perfbench
