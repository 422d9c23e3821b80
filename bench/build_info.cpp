// Build provenance for the BENCH_*.json stanza. The values arrive as
// compile definitions on this file alone (bench/CMakeLists.txt).

#ifndef LDDP_GIT_SHA
#define LDDP_GIT_SHA "unknown"
#endif
#ifndef LDDP_CXX_FLAGS
#define LDDP_CXX_FLAGS "unknown"
#endif

namespace lddp::bench {

const char* build_git_sha() { return LDDP_GIT_SHA; }
const char* build_cxx_flags() { return LDDP_CXX_FLAGS; }

}  // namespace lddp::bench
