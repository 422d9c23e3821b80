#include "kind_impl.h"
#include "problems/alignment.h"

namespace perfbench {
namespace {
struct Traits {
  using P = lddp::problems::SmithWatermanProblem;
  static Made<P> make(std::size_t side, std::uint64_t seed) {
    return sequence_pair<P>(side, seed);
  }
};
}  // namespace
const KindOps& ops_sw() { return KindImpl<Traits>::ops(); }
}  // namespace perfbench
