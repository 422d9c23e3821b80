#include "kind_impl.h"
#include "problems/lcs.h"

namespace perfbench {
namespace {
struct Traits {
  using P = lddp::problems::LcsProblem;
  static Made<P> make(std::size_t side, std::uint64_t seed) {
    return sequence_pair<P>(side, seed);
  }
};
}  // namespace
const KindOps& ops_lcs() { return KindImpl<Traits>::ops(); }
}  // namespace perfbench
