#include "kind_impl.h"
#include "problems/synthetic.h"

namespace perfbench {
namespace {
struct Traits {
  using P = lddp::problems::MaxNwProblem;
  static Made<P> make(std::size_t side, std::uint64_t seed) {
    auto input = gen::grid<std::int32_t>(side, seed, 0, 1000);
    const std::uint64_t d = gen::digest(input);
    return {P(std::move(input), 3), d};
  }
};
}  // namespace
const KindOps& ops_maxnw() { return KindImpl<Traits>::ops(); }
}  // namespace perfbench
