#include "kind_impl.h"
#include "problems/column_min.h"

namespace perfbench {
namespace {
struct Traits {
  using P = lddp::problems::ColumnMinPathProblem;
  static Made<P> make(std::size_t side, std::uint64_t seed) {
    auto costs = gen::grid<std::int32_t>(side, seed, 1, 100);
    const std::uint64_t d = gen::digest(costs);
    return {P(std::move(costs)), d};
  }
};
}  // namespace
const KindOps& ops_columnmin() { return KindImpl<Traits>::ops(); }
}  // namespace perfbench
