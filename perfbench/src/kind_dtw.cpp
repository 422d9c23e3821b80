#include "kind_impl.h"
#include "problems/dtw.h"

namespace perfbench {
namespace {
struct Traits {
  using P = lddp::problems::DtwProblem;
  static Made<P> make(std::size_t side, std::uint64_t seed) {
    std::vector<double> a = gen::walk(side - 1, seed);
    std::vector<double> b = gen::walk(side - 1, seed ^ 0xb);
    const std::uint64_t d =
        gen::fnv(b.data(), b.size() * sizeof(double),
                 gen::fnv(a.data(), a.size() * sizeof(double)));
    return {P(std::move(a), std::move(b)), d};
  }
};
}  // namespace
const KindOps& ops_dtw() { return KindImpl<Traits>::ops(); }
}  // namespace perfbench
