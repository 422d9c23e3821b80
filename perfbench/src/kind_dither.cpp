#include "kind_impl.h"
#include "problems/floyd_steinberg.h"

namespace perfbench {
namespace {
struct Traits {
  using P = lddp::problems::FloydSteinbergProblem;
  static Made<P> make(std::size_t side, std::uint64_t seed) {
    auto img = gen::grid<std::uint8_t>(side, seed, 0, 255);
    const std::uint64_t d = gen::digest(img);
    return {P(std::move(img)), d};
  }
};
}  // namespace
const KindOps& ops_dither() { return KindImpl<Traits>::ops(); }
}  // namespace perfbench
