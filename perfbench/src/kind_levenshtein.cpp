#include "kind_impl.h"
#include "problems/levenshtein.h"

namespace perfbench {
namespace {
struct Traits {
  using P = lddp::problems::LevenshteinProblem;
  static Made<P> make(std::size_t side, std::uint64_t seed) {
    return sequence_pair<P>(side, seed);
  }
};
}  // namespace
const KindOps& ops_levenshtein() { return KindImpl<Traits>::ops(); }
}  // namespace perfbench
