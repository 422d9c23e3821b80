// Batch-front execution contract (the SIMD batch-kernel layer).
//
// The wavefront-major layouts (tables/layout.h) store each front as a
// dense 1-D array — exactly the shape vector code wants. A FrontSpan
// describes one contiguous affine run of a front's *interior* cells
// together with densely packed neighbour values, so a problem can compute
// the whole run in one branchless pass instead of one `compute` call per
// cell. Two fallbacks remain: the front runner's generic span loop
// (one `compute` call per lane on the same packed values) serves problems
// without the hook and spans a hook rejects, and the per-cell
// `compute_cell` path serves edges, short runs and
// `RunConfig::batch_kernels = false` — the differential oracle. Batch
// results must be bit-identical to it.
#pragma once

#include <concepts>
#include <cstddef>

namespace lddp {

/// One affine run of interior cells of a single front. Lane k (0 <= k <
/// len) is cell (i0 + k*di, j0 + k*dj). The caller guarantees:
///  * every lane is interior — i >= 1, j >= 1, and j + 1 < cols whenever
///    the contributing set includes NE — so f never needs its base-case
///    or edge branches;
///  * for each dependency in deps(), the matching pointer holds the
///    neighbour's value at index k, already final (neighbours of interior
///    lanes live in earlier fronts); pointers of unused deps are null;
///  * out[k] receives lane k's value; out does not alias the inputs.
///
/// Lane packing (inter-solve vectorization): `lanes` > 1 declares that
/// each front position carries the same cell of `lanes` interleaved
/// solves — position k's values for all solves occupy elements
/// [k * lane_stride, k * lane_stride + lanes) of every span, with
/// lane_stride >= lanes (padded to a vector-width multiple so aligned
/// vector access works at every position; padding elements replicate
/// solve 0). The per-solve hooks in the problem headers implement only
/// lanes == 1 (and return false otherwise); interleaved spans are
/// executed by the lane-generic kernels in core/lane_kernels.h, which
/// the lane-cohort driver dispatches by ISA at runtime.
template <typename V>
struct FrontSpan {
  std::size_t i0 = 0, j0 = 0;    ///< grid coordinates of lane 0
  std::ptrdiff_t di = 0, dj = 0; ///< per-lane step through the grid
  std::size_t len = 0;
  std::size_t lanes = 1;         ///< interleaved solves per position
  std::size_t lane_stride = 1;   ///< elements between positions (>= lanes)
  const V* w = nullptr;
  const V* nw = nullptr;
  const V* n = nullptr;
  const V* ne = nullptr;
  V* out = nullptr;
};

/// Detects the optional batch hook `bool compute_front(FrontSpan)`. The
/// hook returns false when it does not implement the span's shape (e.g. a
/// knight-move dj == +2 a kernel only tuned for anti-diagonals); the
/// front runner then computes that run with its generic span loop.
template <typename P>
concept BatchFrontProblem =
    requires(const P& p, const FrontSpan<typename P::Value>& s) {
      { p.compute_front(s) } -> std::convertible_to<bool>;
    };

template <typename P>
inline constexpr bool has_batch_front_v = BatchFrontProblem<P>;

}  // namespace lddp
