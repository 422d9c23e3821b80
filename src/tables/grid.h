// Row-major 2-D host array. Used for problem inputs (cost grids, images)
// and as the DP result table: the wavefront engines compute each front
// contiguously (layout.h order, core/strategies/front_window.h) and drain
// retired fronts into this row-major grid — the paper's split between
// coalescing-friendly and consumer-friendly storage.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.h"

namespace lddp {

namespace detail {

/// Allocator adaptor that turns the container's value-initialization into
/// default-initialization: vector<T, ...>(n) leaves trivial T unwritten.
/// Only Grid::uninitialized uses this path; every other construction still
/// value-initializes through the (n, fill) overload.
template <typename T>
struct DefaultInitAlloc : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAlloc<U>;
  };
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

template <typename T>
class Grid {
 public:
  Grid() = default;
  Grid(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    LDDP_CHECK_MSG(rows > 0 && cols > 0, "Grid dimensions must be positive");
  }

  /// A grid whose cells are NOT initialized (for trivial T). Only for
  /// callers that overwrite every cell before any read — e.g. assembling
  /// the result table from a fully computed device buffer; skipping the
  /// fill matters at large sizes, where zeroing tens of MB that are about
  /// to be overwritten costs as much as the compute itself.
  static Grid uninitialized(std::size_t rows, std::size_t cols) {
    Grid g;
    g.rows_ = rows;
    g.cols_ = cols;
    g.data_ = Storage(rows * cols);  // default-init via DefaultInitAlloc
    LDDP_CHECK_MSG(rows > 0 && cols > 0, "Grid dimensions must be positive");
    return g;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& at(std::size_t i, std::size_t j) {
    LDDP_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  const T& at(std::size_t i, std::size_t j) const {
    LDDP_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  bool operator==(const Grid&) const = default;

 private:
  using Storage = std::vector<T, detail::DefaultInitAlloc<T>>;

  std::size_t rows_ = 0, cols_ = 0;
  Storage data_;
};

}  // namespace lddp
