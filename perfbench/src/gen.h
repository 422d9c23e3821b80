// Seeded input generators. The benchmark makes every input itself from
// the run's seed, so the library only ever sees generated data and the same
// seed always yields the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tables/grid.h"

namespace perfbench::gen {

inline std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Uniform integer in [lo, hi].
inline std::int64_t uniform(std::uint64_t& s, std::int64_t lo,
                            std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  splitmix(s) % static_cast<std::uint64_t>(hi - lo + 1));
}

inline std::uint64_t fnv(const void* data, std::size_t n,
                         std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < n; ++k) h = (h ^ p[k]) * 0x100000001b3ULL;
  return h;
}

inline std::string sequence(std::size_t n, std::uint64_t seed) {
  static constexpr char kAlphabet[] = "ACGT";
  std::string out(n, 'A');
  for (char& c : out) c = kAlphabet[splitmix(seed) & 3];
  return out;
}

inline std::vector<double> walk(std::size_t n, std::uint64_t seed) {
  std::vector<double> out(n);
  double v = 0.0;
  for (double& x : out) {
    v += static_cast<double>(splitmix(seed) >> 11) * 0x1.0p-52 - 1.0;
    x = v;
  }
  return out;
}

template <class T>
lddp::Grid<T> grid(std::size_t n, std::uint64_t seed, std::int64_t lo,
                   std::int64_t hi) {
  lddp::Grid<T> g(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      g.at(i, j) = static_cast<T>(uniform(seed, lo, hi));
  return g;
}

template <class T>
std::uint64_t digest(const lddp::Grid<T>& g) {
  std::uint64_t h = fnv(&g.at(0, 0), 0);
  for (std::size_t i = 0; i < g.rows(); ++i)
    h = fnv(&g.at(i, 0), g.cols() * sizeof(T), h);
  return h;
}

}  // namespace perfbench::gen
