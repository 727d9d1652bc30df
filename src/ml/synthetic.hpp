// Seeded synthetic feature matrices for the ML tests and micro benchmarks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "ml/matrix.hpp"
#include "util/rng.hpp"

namespace sent::ml {

/// l x d standard-normal entries, drawn in row-major order.
inline Matrix normal_matrix(std::size_t l, std::size_t d,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix x(l, d);
  double* p = x.data();
  for (std::size_t i = 0, n = l * d; i < n; ++i) p[i] = rng.normal();
  return x;
}

/// l x d rows drawn from u distinct normal rows: the first u rows are the
/// distinct ones in order, the rest are seeded picks among them. The shape
/// of instruction-counter features, where most intervals repeat a few
/// execution paths.
inline Matrix duplicated_matrix(std::size_t l, std::size_t d, std::size_t u,
                                std::uint64_t seed) {
  Matrix pool = normal_matrix(u, d, seed);
  util::Rng rng(seed ^ 0x9a7e);
  Matrix x(l, d);
  for (std::size_t i = 0; i < l; ++i) {
    std::span<const double> src = pool.row(i < u ? i : rng.below(u));
    std::copy(src.begin(), src.end(), x.row(i).begin());
  }
  return x;
}

}  // namespace sent::ml
