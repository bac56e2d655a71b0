#pragma once

#include <cstddef>
#include <vector>

#include "common/vec3.hpp"

// Real spherical harmonics Y_lm on the unit sphere, with the standard
// quantum-chemistry ordering and normalization:
//
//   integral Y_lm Y_l'm' dOmega = delta_ll' delta_mm'
//
// Real harmonics are indexed by (l, m) with m = -l..l; m < 0 are the
// sin(|m| phi) combinations, m > 0 the cos(m phi) ones. The flat index is
// lm_index(l, m) = l*(l+1) + m, covering 0..(lmax+1)^2 - 1.

namespace swraman::grid {

constexpr std::size_t lm_index(int l, int m) {
  return static_cast<std::size_t>(l * (l + 1) + m);
}

constexpr std::size_t n_lm(int lmax) {
  return static_cast<std::size_t>((lmax + 1) * (lmax + 1));
}

// Highest degree real_ylm evaluates. The Legendre recurrence constants
// depend on (l, m) alone; they sit in one process-wide table built once up
// to this degree, and an evaluation needs no scratch.
inline constexpr int kYlmMaxDegree = 32;

// Evaluates all real Y_lm for l = 0..lmax (0 <= lmax <= kYlmMaxDegree) at
// unit direction u into out[0, n_lm(lmax)). u does not need to be
// normalized; the zero vector maps to the north pole. real_ylm(u, l) is
// bitwise the first n_lm(l) entries of real_ylm(u, L) for every L >= l.
// Touches no allocator: this is the form for per-point hot loops.
void real_ylm(const Vec3& u, int lmax, double* out);

// Same, into out resized to n_lm(lmax); bitwise the pointer form.
void real_ylm(const Vec3& u, int lmax, std::vector<double>& out);

// Convenience wrapper returning the vector (allocates the result).
std::vector<double> real_ylm(const Vec3& u, int lmax);

}  // namespace swraman::grid
