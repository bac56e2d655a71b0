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

// Scratch buffers for real_ylm: hold one per thread and the evaluation
// never heap-allocates after the first call (the hot Hartree / FMM
// per-point paths depend on this). The workspace also caches the Legendre
// recurrence constants, which depend on (l, m) alone; they are built up to
// the largest lmax asked for so far and serve every smaller lmax, so
// callers that alternate lmax (per-atom channel counts in the Hartree
// evaluation) do not rebuild them.
struct YlmWorkspace {
  std::vector<double> q;   // associated-Legendre table, [l(l+1)/2 + m]
  std::vector<double> cm;  // cos(m phi)
  std::vector<double> sm;  // sin(m phi)

  int const_lmax = -1;       // lmax the constants below cover
  std::vector<double> diag;  // Q_mm from Q_(m-1)(m-1): sqrt((2m+1)/(2m))
  std::vector<double> sub;   // Q_(m+1)m from Q_mm: sqrt(2m+3)
  std::vector<double> ra;    // upward-in-l recurrence a_lm, [l(l+1)/2 + m]
  std::vector<double> rb;    // upward-in-l recurrence b_lm, [l(l+1)/2 + m]
};

// Evaluates all real Y_lm for l = 0..lmax at unit direction u into out
// (resized to n_lm(lmax)). u does not need to be normalized; the zero vector
// maps to the north pole. real_ylm(u, l) is bitwise the first n_lm(l)
// entries of real_ylm(u, L) for every L >= l.
void real_ylm(const Vec3& u, int lmax, std::vector<double>& out,
              YlmWorkspace& ws);

// Convenience overload on a thread-local workspace: allocation-free after
// warm-up (out keeps its capacity), constants cached as above.
void real_ylm(const Vec3& u, int lmax, std::vector<double>& out);

// Convenience wrapper returning the vector (allocates the result).
std::vector<double> real_ylm(const Vec3& u, int lmax);

}  // namespace swraman::grid
