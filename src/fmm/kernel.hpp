#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "common/vec3.hpp"

// Spherical-harmonic expansion operators for the fast-multipole Hartree far
// field (Greengard–Rokhlin lemmas, exafmm-alpha idiom). Expansions are in
// semi-normalized complex harmonics with the same Legendre convention as the
// repo's real basis (grid/ylm.cpp: no Condon–Shortley phase),
//
//   Ytil_n^m(theta,phi) = sqrt((n-|m|)!/(n+|m|)!) P_n^{|m|}(cos theta) e^{i m phi},
//
// so an atom's Delley moments convert to complex moments by a diagonal map
// (atom_moments_to_multipole) and a cell multipole reproduces exactly the
// analytic far field MultipolePotential evaluates atom by atom. Operators:
//
//   P2M   point charge -> multipole          (tests / aggregate bounds)
//   M2M   child multipole -> parent multipole (upward pass)
//   M2L   multipole -> local                  (far-field interaction)
//   L2L   parent local -> child local         (downward pass)
//   L2P   local -> potential at a point
//   M2P   multipole -> potential at a point   (validation path)

namespace swraman::fmm {

using Cplx = std::complex<double>;

// Flat index of (n, m) with n >= 0, -n <= m <= n.
[[nodiscard]] constexpr std::size_t nm_index(int n, int m) {
  return static_cast<std::size_t>(n * (n + 1) + m);
}
// Number of coefficients for expansions up to `order` inclusive.
[[nodiscard]] constexpr std::size_t nm_count(int order) {
  return static_cast<std::size_t>((order + 1) * (order + 1));
}

class FmmKernel {
 public:
  // Scratch buffers for the operator evaluations; hold one per thread (or
  // per logical CPE) so the hot loops never heap-allocate.
  struct Workspace {
    std::vector<double> leg;   // semi-normalized Legendre table
    std::vector<Cplx> harm;    // solid-harmonic buffer
  };

  // `order` is the expansion truncation p; coefficient arrays hold
  // nm_count(order) complex values. Internal tables go to 2*order (M2L
  // needs irregular harmonics of degree j+n <= 2p).
  explicit FmmKernel(int order);

  [[nodiscard]] int order() const { return order_; }

  // Regular solid harmonics R_n^m(d) = rho^n Ytil_n^m up to degree `deg`
  // into out[nm_index(n,m)] (resized to nm_count(deg)).
  void regular(const Vec3& d, int deg, std::vector<Cplx>& out,
               std::vector<double>& leg) const;
  // Irregular solid harmonics S_n^m(d) = Ytil_n^m / rho^{n+1}.
  void irregular(const Vec3& d, int deg, std::vector<Cplx>& out,
                 std::vector<double>& leg) const;

  // Point charge q at d = body - center, accumulated into M.
  void p2m(double q, const Vec3& d, Cplx* M, Workspace& ws) const;

  // Converts one atom's real Delley moments q_lm (repo flat lm order,
  // lmax <= order) into complex moments about the atom center, accumulated
  // into M. The far-field series Sum M_n^m Ytil_n^m / r^{n+1} then equals
  // MultipolePotential's analytic far field for that atom.
  void atom_moments_to_multipole(const double* q_lm, int lmax, Cplx* M) const;

  // Translates child moments (about child center) to the parent center;
  // d = child_center - parent_center. Accumulates into M_parent.
  void m2m(const Cplx* M_child, const Vec3& d, Cplx* M_parent,
           Workspace& ws) const;

  // Converts a source multipole into a local expansion about the target
  // center; d = source_center - target_center. Accumulates into L.
  // m2l is irregular(d, 2 * order) then m2l_combine; a pass that
  // translates several potentials' multipoles along one d computes the
  // harmonics once and combines once per potential.
  void m2l(const Cplx* M, const Vec3& d, Cplx* L, Workspace& ws) const;
  void m2l_combine(const Cplx* M, const Cplx* irr, Cplx* L) const;

  // Translates a parent local expansion to a child center;
  // d = child_center - parent_center. Accumulates into L_child.
  void l2l(const Cplx* L_parent, const Vec3& d, Cplx* L_child,
           Workspace& ws) const;

  // Potential at d = point - center from a local expansion.
  // l2p is regular(d, order) then l2p_combine, split as m2l is.
  [[nodiscard]] double l2p(const Cplx* L, const Vec3& d, Workspace& ws) const;
  [[nodiscard]] double l2p_combine(const Cplx* L, const Cplx* reg) const;

  // Potential at d = point - center directly from a multipole expansion.
  [[nodiscard]] double m2p(const Cplx* M, const Vec3& d, Workspace& ws) const;

  // Flop counts per single operator application (for CPE modeled-cycle
  // accounting): dominated by the O(p^4) translation double loops.
  [[nodiscard]] double m2l_flops() const;
  [[nodiscard]] double l2p_flops() const;

 private:
  [[nodiscard]] double A(int n, int m) const {
    return a_[nm_index(n, m)];
  }

  int order_;
  // A_n^m = (-1)^n / sqrt((n-m)!(n+m)!) up to degree 2*order.
  std::vector<double> a_;
};

class Octree;

// The downward L2L pass over `tree`: every non-root cell's local gets its
// parent's local, translated to its center, added after its own M2L
// contributions, parents first, so each cell ends holding every
// ancestor's far field. `locals` holds n_pots potential-major blocks of
// tree.cells().size() * nm_count(K.order()) coefficients. Runs level by
// level, one threads::claim_each launch per level (inline inside a
// threads:: task); a cell reads only its final parent, so the result is
// bitwise the serial top-down pass in cell order.
void l2l_pass(const FmmKernel& K, const Octree& tree, std::size_t n_pots,
              Cplx* locals);

// Conservative analytic bound on the potential error of one far-field
// (M2L) interaction at expansion order p, including the upstream M2M and
// downstream L2L truncation. `abs_moment` holds, per degree l, the
// aggregate absolute source-cell moment  A_l = sum_{atoms,m} |M^a_{l,m}|;
// ra/rb are the source/target cell bounding radii and dist the
// center-to-center distance. Infinite when the pair violates the MAC
// (ra + rb >= dist).
[[nodiscard]] double m2l_error_bound(const std::vector<double>& abs_moment,
                                     double ra, double rb, double dist,
                                     int order);

}  // namespace swraman::fmm
