#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/spline.hpp"
#include "common/vec3.hpp"
#include "grid/atom_grid.hpp"
#include "grid/ylm.hpp"

// Multipole electrostatics after Delley (J. Phys. Chem. 100, 6107 (1996)) —
// the real-space Poisson solver of the paper (Sec. 3.2, "kernel1"). The
// Becke-partitioned density is projected onto real spherical harmonics on
// each atom's radial shells,
//
//   rho^a_lm(r_s) = sum_{angular points} w_ang Y_lm(u) p_a(x) n(x),
//
// each (a, lm) channel is solved by the radial Green's function,
//
//   V_lm(r) = 4pi/(2l+1) [ r^-(l+1) I<(r) + r^l I>(r) ],
//
// the channels are cubic-splined over the shell radii, and the molecular
// potential is the sum over atoms with analytic multipole far fields.
//
// Storage is knot-major, the host counterpart of the Algorithm 2 CSI tables
// (Fig. 7): per atom one knot vector (the shell radii) and two tables,
// spline values and natural-spline second derivatives, each laid out
// [knot][lm]. All channels of an atom share the knots, so a point finds its
// radial interval and its interpolation weights once, and the lm loop reads
// the two bounding knot rows of each table contiguously. Each channel is
// evaluated with exactly the expression of CubicSpline::value, so results
// are bitwise those of one CubicSpline per channel. sunway::build_csi_tables
// converts the same tables into Algorithm 2's per-interval monomials.
//
// Resolved channels: a shell's angular rule of design order n resolves the
// Y_l Y_l product only up to l = n/2, and the projection drops every higher
// channel on that shell. Atom a therefore carries density only in channels
// l <= l_res(a) = min(lmax, max over a's shells of n/2); every higher
// channel has an all-zero density, so its table columns and moments are
// exactly 0.0. Solve and evaluation stop at l_res(a). The tables keep all
// (lmax+1)^2 columns, the dropped ones zero; each dropped evaluation term
// would add +-0.0 to the sum, and real_ylm(u, l_res) is a bitwise prefix of
// real_ylm(u, lmax), so results are bitwise those of running every channel.
//
// Evaluation plan: everything the evaluation computes per (grid point,
// atom) pair besides the table reads depends on geometry alone: Y_lm up to
// l_res(a), the radial interval and its SplineWeights inside the atom's
// outer radius, the far-field prefactors 4pi/(2l+1)/r^(l+1) beyond it. An
// engine that iterates (ScfEngine::solve) asks for the plan with
// request_plan(); the first evaluate_on_grid after that tabulates those
// values once, under std::call_once, and every later evaluation only
// gathers them. The cached doubles come from the same expressions and are
// combined in the same order, so planned and unplanned results are bitwise
// equal. The plan stops at kPlanByteCap; points past the cap are evaluated
// by MultipolePotential::value as before.

namespace swraman::hartree {

// The solved potential: per-atom knot-major radial spline tables plus
// far-field multipole moments.
class MultipolePotential {
 public:
  // One atom's radial channels over its shell radii. values and second
  // are n_knots x n_lm, row-major: entry [k * n_lm + lm] is V_lm (resp.
  // its natural-spline second derivative) at knots[k]. Empty for an atom
  // without shells.
  struct RadialTable {
    std::vector<double> knots;   // shell radii, ascending
    std::vector<double> values;  // V_lm(knots[k])
    std::vector<double> second;  // d2 V_lm / dr2 at knots[k]
  };

  // Reusable per-thread scratch for point evaluation: the real-Y_lm basis
  // buffer and real_ylm's scratch (recurrence tables, cached constants)
  // that value() would otherwise heap-allocate per call. Callers on hot
  // loops (the FMM P2P kernel) hold one per thread.
  struct Workspace {
    std::vector<double> ylm;
    grid::YlmWorkspace ylm_scratch;
  };

  // Potential value at an arbitrary point. Uses a thread-local Workspace;
  // allocation-free after the first call on each thread.
  [[nodiscard]] double value(const Vec3& point) const;

  // Same, with a caller-provided workspace (no thread-local lookup).
  [[nodiscard]] double value(const Vec3& point, Workspace& ws) const;

  // Contribution of a single atom to the potential at `point`: the radial
  // spline channels inside the atom's outer radius, the analytic multipole
  // far field beyond it. value() is exactly the atom-ordered sum of these
  // terms; the FMM near field (P2P) evaluates the same expression so that
  // near-pair arithmetic is identical between backends.
  [[nodiscard]] double value_atom(std::size_t atom, const Vec3& point,
                                  Workspace& ws) const;

  [[nodiscard]] std::size_t n_atoms() const { return centers_.size(); }

  // Total charge seen by the far field (sum of the l=0 moments); equals the
  // integrated density when the grid resolves it.
  [[nodiscard]] double total_charge() const;

  [[nodiscard]] int lmax() const { return lmax_; }

  // Highest channel l the atom's shells resolve (see the header comment);
  // table columns and moments above it are zero. -1 for an atom without
  // shells.
  [[nodiscard]] int l_res(std::size_t atom) const { return l_res_[atom]; }

  // Multipole moment q_lm of atom a (flat lm index), defined as
  // integral rho_lm s^{l+2} ds.
  [[nodiscard]] double moment(std::size_t atom, std::size_t lm) const;

  // Raw per-atom data, used by the Sunway CSI kernel to build its
  // structure-of-arrays spline-coefficient tables.
  [[nodiscard]] const std::vector<Vec3>& centers() const { return centers_; }
  [[nodiscard]] double outer_radius(std::size_t atom) const {
    return outer_radius_[atom];
  }
  [[nodiscard]] const RadialTable& table(std::size_t atom) const {
    return tables_[atom];
  }

 private:
  friend class MultipoleSolver;
  void accumulate_atom(std::size_t atom, const Vec3& point, Workspace& ws,
                       double& v) const;
  int lmax_ = 0;
  std::vector<int> l_res_;                       // per atom
  std::vector<Vec3> centers_;
  std::vector<double> outer_radius_;             // per atom
  std::vector<RadialTable> tables_;              // per atom
  std::vector<std::vector<double>> moments_;     // [atom][lm]
};

class MultipoleSolver {
 public:
  // The grid must retain its shell structure (grid.shells non-empty).
  MultipoleSolver(const grid::MolecularGrid& grid, int lmax = 6);

  // Solves Poisson for the density given at the grid points.
  [[nodiscard]] MultipolePotential solve(
      const std::vector<double>& density) const;

  // Potential of a solve of this solver evaluated on every grid point:
  // through the evaluation plan when one was requested, pointwise value()
  // otherwise (bitwise the same). Safe to call from several threads.
  [[nodiscard]] std::vector<double> evaluate_on_grid(
      const MultipolePotential& pot) const;

  // evaluate_on_grid(solve(density)) under one "hartree.poisson" span.
  [[nodiscard]] std::vector<double> solve_on_grid(
      const std::vector<double>& density) const;

  // Asks for the evaluation plan (see the header comment); the next
  // evaluate_on_grid builds it. For solvers that evaluate many times.
  void request_plan() {
    plan_requested_.store(true, std::memory_order_release);
  }

  // Grid points the built plan covers (a prefix of the grid) and its heap
  // size; both 0 until the plan is built, and for solvers without one.
  [[nodiscard]] std::size_t planned_points() const;
  [[nodiscard]] std::size_t plan_bytes() const;

  // Fixed per-solver memory budget of the plan.
  static constexpr std::size_t kPlanByteCap = std::size_t{16} << 20;

  [[nodiscard]] int lmax() const { return lmax_; }

 private:
  // Per (point, atom) pair, in point-major, atom order. interval holds the
  // radial interval of a near pair or kFarPair; coef holds, per pair of an
  // atom with shells, either the SplineWeights (a, b, a3, b3, h2) or the
  // l_res + 1 far-field prefactors, followed by the n_lm(l_res) Y_lm.
  struct Plan {
    static constexpr std::uint32_t kFarPair = UINT32_MAX;
    std::size_t n_points = 0;
    std::vector<std::uint32_t> interval;  // [point * n_atoms + atom]
    std::vector<double> coef;
  };
  void build_plan() const;
  // Geometry-static radial data of one atom, built once by the
  // constructor: shells, spline system and the Green's-function powers of
  // every shell radius for l = 0..l_res, each [l * n_shells + s].
  struct AtomRadial {
    int l_res = -1;
    std::vector<std::size_t> shells;  // grid shell indices, ascending radius
    std::vector<double> radii;        // their radii
    NaturalSplineKnots spline;        // natural-spline system on radii
    std::vector<double> pow_lt;       // r^(l+2), integrand of I<
    std::vector<double> pow_gt;       // r^(1-l), integrand of I>
    std::vector<double> pow_in;       // r^(l+1), divides I<
    std::vector<double> pow_out;      // r^l, multiplies I>
    std::vector<double> pow_inner;    // r_0^(l+3), inner-sphere term, [l]
  };

  const grid::MolecularGrid& grid_;
  int lmax_;
  std::size_t n_lm_ = 0;
  std::size_t n_channels_ = 0;  // sum over atoms of n_lm(l_res)
  // Y_lm of every grid point about its owning atom, n_points x ylm_stride_
  // row-major; ylm_stride_ = n_lm(max l_res) covers every projected channel.
  std::vector<double> ylm_;
  std::size_t ylm_stride_ = 0;
  std::vector<AtomRadial> radial_;  // per atom

  std::atomic<bool> plan_requested_{false};
  mutable std::once_flag plan_once_;
  mutable std::atomic<bool> plan_built_{false};  // set after plan_ is filled
  mutable Plan plan_;
};

}  // namespace swraman::hartree
