#pragma once

// Local-density-approximation exchange-correlation: Slater exchange plus
// Perdew-Wang 1992 correlation (spin-unpolarized), the paper's level of
// theory ("LDA functional"). For each density n we provide
//
//   eps_xc(n) : XC energy per electron,
//   v_xc(n)   : XC potential d(n eps_xc)/dn,
//   f_xc(n)   : XC response kernel dv_xc/dn, the local kernel entering the
//               DFPT response Hamiltonian.
//
// All derivatives are analytic; tests cross-check them against finite
// differences.

namespace swraman::xc {

struct XcPoint {
  double eps = 0.0;  // energy per electron
  double v = 0.0;    // potential
  double f = 0.0;    // kernel dv/dn
};

enum class Functional {
  LdaPw92,   // Slater X + PW92 C (default, used everywhere)
  SlaterX,   // exchange only (testing / ablation)
};

// Evaluates the functional at density n >= 0. n below 1e-14 returns zeros
// (numerically empty regions of the integration grid).
XcPoint evaluate(Functional f, double n);

// The parts of evaluate() a caller reads, each bitwise the same field of
// evaluate(f, n) and computed without the others' extra work: the SCF
// effective potential reads eps and v, the force Lagrangian eps, and the
// DFPT response kernel f.
struct XcEnergyPotential {
  double eps = 0.0;
  double v = 0.0;
};
XcEnergyPotential energy_potential(Functional f, double n);
double energy(Functional f, double n);
double kernel(Functional f, double n);

// Individual pieces, exposed for unit tests.
XcPoint slater_exchange(double n);
XcPoint pw92_correlation(double n);

}  // namespace swraman::xc
