#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "dfpt/dfpt_engine.hpp"
#include "raman/checkpoint.hpp"
#include "raman/vibrations.hpp"

// Full ab initio Raman pipeline (paper Sec. 2.3, Eq. 5):
//
//   1. harmonic normal modes from the finite-difference Hessian,
//   2. polarizability derivatives d(alpha)/dR_I from DFPT polarizabilities
//      at 6N displaced geometries (3N forward + 3N backward, exactly the
//      paper's scheme — this is the embarrassingly parallel "geometry"
//      level of the 3-level parallelization),
//   3. contraction with the mode eigenvectors to (alpha')_p,
//   4. Raman activities S_p = 45 a'^2 + 7 gamma'^2 and broadened spectra.

namespace swraman::raman {

struct RamanOptions {
  VibrationOptions vibrations;
  dfpt::DfptOptions dfpt;
  double alpha_displacement = 0.01;  // Bohr, step for d(alpha)/dR
  double mode_floor_cm = 100.0;      // drop rigid-body / noise modes
  // Checkpoint file for the 6N displaced-geometry loop (see
  // raman/checkpoint.hpp). Empty = no checkpointing. A resumed run with
  // the same geometry re-evaluates only the missing geometries and
  // reproduces the uninterrupted spectrum exactly.
  std::string checkpoint_path;
  // Bounded retry per displaced geometry: a transient failure (comm
  // timeout, recovered-then-exhausted divergence) is retried this many
  // times before the pipeline gives up and rethrows.
  int geometry_attempts = 2;
};

struct RamanMode {
  double frequency_cm = 0.0;
  double activity = 0.0;          // A^4 / amu
  double depolarization = 0.0;    // 3 g^2 / (45 a^2 + 4 g^2)
  double ir_intensity = 0.0;      // km/mol, from the dipole derivative
  std::vector<double> cartesian;  // displacement pattern (3N)
};

struct RamanSpectrum {
  std::vector<RamanMode> modes;
  // Number of DFPT polarizability evaluations performed (6N + ...).
  // Strictly the displaced-geometry count: the bec tier's finite-field
  // force evaluations are accounted separately in n_field_forces so the
  // two tiers' costs stay comparable.
  int n_polarizabilities = 0;
  // Number of finite-field force evaluations (bec tier only; zero for
  // the full DFPT pipeline).
  int n_field_forces = 0;
};

struct BroadenedSpectrum {
  std::vector<double> wavenumber_cm;
  std::vector<double> intensity;
};

class RamanCalculator {
 public:
  RamanCalculator(std::vector<grid::AtomSite> atoms, RamanOptions options);

  // Runs the full pipeline: Hessian, modes, 6N displaced polarizabilities.
  [[nodiscard]] RamanSpectrum compute();

  // d(alpha)/dR as a (3N x 9) matrix of Cartesian-displacement derivatives
  // of the flattened 3x3 polarizability (step 2 alone, exposed for tests
  // and for the geometry-parallel scaling model). Also accumulates the
  // dipole derivatives d(mu)/dR from the same displaced SCF solutions,
  // giving IR intensities for free. The 6N geometries run through
  // raman::fan_out (the paper's level 1), bitwise a serial loop.
  [[nodiscard]] linalg::Matrix polarizability_derivatives();

  // d(mu)/dR (3N x 3), valid after polarizability_derivatives()/compute().
  [[nodiscard]] const linalg::Matrix& dipole_derivatives() const {
    return dmu_;
  }

  // DFPT polarizability evaluations actually performed by this calculator
  // (checkpointed geometries that were skipped on resume do not count).
  [[nodiscard]] int n_polarizabilities() const {
    return n_polarizabilities_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<grid::AtomSite> atoms_;
  RamanOptions options_;
  linalg::Matrix dmu_;
  // Bumped by the concurrent displaced-geometry evaluations.
  std::atomic<int> n_polarizabilities_{0};
};

// Central differences of the 6N displaced-geometry records (records[2 *
// coord + (sign < 0)], the slot order of RamanCalculator and the serve
// DAG) at step d into dalpha (3N x 9) and dmu (3N x 3). Pure arithmetic
// on the records: RamanCalculator and the serve tier's assemble task
// share this one implementation, as bec_derivatives is shared for the
// bec tier, so the two paths agree bitwise.
void displacement_derivatives(const std::vector<GeometryRecord>& records,
                              double d, linalg::Matrix* dalpha,
                              linalg::Matrix* dmu);

// Steps 3 + 4 of the pipeline as a free function: contract d(alpha)/dR
// (3N x 9) and d(mu)/dR (3N x 3) with the normal modes into activities,
// depolarization ratios, and IR intensities. RamanCalculator::compute
// uses it after its own displacement loop; the serve subsystem's assembly
// task feeds it the DAG-collected derivatives — both paths share one
// implementation of the paper's Eq. 5 contraction.
RamanSpectrum assemble_spectrum(const std::vector<grid::AtomSite>& atoms,
                                const NormalModes& modes,
                                const linalg::Matrix& dalpha,
                                const linalg::Matrix& dmu,
                                double mode_floor_cm);

// Observed Stokes Raman intensity from the activity: the standard
// (nu0 - nu)^4 / nu frequency factor with the thermal Boltzmann
// population, for laser wavenumber nu0 (default 532 nm) at temperature T.
double observed_raman_intensity(double activity, double frequency_cm,
                                double laser_cm = 18796.99,
                                double temperature_k = 298.15);

// Lorentzian broadening of stick modes onto a wavenumber grid (the paper
// uses 5 cm^-1 smearing for Fig. 19).
BroadenedSpectrum broaden(const std::vector<RamanMode>& modes,
                          double sigma_cm, double min_cm, double max_cm,
                          double step_cm = 1.0);

// Weighted superposition of spectra (fragment composition for the
// protein-scale Fig. 19 substitution).
BroadenedSpectrum compose(
    const std::vector<std::pair<BroadenedSpectrum, double>>& parts);

}  // namespace swraman::raman
