#include "raman/raman.hpp"

#include <cmath>
#include <utility>

#include "common/constants.hpp"
#include "common/elements.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"
#include "raman/evaluate.hpp"
#include "robustness/fault.hpp"

namespace swraman::raman {

RamanCalculator::RamanCalculator(std::vector<grid::AtomSite> atoms,
                                 RamanOptions options)
    : atoms_(std::move(atoms)), options_(std::move(options)) {
  SWRAMAN_REQUIRE(!atoms_.empty(), "RamanCalculator: no atoms");
}

linalg::Matrix RamanCalculator::polarizability_derivatives() {
  SWRAMAN_TRACE_SPAN(span, "raman.dalpha");
  const std::size_t n = 3 * atoms_.size();
  if (span.active()) span.attr("coords", static_cast<double>(n));
  const double d = options_.alpha_displacement;
  Checkpoint ckpt;
  if (!options_.checkpoint_path.empty()) {
    ckpt = Checkpoint(options_.checkpoint_path, atoms_, d);
  }

  // Slot 2 * coord + s: s = 0 for +d, 1 for -d.
  std::vector<SlotKey> keys;
  keys.reserve(2 * n);
  for (std::size_t coord = 0; coord < n; ++coord) {
    keys.push_back({coord, +1});
    keys.push_back({coord, -1});
  }
  Wants wants;
  wants.alpha = &options_.dfpt;
  const std::vector<GeometryRecord> rec = fan_out(
      keys, ckpt,
      {"raman.geometry", fault::kRamanKill, options_.geometry_attempts}, {},
      [&](const SlotKey& key) {
        GeometryRecord r =
            evaluate(grid::displaced(atoms_, key.index, key.sign * d),
                     options_.vibrations.scf, wants);
        n_polarizabilities_.fetch_add(1, std::memory_order_relaxed);
        return r;
      });

  linalg::Matrix deriv;
  displacement_derivatives(rec, d, &deriv, &dmu_);
  return deriv;
}

void displacement_derivatives(const std::vector<GeometryRecord>& records,
                              double d, linalg::Matrix* dalpha,
                              linalg::Matrix* dmu) {
  SWRAMAN_REQUIRE(!records.empty() && records.size() % 6 == 0,
                  "displacement_derivatives: expected 2 records per coordinate");
  const std::size_t n = records.size() / 2;
  linalg::Matrix da(n, 9);
  linalg::Matrix dm(n, 3);
  for (std::size_t coord = 0; coord < n; ++coord) {
    const GeometryRecord& plus = records[2 * coord];
    const GeometryRecord& minus = records[2 * coord + 1];
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        da(coord, 3 * i + j) =
            (plus.alpha[3 * i + j] - minus.alpha[3 * i + j]) / (2.0 * d);
      }
      dm(coord, i) = (plus.dipole[i] - minus.dipole[i]) / (2.0 * d);
    }
  }
  *dalpha = std::move(da);
  *dmu = std::move(dm);
}

RamanSpectrum RamanCalculator::compute() {
  SWRAMAN_TRACE_SPAN(span, "raman.compute");
  if (span.active()) span.attr("atoms", static_cast<double>(atoms_.size()));

  // Step 1: Hessian and normal modes.
  linalg::Matrix hess;
  {
    SWRAMAN_TRACE_SCOPE("raman.hessian");
    hess = energy_hessian(atoms_, options_.vibrations);
  }
  const NormalModes modes = normal_modes(
      atoms_, hess, options_.vibrations.project_rigid_body);

  // Step 2: d(alpha)/dR at 6N displaced geometries (paper Eq. 5).
  const linalg::Matrix dalpha = polarizability_derivatives();

  // Step 3 + 4: contract with mode eigenvectors, form activities.
  SWRAMAN_TRACE_SCOPE("raman.spectrum");
  RamanSpectrum spec = assemble_spectrum(atoms_, modes, dalpha, dmu_,
                                         options_.mode_floor_cm);
  spec.n_polarizabilities = n_polarizabilities_;
  return spec;
}

RamanSpectrum assemble_spectrum(const std::vector<grid::AtomSite>& atoms,
                                const NormalModes& modes,
                                const linalg::Matrix& dalpha,
                                const linalg::Matrix& dmu,
                                double mode_floor_cm) {
  const std::size_t n = 3 * atoms.size();
  SWRAMAN_REQUIRE(dalpha.rows() == n && dalpha.cols() == 9,
                  "assemble_spectrum: dalpha must be 3N x 9");
  SWRAMAN_REQUIRE(dmu.rows() == n && dmu.cols() == 3,
                  "assemble_spectrum: dmu must be 3N x 3");
  RamanSpectrum spec;

  // Unit conversions: d(alpha)/dQ in Bohr^2/sqrt(amu) -> A^2/sqrt(amu)
  // wait: alpha [Bohr^3], dQ [sqrt(amu) Bohr] -> Bohr^2/sqrt(amu);
  // activities conventionally in A^4/amu: scale by (A/Bohr)^4.
  const double unit = std::pow(kAngstromPerBohr, 4);

  for (std::size_t p = 0; p < n; ++p) {
    if (modes.frequencies_cm[p] < mode_floor_cm) continue;

    // dalpha/dQ_p = sum_I (dalpha/dx_I) e_{I,p} / sqrt(m_I); the stored
    // cartesian_modes are already x = q / sqrt(m) with q normalized, so
    // dalpha/dQ_p = sum_coord dalpha_coord * cart(coord, p) * sqrt(m_me)
    // ... in mass-weighted a.u.; convert masses to amu at the end.
    double aprime[3][3] = {};
    for (std::size_t coord = 0; coord < n; ++coord) {
      const double e = modes.cartesian_modes(coord, p);
      if (e == 0.0) continue;
      for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
          aprime[i][j] += dalpha(coord, 3 * i + j) * e;
    }
    // cartesian_modes columns are normalized in mass-weighted coordinates
    // with masses in electron-mass units; rescale to amu^{-1/2}.
    const double to_amu = std::sqrt(kMeAmu);
    for (auto& row : aprime) {
      for (double& v : row) v *= to_amu;
    }

    const double a_mean =
        (aprime[0][0] + aprime[1][1] + aprime[2][2]) / 3.0;
    double gamma2 = 0.0;
    gamma2 += 0.5 * ((aprime[0][0] - aprime[1][1]) *
                         (aprime[0][0] - aprime[1][1]) +
                     (aprime[1][1] - aprime[2][2]) *
                         (aprime[1][1] - aprime[2][2]) +
                     (aprime[2][2] - aprime[0][0]) *
                         (aprime[2][2] - aprime[0][0]));
    gamma2 += 3.0 * (aprime[0][1] * aprime[0][1] +
                     aprime[1][2] * aprime[1][2] +
                     aprime[0][2] * aprime[0][2]);

    // IR intensity: d(mu)/dQ_p in atomic units (e bohr per sqrt(me) bohr),
    // converted to D/(A sqrt(amu)) — 1 au = 2.541746/(0.529177/42.6953)
    // = 205.07 — then the standard 42.2561 (D/A)^-2 amu km/mol factor.
    double dmu_q2 = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      double v = 0.0;
      for (std::size_t coord = 0; coord < n; ++coord) {
        v += dmu(coord, i) * modes.cartesian_modes(coord, p);
      }
      dmu_q2 += v * v;
    }
    const double au_to_d_per_ang_sqrt_amu =
        2.541746 / (kAngstromPerBohr / std::sqrt(kMeAmu));

    RamanMode mode;
    mode.frequency_cm = modes.frequencies_cm[p];
    mode.ir_intensity = 42.2561 * au_to_d_per_ang_sqrt_amu *
                        au_to_d_per_ang_sqrt_amu * dmu_q2;
    mode.activity = (45.0 * a_mean * a_mean + 7.0 * gamma2) * unit;
    const double denom = 45.0 * a_mean * a_mean + 4.0 * gamma2;
    mode.depolarization = denom > 0.0 ? 3.0 * gamma2 / denom : 0.0;
    mode.cartesian.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      mode.cartesian[i] = modes.cartesian_modes(i, p);
    }
    spec.modes.push_back(std::move(mode));
  }
  return spec;
}

double observed_raman_intensity(double activity, double frequency_cm,
                                double laser_cm, double temperature_k) {
  SWRAMAN_REQUIRE(frequency_cm > 0.0 && laser_cm > frequency_cm,
                  "observed_raman_intensity: need 0 < nu < nu0");
  SWRAMAN_REQUIRE(temperature_k > 0.0,
                  "observed_raman_intensity: temperature > 0");
  // hc/kB = 1.438777 cm K.
  const double x = 1.4387769 * frequency_cm / temperature_k;
  const double boltzmann = 1.0 - std::exp(-x);
  const double shift = laser_cm - frequency_cm;
  return shift * shift * shift * shift / frequency_cm / boltzmann * activity;
}

BroadenedSpectrum broaden(const std::vector<RamanMode>& modes,
                          double sigma_cm, double min_cm, double max_cm,
                          double step_cm) {
  SWRAMAN_REQUIRE(sigma_cm > 0.0 && step_cm > 0.0 && max_cm > min_cm,
                  "broaden: invalid parameters");
  BroadenedSpectrum out;
  for (double w = min_cm; w <= max_cm; w += step_cm) {
    double s = 0.0;
    for (const RamanMode& m : modes) {
      const double d = w - m.frequency_cm;
      // Lorentzian with HWHM sigma.
      s += m.activity * (sigma_cm * sigma_cm) /
           (d * d + sigma_cm * sigma_cm) / (kPi * sigma_cm);
    }
    out.wavenumber_cm.push_back(w);
    out.intensity.push_back(s);
  }
  return out;
}

BroadenedSpectrum compose(
    const std::vector<std::pair<BroadenedSpectrum, double>>& parts) {
  SWRAMAN_REQUIRE(!parts.empty(), "compose: no spectra");
  BroadenedSpectrum out = parts.front().first;
  for (double& v : out.intensity) v *= parts.front().second;
  for (std::size_t k = 1; k < parts.size(); ++k) {
    const BroadenedSpectrum& s = parts[k].first;
    SWRAMAN_REQUIRE(s.wavenumber_cm.size() == out.wavenumber_cm.size(),
                    "compose: spectra must share the wavenumber grid");
    for (std::size_t i = 0; i < out.intensity.size(); ++i) {
      out.intensity[i] += parts[k].second * s.intensity[i];
    }
  }
  return out;
}

}  // namespace swraman::raman
