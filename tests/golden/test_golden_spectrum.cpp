#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/molecules.hpp"
#include "raman/raman.hpp"

// Golden-reference regression: the water Raman spectrum (frequencies,
// activities, depolarization ratios) is pinned to a checked-in snapshot.
// Any change to the SCF, DFPT, grid, Hessian, or collectives layers that
// shifts a peak beyond the stated tolerances fails here — including
// "harmless" reassociation bugs that every per-layer test is too local to
// see.
//
// Regenerate deliberately (after verifying the physics) with
//   SWRAMAN_GOLDEN_REGEN=1 ./test_golden
// and commit the diff of tests/golden/golden_water_raman.txt.

namespace swraman::raman {
namespace {

// Tolerances are intentionally explicit and asymmetric in kind: absolute
// for positions (instrument-like resolution), relative for intensities.
constexpr double kFreqTolCm = 1.0;     // cm^-1, absolute
constexpr double kActivityRelTol = 0.02;  // 2 percent
constexpr double kDepolTol = 0.02;     // dimensionless, absolute

std::string golden_path() {
  return std::string(SWRAMAN_GOLDEN_DIR) + "/golden_water_raman.txt";
}

// Fixed geometry, spelled out rather than taken from core/molecules so an
// (intentional) change to the library geometry cannot silently move the
// golden. This is molecules::water() BFGS-relaxed at exactly the golden
// numerics below (then symmetrized to C2v): harmonic analysis is only
// meaningful at a stationary point of the calculated surface, and pinning
// the relaxed coordinates keeps the 163-solve relaxation out of the test.
std::vector<grid::AtomSite> water_atoms() {
  return {{8, {0.0, 0.0, 0.3268247149}},
          {1, {1.2518316921, 0.0, 0.9437281316}},
          {1, {-1.2518316921, 0.0, 0.9437281316}}};
}

// Reduced-cost numerics: a coarse but fully converged grid keeps the 6N
// displaced-geometry pipeline at test-suite speed. The golden pins the
// result OF THESE settings; they are part of the reference definition.
RamanOptions golden_options() {
  RamanOptions opt;
  opt.vibrations.scf.grid.n_radial = 16;
  opt.vibrations.scf.grid.angular_order = 7;
  return opt;
}

struct GoldenMode {
  double frequency_cm = 0.0;
  double activity = 0.0;
  double depolarization = 0.0;
};

std::vector<GoldenMode> load_golden() {
  std::ifstream in(golden_path());
  SWRAMAN_REQUIRE(in.good(), "golden file missing: " + golden_path());
  std::vector<GoldenMode> modes;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    GoldenMode m;
    SWRAMAN_REQUIRE(static_cast<bool>(ss >> m.frequency_cm >> m.activity >>
                                      m.depolarization),
                    "golden file: malformed line '" + line + "'");
    modes.push_back(m);
  }
  return modes;
}

void write_golden(const RamanSpectrum& spec) {
  std::ofstream out(golden_path());
  out << "# Water Raman golden reference (geometry + numerics pinned in\n"
      << "# tests/golden/test_golden_spectrum.cpp). Columns:\n"
      << "# frequency_cm activity_A4_amu depolarization\n";
  out << std::setprecision(12);
  for (const RamanMode& m : spec.modes) {
    out << m.frequency_cm << " " << m.activity << " " << m.depolarization
        << "\n";
  }
}

TEST(GoldenSpectrum, WaterRamanPeaksMatchSnapshot) {
  RamanCalculator calc(water_atoms(), golden_options());
  const RamanSpectrum spec = calc.compute();

  if (std::getenv("SWRAMAN_GOLDEN_REGEN") != nullptr) {
    write_golden(spec);
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  const std::vector<GoldenMode> golden = load_golden();
  ASSERT_EQ(spec.modes.size(), golden.size())
      << "mode count changed — water must keep its 3 vibrational modes";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("mode " + std::to_string(i));
    EXPECT_NEAR(spec.modes[i].frequency_cm, golden[i].frequency_cm,
                kFreqTolCm);
    EXPECT_NEAR(spec.modes[i].activity, golden[i].activity,
                kActivityRelTol * std::abs(golden[i].activity));
    EXPECT_NEAR(spec.modes[i].depolarization, golden[i].depolarization,
                kDepolTol);
  }
}

// The Direct-backend water spectrum pinned bit for bit. Optimizations of
// the Direct Hartree path (and of anything upstream of it) promise to keep
// the floating-point operation order, so the result must not move by one
// ulp; the tolerance test above would let a reassociation slip through.
// The literals are C99 hex floats ("%a"). They hold for the default build
// (no -march, no FMA contraction, no fast-math) with glibc's libm; a
// toolchain that rounds differently fails here and needs a deliberate
// re-pin, not a tolerance.
TEST(GoldenSpectrum, WaterDirectBitwiseSnapshot) {
  struct Pinned {
    double frequency_cm;
    double activity;
    double depolarization;
  };
  constexpr Pinned kPinned[] = {
      {0x1.51e7d08b6ff7ep+12, 0x1.8d45899d078d5p+6, 0x1.cb73a14e86168p-2},
      {0x1.e0112a532854fp+13, 0x1.2cfb361533613p+5, 0x1.76ad8d96c575bp-1},
      {0x1.089246c26ba82p+14, 0x1.9a8c845d49ac5p+6, 0x1.7ffffffffffffp-1},
  };
  RamanCalculator calc(water_atoms(), golden_options());
  const RamanSpectrum spec = calc.compute();
  ASSERT_EQ(spec.modes.size(), std::size(kPinned));
  for (std::size_t i = 0; i < spec.modes.size(); ++i) {
    SCOPED_TRACE("mode " + std::to_string(i));
    EXPECT_EQ(spec.modes[i].frequency_cm, kPinned[i].frequency_cm);
    EXPECT_EQ(spec.modes[i].activity, kPinned[i].activity);
    EXPECT_EQ(spec.modes[i].depolarization, kPinned[i].depolarization);
  }
}

// The FMM Hartree backend must be a drop-in: the same golden water
// spectrum, against the same snapshot, within the same tolerances — only
// ScfOptions::hartree_backend differs. Water is small enough that most of
// the evaluation is exact near field (P2P), which is precisely the claim
// worth pinning: switching backends on a system below the crossover must
// not move the physics.
TEST(GoldenSpectrum, WaterRamanUnderFmmBackendMatchesSnapshot) {
  if (std::getenv("SWRAMAN_GOLDEN_REGEN") != nullptr) {
    GTEST_SKIP() << "regen runs the Direct reference only";
  }
  RamanOptions opt = golden_options();
  opt.vibrations.scf.hartree_backend = fmm::HartreeBackend::Fmm;
  RamanCalculator calc(water_atoms(), opt);
  const RamanSpectrum spec = calc.compute();

  const std::vector<GoldenMode> golden = load_golden();
  ASSERT_EQ(spec.modes.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("mode " + std::to_string(i));
    EXPECT_NEAR(spec.modes[i].frequency_cm, golden[i].frequency_cm,
                kFreqTolCm);
    EXPECT_NEAR(spec.modes[i].activity, golden[i].activity,
                kActivityRelTol * std::abs(golden[i].activity));
    EXPECT_NEAR(spec.modes[i].depolarization, golden[i].depolarization,
                kDepolTol);
  }
}

// Silane under both backends at identical (reduced) numerics: the FMM
// spectrum must sit within the golden tolerance kinds of the Direct one.
// A second element (Si) and tetrahedral symmetry exercise heavier-Z spline
// channels than water does. The pseudized valence-only variant keeps the
// 451-solve Hessian at test-suite speed and is well-conditioned on the
// coarse grid (no steep Si 1s core to resolve).
TEST(GoldenSpectrum, SilaneRamanFmmBackendMatchesDirect) {
  RamanOptions opt;
  opt.vibrations.scf.grid.n_radial = 12;
  opt.vibrations.scf.grid.angular_order = 5;
  opt.vibrations.scf.species.tier = basis::Tier::Minimal;
  opt.vibrations.scf.species.pseudized = true;
  const std::vector<grid::AtomSite> atoms = molecules::silane();

  RamanCalculator direct_calc(atoms, opt);
  const RamanSpectrum direct = direct_calc.compute();

  opt.vibrations.scf.hartree_backend = fmm::HartreeBackend::Fmm;
  RamanCalculator fmm_calc(atoms, opt);
  const RamanSpectrum fmm = fmm_calc.compute();

  ASSERT_EQ(fmm.modes.size(), direct.modes.size());
  ASSERT_FALSE(direct.modes.empty());
  for (std::size_t i = 0; i < direct.modes.size(); ++i) {
    SCOPED_TRACE("mode " + std::to_string(i));
    EXPECT_NEAR(fmm.modes[i].frequency_cm, direct.modes[i].frequency_cm,
                kFreqTolCm);
    EXPECT_NEAR(fmm.modes[i].activity, direct.modes[i].activity,
                kActivityRelTol * std::abs(direct.modes[i].activity) + 1e-12);
    EXPECT_NEAR(fmm.modes[i].depolarization, direct.modes[i].depolarization,
                kDepolTol);
  }
}

TEST(GoldenSpectrum, WaterModesAreTheExpectedBands) {
  // Sanity constraints independent of the snapshot: water has the bend
  // around the lowest frequency and two O-H stretches above it, and the
  // symmetric stretch is strongly polarized.
  const std::vector<GoldenMode> golden = load_golden();
  ASSERT_EQ(golden.size(), 3u);
  EXPECT_LT(golden[0].frequency_cm, golden[1].frequency_cm);
  EXPECT_LT(golden[1].frequency_cm, golden[2].frequency_cm);
  for (const GoldenMode& m : golden) {
    EXPECT_GT(m.frequency_cm, 100.0);
    EXPECT_GT(m.activity, 0.0);
    EXPECT_GE(m.depolarization, 0.0);
    EXPECT_LE(m.depolarization, 0.75 + 1e-9);
  }
}

}  // namespace
}  // namespace swraman::raman
