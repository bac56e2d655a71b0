// The paper's level 1 on the host: energy_hessian, the 6N displaced
// geometries of RamanCalculator and the field stencil of BecCalculator run
// their independent solves concurrently (geometry_threads() in
// raman/vibrations.hpp). Each loop must give bitwise what the serial loop
// gives (an armed fault injector, even a silent one, keeps it serial), a
// failing geometry must surface the error the serial loop stops at once
// every solve has finished, and a parallel run's checkpoint must replay to
// the same spectrum.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "raman/bec.hpp"
#include "raman/raman.hpp"
#include "raman/vibrations.hpp"
#include "robustness/fault.hpp"

namespace swraman::raman {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

void expect_bitwise(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(bits(a(i, j)), bits(b(i, j))) << i << "," << j;
    }
  }
}

// Minimal basis on a coarse grid: the many solves stay cheap, and under
// TSan too.
scf::ScfOptions fast_scf() {
  scf::ScfOptions o;
  o.species.tier = basis::Tier::Minimal;
  o.grid.n_radial = 16;
  o.grid.angular_order = 7;
  return o;
}

std::vector<grid::AtomSite> h2() {
  return {{1, {0.0, 0.0, 0.0}}, {1, {0.0, 0.0, 1.45}}};
}

RamanOptions fast_raman() {
  RamanOptions o;
  o.vibrations.scf = fast_scf();
  return o;
}

// Armed but silent: no loop here visits the DMA site, yet an armed
// injector runs every geometry loop serially on the caller.
void arm_silently() {
  fault::FaultInjector::instance().configure(fault::kDmaFail,
                                             fault::FaultSpec{});
  ASSERT_EQ(geometry_threads(), 1u);
}

TEST(GeometryParallel, HessianIsBitwiseTheSerialLoop) {
  fault::ScopedFaults faults;
  EXPECT_EQ(geometry_threads(), threads::hardware_threads());
  VibrationOptions opt;
  opt.scf = fast_scf();
  const linalg::Matrix parallel = energy_hessian(h2(), opt);
  arm_silently();
  const linalg::Matrix serial = energy_hessian(h2(), opt);
  expect_bitwise(parallel, serial);
}

TEST(GeometryParallel, DalphaAndDmuAreBitwiseTheSerialLoop) {
  fault::ScopedFaults faults;
  RamanCalculator parallel(h2(), fast_raman());
  const linalg::Matrix da_parallel = parallel.polarizability_derivatives();
  EXPECT_EQ(parallel.n_polarizabilities(), 12);
  arm_silently();
  RamanCalculator serial(h2(), fast_raman());
  const linalg::Matrix da_serial = serial.polarizability_derivatives();
  EXPECT_EQ(serial.n_polarizabilities(), 12);
  expect_bitwise(da_parallel, da_serial);
  expect_bitwise(parallel.dipole_derivatives(), serial.dipole_derivatives());
}

TEST(GeometryParallel, BecFieldRecordsAreBitwiseTheSerialLoop) {
  fault::ScopedFaults faults;
  BecOptions opt;
  opt.vibrations.scf = fast_scf();
  BecCalculator parallel(h2(), opt);
  const std::vector<GeometryRecord> got = parallel.field_records();
  EXPECT_EQ(parallel.n_field_forces(), 13);
  arm_silently();
  BecCalculator serial(h2(), opt);
  const std::vector<GeometryRecord> want = serial.field_records();
  EXPECT_EQ(serial.n_field_forces(), 13);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t idx = 0; idx < got.size(); ++idx) {
    for (std::size_t k = 0; k < 9; ++k) {
      EXPECT_EQ(bits(got[idx].alpha[k]), bits(want[idx].alpha[k])) << idx;
    }
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(bits(got[idx].dipole[k]), bits(want[idx].dipole[k])) << idx;
    }
    ASSERT_EQ(got[idx].forces.size(), want[idx].forces.size());
    for (std::size_t k = 0; k < got[idx].forces.size(); ++k) {
      EXPECT_EQ(bits(got[idx].forces[k]), bits(want[idx].forces[k])) << idx;
    }
  }
}

// The (coord, sign) keys of a checkpoint file's geometry records.
std::set<std::pair<std::size_t, char>> checkpoint_keys(
    const std::string& path) {
  std::set<std::pair<std::size_t, char>> keys;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream rec(line);
    std::string kind;
    std::size_t coord = 0;
    char sign = 0;
    if (rec >> kind >> coord >> sign && kind == "geom") {
      keys.emplace(coord, sign);
    }
  }
  return keys;
}

// Geometry slots run in the serial order (coord 0 +, coord 0 -, coord 1 +,
// ...). A step of one bond length along z lands H2's two nuclei on each
// other at exactly two of them: coord 2 + (slot 4) and coord 5 - (slot
// 11); every other displaced geometry is an ordinary molecule.
struct FailedRun {
  std::string what;
  std::set<std::pair<std::size_t, char>> durable;
};

FailedRun run_until_failure(const std::string& path) {
  std::remove(path.c_str());
  RamanOptions opt = fast_raman();
  opt.alpha_displacement = 1.45;
  opt.geometry_attempts = 1;
  opt.checkpoint_path = path;
  RamanCalculator calc(h2(), opt);
  FailedRun run;
  try {
    (void)calc.polarizability_derivatives();
    ADD_FAILURE() << "the coincident-nuclei geometry did not fail";
  } catch (const Error& e) {
    run.what = e.what();
  }
  // The call returned only after every solve in flight had finished, so
  // the file no longer changes.
  run.durable = checkpoint_keys(path);
  EXPECT_EQ(checkpoint_keys(path), run.durable);
  std::remove(path.c_str());
  return run;
}

TEST(GeometryParallel, FailingGeometryRethrowsTheSerialLoopsError) {
  fault::ScopedFaults faults;
  const std::string path = ::testing::TempDir() + "raman_level1_fail.txt";
  const FailedRun parallel = run_until_failure(path);
  arm_silently();
  const FailedRun serial = run_until_failure(path);

  // Serially, slots 0-3 finish and slot 4 (coord 2 +) throws.
  const std::set<std::pair<std::size_t, char>> before = {
      {0, '+'}, {0, '-'}, {1, '+'}, {1, '-'}};
  EXPECT_EQ(serial.durable, before);
  EXPECT_EQ(parallel.what, serial.what);
  // In parallel every slot below the failing one finished too; slots
  // above it that were already in flight may have finished as well.
  for (const auto& key : before) EXPECT_EQ(parallel.durable.count(key), 1u);
  EXPECT_EQ(parallel.durable.count({2, '+'}), 0u);
  EXPECT_EQ(parallel.durable.count({5, '-'}), 0u);
}

TEST(GeometryParallel, ParallelCheckpointReplaysToTheSameSpectrum) {
  fault::ScopedFaults faults;
  const std::string path = ::testing::TempDir() + "raman_level1_ckpt.txt";
  std::remove(path.c_str());
  RamanCalculator reference(h2(), fast_raman());
  const RamanSpectrum want = reference.compute();

  RamanOptions opt = fast_raman();
  opt.checkpoint_path = path;
  RamanCalculator written(h2(), opt);
  const RamanSpectrum first = written.compute();
  EXPECT_EQ(written.n_polarizabilities(), 12);
  EXPECT_EQ(checkpoint_keys(path).size(), 12u);

  RamanCalculator replayed(h2(), opt);
  const RamanSpectrum second = replayed.compute();
  EXPECT_EQ(replayed.n_polarizabilities(), 0);

  for (const RamanSpectrum* got : {&first, &second}) {
    ASSERT_EQ(got->modes.size(), want.modes.size());
    for (std::size_t m = 0; m < want.modes.size(); ++m) {
      EXPECT_EQ(bits(got->modes[m].frequency_cm),
                bits(want.modes[m].frequency_cm));
      EXPECT_EQ(bits(got->modes[m].activity), bits(want.modes[m].activity));
      EXPECT_EQ(bits(got->modes[m].ir_intensity),
                bits(want.modes[m].ir_intensity));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swraman::raman
