#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "grid/atom_grid.hpp"
#include "raman/raman.hpp"
#include "scf/scf_engine.hpp"
#include "serve/job.hpp"

// Seeded input generators of the three benchmark workloads. Everything the
// program under test receives is built here from (workload, seed); the
// same seed always yields byte-identical inputs (checked by selfcheck.py
// through dump_serve_burst).

namespace swbench {

using swraman::grid::AtomSite;

// splitmix64 stream: portable, so a seed means the same inputs on every
// standard library (std::uniform_real_distribution is not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

// --- water_raman: golden water, golden numerics, Direct Hartree ---

// Geometry and numerics of tests/golden/test_golden_spectrum.cpp, rigidly
// translated by a seeded offset in [-1, 1]^3 Bohr. A rigid translation
// moves the atom-centred grids with the atoms, so the spectrum stays
// comparable to the golden snapshot while the floating-point history of
// every solve differs from seed to seed.
std::vector<AtomSite> water_raman_geometry(std::uint64_t seed);
swraman::raman::RamanOptions water_raman_options();

// --- cluster_polar: one SCF + DFPT polarizability under the FMM ---

inline constexpr std::size_t kClusterMolecules = 12;

// molecules::water_cluster(kClusterMolecules), rigidly translated by a
// seeded offset in [-1, 1]^3 Bohr.
std::vector<AtomSite> cluster_geometry(std::uint64_t seed);
// Minimal tier, Hirshfeld grid 14/7, multipole lmax 4; `fmm` selects the
// FMM backend (order 4, theta 0.6), otherwise Direct (the reference).
swraman::scf::ScfOptions cluster_options(bool fmm);

// Isotropic polarizability of the cluster under the Direct backend at
// cluster_options(false), Bohr^3 (workload cluster_polar_direct; equal to
// 1e-10 for every seed, since a rigid translation leaves it invariant), and
// the accepted deviation of an FMM result from it.
inline constexpr double kClusterAlphaDirect = 62.473036;
inline constexpr double kClusterAlphaTol = 0.01;

// --- serve_burst: a burst of real-engine jobs from four tenants ---

struct BurstJob {
  swraman::serve::JobSpec spec;
  // Index (in submission order) of the job this one repeats exactly, or -1
  // for a distinct job.
  int repeat_of = -1;
};

inline constexpr std::size_t kBurstTenants = 4;
inline constexpr std::size_t kBurstWorkers = 3;

// Jobs in submission order. The composition, the tenant of each job and the
// order are fixed; the seed draws each distinct job's distortion and which
// jobs of each kind are repeated.
std::vector<BurstJob> serve_burst_jobs(std::uint64_t seed);

// Canonical text image of a burst (hex-float coordinates), the byte string
// the determinism self-check compares.
std::string dump_serve_burst(const std::vector<BurstJob>& jobs);

// Distinct elements of a geometry list, ascending.
std::vector<int> elements_of(const std::vector<std::vector<AtomSite>>& geoms);

}  // namespace swbench
