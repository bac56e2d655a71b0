#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "grid/atom_grid.hpp"

// Checkpoint/restart for the 6N displaced-geometry polarizability loop —
// the longest stage of the Raman pipeline (paper Sec. 2.3) and the one a
// node failure is most likely to interrupt on a large system. Every
// finished geometry (coordinate index + displacement sign) is appended to
// a versioned text file together with its polarizability tensor and
// dipole, flushed immediately; a resumed run replays the file and
// re-evaluates only the geometries that are missing, reproducing the
// fault-free spectrum bit-for-bit because the stored values round-trip at
// full double precision (%.17g).
//
// File format (one record per line, whitespace-separated):
//
//   swraman-raman-checkpoint <version>
//   system <n_coords> <displacement> <geometry-fingerprint-hex>
//   geom <coord> <+|-|0> <alpha(0,0)..alpha(2,2)> <mu_x> <mu_y> <mu_z>
//        [f <n> <F_0> ... <F_{n-1}>]   (tail on the same geom line)
//
// The bec tier reuses the same file: finite-field force records are keyed
// (field-stencil index, sign '0') — the index is a stencil slot rather
// than a coordinate, so it is bounded by kMaxFieldRecords instead of
// n_coords — and carry an optional flat-forces tail after the dipole.
// The header's displacement slot holds the field strength there, so the
// fingerprint still refuses cross-configuration resumes.
//
// A truncated trailing record (the signature of a crash mid-write) is
// dropped silently; a header or fingerprint mismatch — the file belongs
// to a different molecule, displacement, or format version — throws
// CheckpointError rather than silently mixing incompatible data.

namespace swraman::raman {

struct GeometryRecord {
  std::array<double, 9> alpha{};  // row-major 3x3 polarizability
  std::array<double, 3> dipole{};
  // Flat 3N forces; empty for displacement records, filled for the bec
  // tier's finite-field records.
  std::vector<double> forces;
  // SCF total energy, Hartree. Filled by raman::evaluate and never
  // persisted: a replayed record carries 0.
  double energy = 0.0;
};

class Checkpoint {
 public:
  static constexpr int kVersion = 1;
  // Upper bound on the stencil index of a sign-'0' (field) record; loose
  // on purpose so the file format survives a larger stencil.
  static constexpr std::size_t kMaxFieldRecords = 64;

  // Inactive checkpoint: lookups miss, records are no-ops.
  Checkpoint() = default;

  // Binds to `path`, validating any existing file against the geometry
  // (atom count, elements, positions) and displacement step and loading
  // its finished records. Creates the file (with header) when absent.
  Checkpoint(std::string path, const std::vector<grid::AtomSite>& atoms,
             double displacement);

  [[nodiscard]] bool active() const { return !path_.empty(); }

  // Number of finished geometry records currently known.
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  // Returns the stored record for (coord, sign) or nullptr.
  [[nodiscard]] const GeometryRecord* lookup(std::size_t coord,
                                             int sign) const;

  // Appends a finished geometry and flushes it to disk immediately so a
  // crash never loses more than the geometry in flight.
  void record(std::size_t coord, int sign, const GeometryRecord& rec);

 private:
  void write_header(std::size_t n_coords, double displacement,
                    std::uint64_t fp) const;
  void append_record(const std::pair<std::size_t, int>& key,
                     const GeometryRecord& rec) const;

  std::string path_;
  std::map<std::pair<std::size_t, int>, GeometryRecord> records_;
};

}  // namespace swraman::raman
