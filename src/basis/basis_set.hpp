#pragma once

#include <cstddef>
#include <vector>

#include "basis/species.hpp"
#include "common/vec3.hpp"
#include "grid/atom_grid.hpp"
#include "linalg/matrix.hpp"

// Molecular basis set: the union of atom-centered species functions
// chi_{I,nlm}(r) = R_{I,nl}(|r - R_I|) Y_lm(r - R_I), flattened into a
// global index. Evaluation is locality-aware: every radial function carries
// a hard cutoff, so only functions whose center lies within reach of a
// batch are touched (this is what keeps chains like H(C2H4)nH linear-ish
// in cost and is the sparsity the paper's batch integration exploits).

namespace swraman::basis {

class BasisSet {
 public:
  struct Fn {
    int atom = 0;       // atom index in the molecule
    int species_fn = 0; // index into Species::fns
    int l = 0;
    int m = 0;          // -l..l, ordering matches grid::lm_index
  };

  BasisSet(std::vector<grid::AtomSite> atoms, const SpeciesOptions& options);

  [[nodiscard]] std::size_t size() const { return fns_.size(); }
  [[nodiscard]] const std::vector<Fn>& functions() const { return fns_; }
  [[nodiscard]] const std::vector<grid::AtomSite>& atoms() const {
    return atoms_;
  }
  [[nodiscard]] const Species& species_of(std::size_t atom) const;
  [[nodiscard]] const SpeciesOptions& options() const { return options_; }

  // Electrons in the neutral molecule (valence-only when pseudized).
  [[nodiscard]] double n_electrons() const;

  // Largest radial cutoff over all functions.
  [[nodiscard]] double max_cutoff() const;

  // Indices of functions that can be nonzero within `radius` of `center`.
  [[nodiscard]] std::vector<std::size_t> local_functions(
      const Vec3& center, double radius) const;

  // Evaluates the selected functions at the given points:
  //   values(k, p) = chi_{fn_ids[k]}(points[p]).
  // If laplacians is non-null it receives nabla^2 chi in the same layout.
  // Outputs that already hold enough storage are refilled in place.
  void evaluate(const std::vector<std::size_t>& fn_ids, const Vec3* points,
                std::size_t n_points, linalg::Matrix& values,
                linalg::Matrix* laplacians) const;

  // Superposition-of-free-atoms density at a point (SCF initial guess).
  [[nodiscard]] double free_atom_density(const Vec3& point) const;

 private:
  std::vector<grid::AtomSite> atoms_;
  SpeciesOptions options_;
  std::vector<const Species*> species_;  // per atom
  std::vector<Fn> fns_;
};

}  // namespace swraman::basis
