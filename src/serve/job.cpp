#include "serve/job.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "raman/bec.hpp"
#include "sunway/arch.hpp"
#include "sunway/cost_model.hpp"

namespace swraman::serve {

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::Dfpt: return "dfpt";
    case Tier::Bec: return "bec";
  }
  return "?";
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::Queued: return "queued";
    case JobStatus::Running: return "running";
    case JobStatus::Completed: return "completed";
    case JobStatus::Failed: return "failed";
    case JobStatus::Rejected: return "rejected";
  }
  return "?";
}

void Hash64::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Hash64::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void Hash64::f64(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 onto +0.0
  u64(std::bit_cast<std::uint64_t>(v));
}

void Hash64::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

const std::vector<AxisTransform>& axis_transforms() {
  static const std::vector<AxisTransform> all = [] {
    std::vector<AxisTransform> v;
    const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                             {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    for (const auto& p : perms) {
      for (int s = 0; s < 8; ++s) {
        AxisTransform t;
        t.perm = {p[0], p[1], p[2]};
        t.sign = {(s & 1) ? -1 : 1, (s & 2) ? -1 : 1, (s & 4) ? -1 : 1};
        v.push_back(t);
      }
    }
    return v;
  }();
  return all;
}

Vec3 apply(const AxisTransform& t, const Vec3& p) {
  Vec3 out;
  for (int i = 0; i < 3; ++i) {
    double v = t.sign[i] * p[t.perm[i]];
    if (v == 0.0) v = 0.0;
    out[i] = v;
  }
  return out;
}

AxisTransform inverse(const AxisTransform& t) {
  AxisTransform inv;
  for (int i = 0; i < 3; ++i) {
    inv.perm[t.perm[i]] = i;
    inv.sign[t.perm[i]] = t.sign[i];
  }
  return inv;
}

std::array<double, 9> apply_tensor(const AxisTransform& t,
                                   const std::array<double, 9>& alpha) {
  // (T alpha T^t)_{ij} = sign_i sign_j alpha_{perm_i perm_j}: pure entry
  // shuffling with sign flips, no rounding.
  std::array<double, 9> out{};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double v = t.sign[i] * t.sign[j] * alpha[3 * t.perm[i] + t.perm[j]];
      if (v == 0.0) v = 0.0;
      out[3 * i + j] = v;
    }
  }
  return out;
}

std::array<double, 3> apply_vector(const AxisTransform& t,
                                   const std::array<double, 3>& d) {
  std::array<double, 3> out{};
  for (int i = 0; i < 3; ++i) {
    double v = t.sign[i] * d[t.perm[i]];
    if (v == 0.0) v = 0.0;
    out[i] = v;
  }
  return out;
}

namespace {

// Byte image of a geometry under one transform: atoms transformed, sorted
// by (z, x, y, z), positions serialized as bit patterns (-0.0 folded).
std::vector<std::uint64_t> geometry_image(
    const std::vector<grid::AtomSite>& geometry, const AxisTransform& t) {
  std::vector<std::array<std::uint64_t, 4>> rows;
  rows.reserve(geometry.size());
  for (const grid::AtomSite& a : geometry) {
    const Vec3 p = apply(t, a.pos);
    std::array<std::uint64_t, 4> row;
    row[0] = static_cast<std::uint64_t>(a.z);
    for (int i = 0; i < 3; ++i) {
      double v = p[i];
      if (v == 0.0) v = 0.0;
      row[1 + i] = std::bit_cast<std::uint64_t>(v);
    }
    rows.push_back(row);
  }
  // Sort by (z, then position bit patterns): the polarizability does not
  // depend on atom order, so permuted submissions collapse too. Bit
  // patterns of doubles sort consistently (we only need *a* total order).
  std::sort(rows.begin(), rows.end());
  std::vector<std::uint64_t> flat;
  flat.reserve(4 * rows.size());
  for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());
  return flat;
}

}  // namespace

CanonicalKey canonical_key(const std::vector<grid::AtomSite>& geometry,
                           std::uint64_t settings_fp, bool use_symmetry) {
  SWRAMAN_REQUIRE(!geometry.empty(), "canonical_key: empty geometry");
  CanonicalKey out;
  std::vector<std::uint64_t> best;
  if (!use_symmetry) {
    best = geometry_image(geometry, AxisTransform{});
  } else {
    for (const AxisTransform& t : axis_transforms()) {
      std::vector<std::uint64_t> img = geometry_image(geometry, t);
      if (best.empty() || img < best) {
        best = std::move(img);
        out.to_canonical = t;
      }
    }
  }
  Hash64 h;
  h.u64(settings_fp);
  h.u64(best.size());
  for (std::uint64_t v : best) h.u64(v);
  out.key = h.value();
  return out;
}

std::vector<double> apply_forces(const AxisTransform& t,
                                 const std::vector<double>& forces) {
  SWRAMAN_REQUIRE(forces.size() % 3 == 0, "apply_forces: not a 3N vector");
  std::vector<double> out(forces.size());
  for (std::size_t a = 0; a < forces.size() / 3; ++a) {
    for (int i = 0; i < 3; ++i) {
      double v = t.sign[i] * forces[3 * a + static_cast<std::size_t>(t.perm[i])];
      if (v == 0.0) v = 0.0;
      out[3 * a + static_cast<std::size_t>(i)] = v;
    }
  }
  return out;
}

CanonicalKey canonical_field_key(const std::vector<grid::AtomSite>& geometry,
                                 const std::array<int, 3>& field_dir,
                                 std::uint64_t settings_fp,
                                 bool use_symmetry) {
  SWRAMAN_REQUIRE(!geometry.empty(), "canonical_field_key: empty geometry");
  // Image = [field ints, atom rows in submission order]: the same
  // transform rotates geometry and field together, so two stencil points
  // collide only when a cube symmetry maps one (geometry, field) pair
  // exactly onto the other.
  const auto image = [&](const AxisTransform& t) {
    std::vector<std::uint64_t> img;
    img.reserve(3 + 4 * geometry.size());
    for (int i = 0; i < 3; ++i) {
      img.push_back(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(t.sign[i] * field_dir[static_cast<std::size_t>(t.perm[i])])));
    }
    for (const grid::AtomSite& a : geometry) {
      const Vec3 p = apply(t, a.pos);
      img.push_back(static_cast<std::uint64_t>(a.z));
      for (int i = 0; i < 3; ++i) {
        double v = p[i];
        if (v == 0.0) v = 0.0;
        img.push_back(std::bit_cast<std::uint64_t>(v));
      }
    }
    return img;
  };
  CanonicalKey out;
  std::vector<std::uint64_t> best;
  if (!use_symmetry) {
    best = image(AxisTransform{});
  } else {
    for (const AxisTransform& t : axis_transforms()) {
      std::vector<std::uint64_t> img = image(t);
      if (best.empty() || img < best) {
        best = std::move(img);
        out.to_canonical = t;
      }
    }
  }
  Hash64 h;
  h.str("field-force");  // domain separation from displacement keys
  h.u64(settings_fp);
  h.u64(best.size());
  for (std::uint64_t v : best) h.u64(v);
  out.key = h.value();
  return out;
}

std::uint64_t settings_fingerprint(const JobSpec& spec) {
  Hash64 h;
  h.u64(static_cast<std::uint64_t>(spec.engine));
  h.u64(static_cast<std::uint64_t>(spec.tier));
  if (spec.tier == Tier::Bec) h.f64(spec.bec_field);
  if (spec.engine == EngineKind::Modeled) {
    // Modeled results depend on the scale only (geometry is synthetic).
    h.u64(spec.scale.n_atoms);
    h.f64(spec.scale.points_per_atom);
    h.f64(spec.scale.basis_per_atom);
    h.f64(spec.scale.points_per_batch);
    h.f64(spec.scale.local_fns_per_batch);
    h.u64(static_cast<std::uint64_t>(spec.scale.multipole_lmax));
    h.f64(spec.scale.radial_shells_per_atom);
    return h.value();
  }
  const scf::ScfOptions& scf = spec.options.vibrations.scf;
  h.f64(spec.options.alpha_displacement);
  h.u64(static_cast<std::uint64_t>(scf.functional));
  h.u64(static_cast<std::uint64_t>(scf.grid.level));
  h.u64(static_cast<std::uint64_t>(scf.multipole_lmax));
  h.f64(scf.density_tol);
  h.f64(scf.energy_tol);
  h.u64(static_cast<std::uint64_t>(scf.max_iterations));
  h.f64(scf.smearing);
  h.f64(scf.mixing);
  h.f64(spec.options.dfpt.tol);
  h.u64(static_cast<std::uint64_t>(spec.options.dfpt.max_iterations));
  h.u64(static_cast<std::uint64_t>(scf.species.backend));
  h.u64(static_cast<std::uint64_t>(scf.species.tier));
  h.u64(scf.species.pseudized ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(scf.grid.n_radial));
  h.u64(static_cast<std::uint64_t>(scf.grid.angular_order));
  h.u64(scf.grid.prune ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(scf.grid.partition));
  h.u64(static_cast<std::uint64_t>(scf.hartree_backend));
  // Direct is bitwise independent of the FMM knobs; Fmm and Auto are not.
  if (scf.hartree_backend != fmm::HartreeBackend::Direct) {
    h.u64(static_cast<std::uint64_t>(scf.fmm.order));
    h.f64(scf.fmm.theta);
    h.u64(scf.fmm.source_leaf_size);
    h.u64(scf.fmm.target_leaf_size);
  }
  return h.value();
}

JobEstimate estimate_job(const JobSpec& spec) {
  // Map both engines onto a SystemScale so every job is charged through
  // the same machine model (DESIGN.md S11): real molecules get the light
  // grid/basis densities of core::SystemScale at their own atom count.
  core::SystemScale scale = spec.scale;
  if (spec.engine == EngineKind::Real) {
    scale = core::SystemScale{};
    scale.n_atoms = spec.atoms.size();
  }
  SWRAMAN_REQUIRE(scale.n_atoms > 0, "estimate_job: empty system");
  const scaling::RamanJob model = core::make_dfpt_job(scale);
  const sunway::ArchParams arch = sunway::sw26010pro();
  const auto kernel_s = [&](const sunway::KernelWorkload& w) {
    return modeled_time(w, arch, sunway::Variant::CpeTiledDbSimd);
  };
  // One displacement task = one polarizability: scf + 3 response
  // directions of dfpt_iterations DFPT cycles over the three grid kernels.
  const double iter_s =
      kernel_s(model.n1) + kernel_s(model.v1) + kernel_s(model.h1);
  const std::size_t n_coords = 3 * scale.n_atoms;

  JobEstimate est;
  if (spec.tier == Tier::Bec) {
    // One field-force task = one SCF solve at fixed geometry plus the
    // 6N frozen-state Lagrangian grid passes of the force stencil (two
    // of the three kernels each — no eigensolve). The task count is a
    // constant 13 + assembly (+ Hessian): the paper's O(1)-in-N field
    // loop, which is what admission control gets to exploit.
    const double field_tasks = static_cast<double>(raman::n_field_points());
    est.per_task_seconds =
        iter_s * model.scf_iterations +
        (kernel_s(model.n1) + kernel_s(model.v1)) *
            static_cast<double>(2 * n_coords);
    est.n_tasks = static_cast<std::size_t>(field_tasks) + 1 +
                  (spec.engine == EngineKind::Real && spec.with_modes ? 1 : 0);
    est.total_seconds = est.per_task_seconds * field_tasks;
  } else {
    const double cycles =
        model.scf_iterations +
        model.response_directions * model.dfpt_iterations;
    est.per_task_seconds = iter_s * cycles;
    // DAG: 6N displacements + 3N rows + 1 assembly (+ 1 Hessian task).
    est.n_tasks = 2 * n_coords + n_coords + 1 +
                  (spec.engine == EngineKind::Real && spec.with_modes ? 1 : 0);
    est.total_seconds =
        est.per_task_seconds * static_cast<double>(2 * n_coords);
  }
  // Resident footprint while the job is in flight: one GeometryRecord per
  // displacement node, the derivative matrices, and (real engine) the
  // basis-sized work arrays of the heaviest concurrent SCF.
  const double n_basis =
      static_cast<double>(scale.n_atoms) * scale.basis_per_atom;
  est.modeled_bytes =
      static_cast<double>(est.n_tasks) * 14 * 8.0 +            // records
      static_cast<double>(n_coords) * 12 * 8.0 +               // dalpha+dmu
      (spec.engine == EngineKind::Real ? 4.0 * n_basis * n_basis * 8.0 : 0.0);
  return est;
}

}  // namespace swraman::serve
