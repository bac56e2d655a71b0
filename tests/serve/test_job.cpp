#include <gtest/gtest.h>

#include "core/molecules.hpp"
#include "core/workload.hpp"
#include "serve/job.hpp"

namespace swraman::serve {
namespace {

TEST(Hash64, DistinguishesAndReproduces) {
  Hash64 a;
  a.u64(1);
  a.f64(2.5);
  a.str("water");
  Hash64 b;
  b.u64(1);
  b.f64(2.5);
  b.str("water");
  EXPECT_EQ(a.value(), b.value());
  Hash64 c;
  c.u64(1);
  c.f64(2.5);
  c.str("wader");
  EXPECT_NE(a.value(), c.value());
}

TEST(Hash64, NegativeZeroFoldsOntoPositive) {
  Hash64 a;
  a.f64(0.0);
  Hash64 b;
  b.f64(-0.0);
  EXPECT_EQ(a.value(), b.value());
}

TEST(AxisTransforms, GroupHas48DistinctElements) {
  const auto& all = axis_transforms();
  ASSERT_EQ(all.size(), 48u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(all[i].perm == all[j].perm && all[i].sign == all[j].sign);
    }
  }
}

TEST(AxisTransforms, InverseRoundTripsExactly) {
  const Vec3 p{0.123456789, -7.5, 3.25};
  const std::array<double, 9> alpha{1.5, 0.25, -0.5, 0.25, 2.0,
                                    0.75, -0.5, 0.75, 3.5};
  for (const AxisTransform& t : axis_transforms()) {
    const AxisTransform inv = inverse(t);
    const Vec3 q = apply(inv, apply(t, p));
    for (int i = 0; i < 3; ++i) EXPECT_EQ(q[i], p[i]);
    const auto back = apply_tensor(inv, apply_tensor(t, alpha));
    for (int i = 0; i < 9; ++i) EXPECT_EQ(back[i], alpha[i]);
  }
}

TEST(CanonicalKey, MirrorDisplacementsShareAKey) {
  // Water in the repo's geometry is symmetric under y -> -y: displacing
  // the oxygen by +y and by -y are physically equivalent geometries and
  // must collapse onto one canonical key.
  auto plus = molecules::water();
  auto minus = molecules::water();
  std::size_t oxygen = 0;
  for (std::size_t i = 0; i < plus.size(); ++i) {
    if (plus[i].z == 8) oxygen = i;
  }
  plus[oxygen].pos[1] += 0.01;
  minus[oxygen].pos[1] -= 0.01;
  const CanonicalKey a = canonical_key(plus, 7, true);
  const CanonicalKey b = canonical_key(minus, 7, true);
  EXPECT_EQ(a.key, b.key);
  // Without symmetry they stay distinct.
  EXPECT_NE(canonical_key(plus, 7, false).key,
            canonical_key(minus, 7, false).key);
}

TEST(CanonicalKey, SettingsFingerprintSeparatesKeys) {
  const auto mol = molecules::water();
  EXPECT_NE(canonical_key(mol, 1, true).key, canonical_key(mol, 2, true).key);
}

TEST(CanonicalKey, AtomOrderDoesNotMatter) {
  auto mol = molecules::water();
  auto permuted = mol;
  std::swap(permuted[0], permuted[permuted.size() - 1]);
  EXPECT_EQ(canonical_key(mol, 3, false).key,
            canonical_key(permuted, 3, false).key);
}

TEST(SettingsFingerprint, SensitiveToEngineSettings) {
  JobSpec a;
  a.engine = EngineKind::Real;
  a.atoms = molecules::water();
  JobSpec b = a;
  EXPECT_EQ(settings_fingerprint(a), settings_fingerprint(b));
  b.options.alpha_displacement *= 2.0;
  EXPECT_NE(settings_fingerprint(a), settings_fingerprint(b));
  JobSpec c = a;
  c.options.dfpt.tol *= 0.1;
  EXPECT_NE(settings_fingerprint(a), settings_fingerprint(c));
  // Species, grid and Hartree-backend settings change the basis, the
  // quadrature or the potential, so each must split the cache key.
  using Edit = void (*)(scf::ScfOptions&);
  const Edit edits[] = {
      [](scf::ScfOptions& o) { o.species.backend = basis::Backend::Gto; },
      [](scf::ScfOptions& o) { o.species.tier = basis::Tier::Minimal; },
      [](scf::ScfOptions& o) { o.species.pseudized = true; },
      [](scf::ScfOptions& o) { o.grid.n_radial = 40; },
      [](scf::ScfOptions& o) { o.grid.angular_order = 11; },
      [](scf::ScfOptions& o) { o.grid.prune = false; },
      [](scf::ScfOptions& o) {
        o.grid.partition = grid::PartitionScheme::Hirshfeld;
      },
      [](scf::ScfOptions& o) { o.hartree_backend = fmm::HartreeBackend::Fmm; },
  };
  for (const Edit edit : edits) {
    JobSpec e = a;
    edit(e.options.vibrations.scf);
    EXPECT_NE(settings_fingerprint(a), settings_fingerprint(e));
  }
  // The FMM knobs matter once the FMM runs; Direct ignores them.
  JobSpec f = a;
  f.options.vibrations.scf.hartree_backend = fmm::HartreeBackend::Fmm;
  const Edit fmm_edits[] = {
      [](scf::ScfOptions& o) { o.fmm.order = 6; },
      [](scf::ScfOptions& o) { o.fmm.theta = 0.45; },
      [](scf::ScfOptions& o) { o.fmm.source_leaf_size = 4; },
      [](scf::ScfOptions& o) { o.fmm.target_leaf_size = 32; },
  };
  for (const Edit edit : fmm_edits) {
    JobSpec e = f;
    edit(e.options.vibrations.scf);
    EXPECT_NE(settings_fingerprint(f), settings_fingerprint(e));
    JobSpec direct = a;
    edit(direct.options.vibrations.scf);
    EXPECT_EQ(settings_fingerprint(a), settings_fingerprint(direct));
  }
  // The tenant, name, and priority are scheduling metadata — two tenants
  // submitting the same physics must share cache entries.
  JobSpec d = a;
  d.client = "other";
  d.name = "different";
  d.priority = 9;
  EXPECT_EQ(settings_fingerprint(a), settings_fingerprint(d));
}

TEST(EstimateJob, ModeledScalesWithSystem) {
  JobSpec small;
  small.engine = EngineKind::Modeled;
  small.scale.n_atoms = 3;
  JobSpec large = small;
  large.scale.n_atoms = 30;
  const JobEstimate es = estimate_job(small);
  const JobEstimate el = estimate_job(large);
  EXPECT_GT(es.per_task_seconds, 0.0);
  EXPECT_GT(el.per_task_seconds, es.per_task_seconds);
  EXPECT_GT(el.total_seconds, el.per_task_seconds);
  EXPECT_GT(el.modeled_bytes, 0.0);
  // DAG size: 6N displacements + 3N rows + 1 assembly.
  EXPECT_EQ(es.n_tasks, 6u * 3u + 3u * 3u + 1u);
}

TEST(EstimateJob, RealJobCountsHessianTask) {
  JobSpec spec;
  spec.engine = EngineKind::Real;
  spec.atoms = molecules::water();
  const std::size_t base = estimate_job(spec).n_tasks;
  spec.with_modes = true;
  EXPECT_EQ(estimate_job(spec).n_tasks, base + 1);
}

}  // namespace
}  // namespace swraman::serve
