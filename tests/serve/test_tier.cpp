#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/molecules.hpp"
#include "raman/bec.hpp"
#include "raman/raman.hpp"
#include "robustness/fault.hpp"
#include "serve/dag.hpp"
#include "serve/job.hpp"
#include "serve/service.hpp"
#include "serve/sharded.hpp"

// The bec accuracy tier through the serving layer (DESIGN.md S15): the
// 13-node field DAG, content-addressed field-task keys and their
// symmetry folding, tier-aware admission, and WAL kill/replay of a bec
// job.

namespace swraman::serve {
namespace {

ServiceOptions fast_options() {
  ServiceOptions options;
  options.n_workers = 2;
  options.start_paused = true;
  options.modeled.iterations_per_modeled_second = 100.0;
  options.modeled.min_iterations = 50;
  options.modeled.max_iterations = 500;
  return options;
}

JobSpec modeled_bec_spec(std::size_t n_atoms) {
  JobSpec spec;
  spec.engine = EngineKind::Modeled;
  spec.scale.n_atoms = n_atoms;
  spec.tier = Tier::Bec;
  return spec;
}

// A geometry with no axis symmetry at all: only the identity transform
// maps it onto itself, so any key collision between stencil points would
// be a genuine cross-axis confusion, not a symmetry fold.
std::vector<grid::AtomSite> asymmetric_geometry() {
  return {{1, {0.13, 0.29, 0.41}},
          {8, {-0.47, 0.53, -0.61}},
          {1, {0.71, -0.83, 0.97}}};
}

TEST(ServeTier, BecDagShapeIsThirteenFieldRootsPlusAssemble) {
  const JobDag dag(/*n_coords=*/9, /*with_hessian=*/false, /*n_field=*/
                   static_cast<std::size_t>(raman::n_field_points()));
  ASSERT_TRUE(dag.bec());
  EXPECT_EQ(dag.n_field(), 13u);
  EXPECT_EQ(dag.size(), 14u);  // 13 field roots + assemble
  EXPECT_EQ(dag.assemble_id(), 13u);
  for (std::size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(dag.field_id(i), i);
    EXPECT_EQ(dag.node(i).kind, TaskKind::FieldForce);
    EXPECT_EQ(dag.node(i).coord, i);
    EXPECT_EQ(dag.node(i).sign, 0);
    EXPECT_EQ(dag.node(i).deps_pending, 0);  // field points are roots
  }
  EXPECT_EQ(dag.node(dag.assemble_id()).kind, TaskKind::Assemble);
  EXPECT_EQ(dag.node(dag.assemble_id()).deps_pending, 13);
  EXPECT_EQ(dag.roots().size(), 13u);

  const JobDag with_modes(9, /*with_hessian=*/true, 13);
  EXPECT_EQ(with_modes.size(), 15u);
  EXPECT_EQ(with_modes.hessian_id(), 13u);
  EXPECT_EQ(with_modes.assemble_id(), 14u);
}

TEST(ServeTier, ModeledBecJobExecutesExactlyTheStencil) {
  fault::ScopedFaults guard;
  RamanService service(fast_options());
  const SubmitResult res = service.submit(modeled_bec_spec(3));
  ASSERT_TRUE(res.accepted) << res.reason;
  const JobResult result = service.wait(res.job_id);
  ASSERT_EQ(result.status, JobStatus::Completed) << result.error;
  // 3 atoms -> 9 coordinates of dalpha (9 cols) and dmu (3 cols).
  EXPECT_EQ(result.dalpha.rows(), 9u);
  EXPECT_EQ(result.dalpha.cols(), 9u);
  EXPECT_EQ(result.dmu.rows(), 9u);
  EXPECT_EQ(result.dmu.cols(), 3u);
  const ServiceStats stats = service.stats();
  // Engine evaluations = the 13 stencil points, nothing else; all of
  // them are field tasks. O(1) in the atom count.
  EXPECT_EQ(stats.tasks_executed, 13u);
  EXPECT_EQ(stats.field_tasks_executed, 13u);
}

TEST(ServeTier, ModeledBecDeterministicAcrossWorkerCounts) {
  fault::ScopedFaults guard;
  ServiceOptions one = fast_options();
  one.n_workers = 1;
  one.work_stealing = false;
  JobResult a;
  JobResult b;
  {
    RamanService service(fast_options());
    const SubmitResult res = service.submit(modeled_bec_spec(4));
    ASSERT_TRUE(res.accepted);
    a = service.wait(res.job_id);
  }
  {
    RamanService service(one);
    const SubmitResult res = service.submit(modeled_bec_spec(4));
    ASSERT_TRUE(res.accepted);
    b = service.wait(res.job_id);
  }
  ASSERT_EQ(a.status, JobStatus::Completed) << a.error;
  ASSERT_EQ(b.status, JobStatus::Completed) << b.error;
  ASSERT_EQ(a.dalpha.rows(), b.dalpha.rows());
  for (std::size_t i = 0; i < a.dalpha.rows(); ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      // Bitwise: assembly reads per-node slots in fixed stencil order.
      EXPECT_EQ(a.dalpha(i, j), b.dalpha(i, j)) << i << "," << j;
    }
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(a.dmu(i, j), b.dmu(i, j));
    }
  }
}

TEST(ServeTier, DuplicateBecJobsShareOneStencil) {
  fault::ScopedFaults guard;
  RamanService service(fast_options());
  const SubmitResult first = service.submit(modeled_bec_spec(3));
  const SubmitResult second = service.submit(modeled_bec_spec(3));
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(second.accepted);
  service.start();
  const JobResult a = service.wait(first.job_id);
  const JobResult b = service.wait(second.job_id);
  ASSERT_EQ(a.status, JobStatus::Completed) << a.error;
  ASSERT_EQ(b.status, JobStatus::Completed) << b.error;
  const ServiceStats stats = service.stats();
  // The twin deduplicates onto the owner's 13 field evaluations.
  EXPECT_EQ(stats.field_tasks_executed, 13u);
  EXPECT_EQ(stats.tasks_executed, 13u);
  EXPECT_GT(stats.cache_hits, 0u);
  for (std::size_t i = 0; i < a.dalpha.rows(); ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(a.dalpha(i, j), b.dalpha(i, j));
    }
  }
}

TEST(ServeTier, FieldKeysInvariantUnderJointAxisTransforms) {
  const std::vector<grid::AtomSite> geom = asymmetric_geometry();
  const std::uint64_t fp = 0x5eedf00dull;
  for (int idx = 0; idx < raman::n_field_points(); ++idx) {
    const std::array<int, 3> dir = raman::field_direction(idx);
    const CanonicalKey base = canonical_field_key(geom, dir, fp, true);
    for (const AxisTransform& t : axis_transforms()) {
      // Rotate the WHOLE configuration: geometry and field together.
      std::vector<grid::AtomSite> rgeom = geom;
      for (auto& a : rgeom) a.pos = apply(t, a.pos);
      std::array<int, 3> rdir{};
      for (int i = 0; i < 3; ++i) {
        rdir[static_cast<std::size_t>(i)] =
            t.sign[static_cast<std::size_t>(i)] *
            dir[static_cast<std::size_t>(t.perm[static_cast<std::size_t>(i)])];
      }
      const CanonicalKey folded = canonical_field_key(rgeom, rdir, fp, true);
      EXPECT_EQ(folded.key, base.key)
          << "stencil " << idx << " not invariant under a joint transform";
    }
  }
}

TEST(ServeTier, FieldKeysNeverFoldAcrossAxesOnAsymmetricGeometry) {
  const std::vector<grid::AtomSite> geom = asymmetric_geometry();
  const std::uint64_t fp = 0x5eedf00dull;
  // All 13 stencil points must stay distinct: only a symmetry that maps
  // the geometry onto itself may fold two field directions, and this
  // geometry has none.
  std::set<std::uint64_t> keys;
  for (int idx = 0; idx < raman::n_field_points(); ++idx) {
    keys.insert(
        canonical_field_key(geom, raman::field_direction(idx), fp, true).key);
  }
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(raman::n_field_points()));

  // Rotating the geometry WITHOUT the matching field rotation must not
  // produce the same key: the folding is only sound when the two move
  // together.
  const AxisTransform swap_xy{{1, 0, 2}, {1, 1, 1}};
  std::vector<grid::AtomSite> rgeom = geom;
  for (auto& a : rgeom) a.pos = apply(swap_xy, a.pos);
  const std::array<int, 3> ex{1, 0, 0};
  EXPECT_NE(canonical_field_key(rgeom, ex, fp, true).key,
            canonical_field_key(geom, ex, fp, true).key);

  // Symmetry off: the key is frame-locked (identity transform).
  const CanonicalKey plain = canonical_field_key(geom, ex, fp, false);
  EXPECT_TRUE(plain.to_canonical.identity());
}

TEST(ServeTier, TiersNeverShareFingerprintsOrDisplacementKeys) {
  JobSpec dfpt;
  dfpt.engine = EngineKind::Real;
  dfpt.atoms = molecules::h2();
  JobSpec bec = dfpt;
  bec.tier = Tier::Bec;
  // The tier is part of the settings fingerprint, so bec field tasks can
  // never alias dfpt displacement entries even for the same molecule.
  EXPECT_NE(settings_fingerprint(dfpt), settings_fingerprint(bec));
  // The field strength is result-determining for the bec tier only.
  JobSpec bec2 = bec;
  bec2.bec_field = 2e-2;
  EXPECT_NE(settings_fingerprint(bec), settings_fingerprint(bec2));
  JobSpec dfpt2 = dfpt;
  dfpt2.bec_field = 2e-2;
  EXPECT_EQ(settings_fingerprint(dfpt), settings_fingerprint(dfpt2));

  // Domain separation: a field key and a displacement key over the same
  // geometry and fingerprint differ.
  const std::uint64_t fp = settings_fingerprint(bec);
  EXPECT_NE(canonical_field_key(bec.atoms, {0, 0, 0}, fp, false).key,
            canonical_key(bec.atoms, fp, false).key);
}

TEST(ServeTier, BecAdmittedWhereDfptTwinIsRejected) {
  fault::ScopedFaults guard;
  ServiceOptions options = fast_options();
  // 3 modeled atoms: the dfpt DAG is 18 + 9 + 1 = 28 tasks, the bec DAG
  // is 13 + 1 = 14. A 20-task budget separates the tiers.
  options.admission.max_queued_tasks = 20;
  RamanService service(options);

  JobSpec dfpt;
  dfpt.engine = EngineKind::Modeled;
  dfpt.scale.n_atoms = 3;
  const SubmitResult heavy = service.submit(dfpt);
  EXPECT_FALSE(heavy.accepted);
  EXPECT_EQ(heavy.reason, "queue-depth");
  EXPECT_GT(heavy.retry_after_s, 0.0);

  // Same molecule, same tenant, fast tier: admitted and completed.
  const SubmitResult fast = service.submit(modeled_bec_spec(3));
  ASSERT_TRUE(fast.accepted) << fast.reason;
  service.start();
  EXPECT_EQ(service.wait(fast.job_id).status, JobStatus::Completed);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
}

TEST(ServeTier, BecJobSurvivesShardKillAndWalReplay) {
  fault::ScopedFaults guard;
  const std::string wal_dir = ::testing::TempDir() + "tier_bec_wal";
  std::filesystem::create_directories(wal_dir);
  ShardedOptions opts;
  opts.n_shards = 1;
  opts.wal_dir = wal_dir;
  opts.service.n_workers = 2;
  opts.service.modeled.iterations_per_modeled_second = 100.0;
  // Slow kernel so the kill lands while field tasks are still running.
  opts.service.modeled.min_iterations = 200000;
  opts.service.modeled.max_iterations = 200000;

  ShardedRamanService svc(opts);
  std::vector<std::uint64_t> gids;
  for (int i = 0; i < 3; ++i) {
    const SubmitResult res = svc.submit(modeled_bec_spec(2));
    ASSERT_TRUE(res.accepted) << res.reason;
    gids.push_back(res.job_id);
  }
  svc.kill_shard(0);
  svc.recover_all();
  svc.drain();
  for (const std::uint64_t gid : gids) {
    const JobResult r = svc.wait(gid);
    EXPECT_EQ(r.status, JobStatus::Completed) << r.error;
    EXPECT_EQ(r.dalpha.rows(), 6u);  // tier survives the spec round trip
    EXPECT_EQ(r.dmu.cols(), 3u);
  }
  const ShardedStats stats = svc.stats();
  EXPECT_EQ(stats.kills, 1u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  std::filesystem::remove_all(wal_dir);
}

TEST(ServeTier, BecTwinsOnTwoShardsAgreeBitwise) {
  // Field-force records never cross shards: a bec job whose twin homes
  // on the other shard runs its own 13-point stencil there, and the two
  // results are bitwise identical.
  fault::ScopedFaults guard;
  const std::string wal_dir = ::testing::TempDir() + "tier_bec_twins";
  std::filesystem::create_directories(wal_dir);
  ShardedOptions opts;
  opts.n_shards = 2;
  opts.wal_dir = wal_dir;
  opts.service.n_workers = 2;
  opts.service.modeled.iterations_per_modeled_second = 100.0;
  opts.service.modeled.min_iterations = 50;
  opts.service.modeled.max_iterations = 500;

  RouterOptions ro;
  ro.n_shards = opts.n_shards;
  const ShardRouter router(ro);
  JobSpec first = modeled_bec_spec(3);
  first.client = "alice";
  const std::size_t home = router.home(ShardRouter::job_key(first));
  JobSpec second = first;
  for (int k = 0; router.home(ShardRouter::job_key(second)) == home; ++k) {
    ASSERT_LT(k, 256) << "no tenant routes off shard " << home;
    second.client = "twin-" + std::to_string(k);
  }

  ShardedRamanService svc(opts);
  const SubmitResult ra = svc.submit(first);
  const SubmitResult rb = svc.submit(second);
  ASSERT_TRUE(ra.accepted) << ra.reason;
  ASSERT_TRUE(rb.accepted) << rb.reason;
  svc.drain();
  const JobResult a = svc.wait(ra.job_id);
  const JobResult b = svc.wait(rb.job_id);
  ASSERT_EQ(a.status, JobStatus::Completed) << a.error;
  ASSERT_EQ(b.status, JobStatus::Completed) << b.error;
  ASSERT_EQ(a.dalpha.rows(), 9u);
  ASSERT_EQ(b.dalpha.rows(), a.dalpha.rows());
  for (std::size_t i = 0; i < a.dalpha.rows(); ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(a.dalpha(i, j), b.dalpha(i, j)) << i << "," << j;
    }
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(a.dmu(i, j), b.dmu(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(svc.stats().failovers, 0u);
  std::filesystem::remove_all(wal_dir);
}

TEST(ServeRealEngine, BecTierMatchesBecCalculatorBitwise) {
  fault::ScopedFaults guard;
  const auto mol = molecules::h2();
  raman::BecOptions bopt;
  raman::BecCalculator calc(mol, bopt);
  const linalg::Matrix want_dalpha = calc.polarizability_derivatives();
  const linalg::Matrix& want_dmu = calc.dipole_derivatives();

  ServiceOptions options;
  options.n_workers = 2;
  options.use_symmetry = false;  // every field point solved fresh
  RamanService service(options);
  JobSpec spec;
  spec.engine = EngineKind::Real;
  spec.atoms = mol;
  spec.tier = Tier::Bec;
  spec.bec_field = bopt.field_strength;
  const SubmitResult res = service.submit(spec);
  ASSERT_TRUE(res.accepted);
  const JobResult result = service.wait(res.job_id);
  ASSERT_EQ(result.status, JobStatus::Completed) << result.error;
  EXPECT_EQ(service.stats().field_tasks_executed, 13u);

  // Same SCF solves, same shared force evaluator arithmetic, same
  // bec_derivatives assembly: the DAG route reproduces the monolithic
  // calculator exactly.
  ASSERT_EQ(result.dalpha.rows(), want_dalpha.rows());
  for (std::size_t i = 0; i < want_dalpha.rows(); ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(result.dalpha(i, j), want_dalpha(i, j)) << i << "," << j;
    }
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(result.dmu(i, j), want_dmu(i, j));
    }
  }
}

}  // namespace
}  // namespace swraman::serve
