#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "grid/atom_grid.hpp"
#include "linalg/matrix.hpp"
#include "raman/raman.hpp"

// Job model of the serving layer (DESIGN.md S11). A JobSpec is one Raman
// request from one tenant: a molecule (or a modeled system scale for
// machine-size workloads the QM engine cannot run here), the engine
// settings, a priority inside the tenant's share, and the tenant's
// fair-share weight. The service decomposes a job into its evaluation
// tasks (the 6N displaced DFPT geometries of paper Sec. 2.3, or the 13
// field points of the bec tier) and one assembly that forms the
// derivative rows — the dependency DAG in dag.hpp — and deduplicates
// evaluations across jobs and tenants through a content-addressed cache
// keyed by the canonical form defined here.

namespace swraman::serve {

enum class EngineKind {
  Real,     // SCF + DFPT on the actual molecule (scf/, dfpt/)
  Modeled,  // cost-model-calibrated synthetic evaluation (core/workload)
};

// Accuracy tier of one job (DESIGN.md S15). Dfpt is the full pipeline:
// 6N displaced-geometry DFPT polarizabilities. Bec is the RASCBEC fast
// tier: a fixed 13-point finite-field force stencil at the equilibrium
// geometry (raman/bec.hpp), O(1) in the atom count, priced and admitted
// accordingly.
enum class Tier : std::uint8_t { Dfpt, Bec };

const char* tier_name(Tier t);

struct JobSpec {
  std::string client = "default";  // tenant id (fair-share accounting unit)
  std::string name;                // label for traces and reports
  int priority = 0;                // higher runs earlier within the tenant
  double weight = 1.0;             // tenant fair-share weight (>= weight
                                   // seen on earlier jobs of the tenant)
  EngineKind engine = EngineKind::Modeled;

  // Real engine: molecule + the full Raman option set (displacement step,
  // SCF/DFPT settings, checkpoint_path for the displaced-geometry loop).
  std::vector<grid::AtomSite> atoms;
  raman::RamanOptions options;
  // Also compute the Hessian/normal modes and return activities + a
  // broadened spectrum (Real only; adds one heavy Hessian task).
  bool with_modes = false;

  // Modeled engine: the system scale that core::make_dfpt_job turns into
  // kernel workloads; per-task cost and results are deterministic
  // functions of (scale, seed, coordinate, sign).
  core::SystemScale scale;

  // Bounded retry per task on transient failures (comm timeouts, injected
  // worker faults) — mirrors RamanOptions::geometry_attempts.
  int attempts = 2;

  // Accuracy tier: Dfpt decomposes into 6N displacement tasks, Bec into
  // the 13 field-force tasks of raman/bec.hpp. Part of the settings
  // fingerprint — the two tiers never share cache entries.
  Tier tier = Tier::Dfpt;
  // Finite field strength of the bec stencil (atomic units); result-
  // determining, so fingerprinted and WAL-encoded.
  double bec_field = 1e-2;

  [[nodiscard]] std::size_t n_atoms() const {
    return engine == EngineKind::Real ? atoms.size() : scale.n_atoms;
  }
};

enum class JobStatus { Queued, Running, Completed, Failed, Rejected };

const char* job_status_name(JobStatus s);

struct JobResult {
  JobStatus status = JobStatus::Queued;
  std::string error;
  linalg::Matrix dalpha;  // (3N x 9) d(alpha)/dR, as in RamanCalculator
  linalg::Matrix dmu;     // (3N x 3) dipole derivatives
  raman::RamanSpectrum spectrum;      // with_modes only
  raman::BroadenedSpectrum broadened;  // with_modes only
  int tasks_executed = 0;  // engine evaluations this job itself performed
  double latency_s = 0.0;  // submit -> completion wall time
};

// 64-bit FNV-1a over raw bytes; the content-address of cache keys and the
// checksum tests use for bitwise-determinism assertions.
class Hash64 {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void f64(double v);  // bit pattern; -0.0 normalized to +0.0
  void str(const std::string& s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Signed axis permutation (one of the 48 orthogonal cube symmetries):
// transformed[i] = sign[i] * original[perm[i]]. The cache canonicalizes
// displaced geometries under this group, so symmetry-equivalent
// displacements (water's +y / -y oxygen steps, H2's +x / -x) share one
// evaluation; the stored tensor lives in the canonical frame and is
// rotated back exactly (a signed permutation moves bit patterns, it does
// no arithmetic).
struct AxisTransform {
  std::array<int, 3> perm{0, 1, 2};
  std::array<int, 3> sign{1, 1, 1};

  [[nodiscard]] bool identity() const {
    return perm == std::array<int, 3>{0, 1, 2} &&
           sign == std::array<int, 3>{1, 1, 1};
  }
};

// All 48 signed axis permutations (24 rotations x optional inversion).
const std::vector<AxisTransform>& axis_transforms();

// p' = T p  /  inverse  /  alpha' = T alpha T^t  /  d' = T d. Tensor and
// vector entries are permuted and sign-flipped only — exact in floating
// point.
Vec3 apply(const AxisTransform& t, const Vec3& p);
AxisTransform inverse(const AxisTransform& t);
std::array<double, 9> apply_tensor(const AxisTransform& t,
                                   const std::array<double, 9>& alpha);
std::array<double, 3> apply_vector(const AxisTransform& t,
                                   const std::array<double, 3>& d);

// Canonical content-address of one displacement evaluation: the geometry
// is mapped through every axis transform, atoms sorted by (z, x, y, z),
// and the lexicographically smallest byte image (plus the settings
// fingerprint) is hashed. Returns the key and the transform that
// produced it (identity when symmetry is off).
struct CanonicalKey {
  std::uint64_t key = 0;
  AxisTransform to_canonical;  // canonical = T(original)
};

CanonicalKey canonical_key(const std::vector<grid::AtomSite>& geometry,
                           std::uint64_t settings_fp, bool use_symmetry);

// Canonical content-address of one finite-field force task: the shared
// equilibrium geometry plus the integer field direction of the stencil
// point, both mapped through the SAME transform — a field task may only
// fold onto another field task whose rotated field matches, so +E e_x and
// +E e_y never collide unless a symmetry really maps one onto the other.
// Unlike canonical_key the atoms are NOT sorted: the cached record is a
// per-atom force vector, and sorting would silently permute atom rows
// between submissions. A domain-separation tag keeps field keys disjoint
// from displacement keys even on hash collision inputs.
CanonicalKey canonical_field_key(const std::vector<grid::AtomSite>& geometry,
                                 const std::array<int, 3>& field_dir,
                                 std::uint64_t settings_fp,
                                 bool use_symmetry);

// Force vector (flat 3N, atom-major) through a signed axis permutation:
// out[3a + i] = sign_i * forces[3a + perm_i]. Exact (bit moves only),
// like apply_tensor / apply_vector; -0.0 is folded onto +0.0.
std::vector<double> apply_forces(const AxisTransform& t,
                                 const std::vector<double>& forces);

// Fingerprint of every engine setting that changes a displacement result:
// two jobs share cache entries iff their fingerprints (and geometries)
// match.
std::uint64_t settings_fingerprint(const JobSpec& spec);

// Cost/memory estimate driving fair-share charging, pull granularity, and
// admission control — built from core::make_dfpt_job + sunway cost model
// so heavy systems are charged what the machine model says they cost.
struct JobEstimate {
  double per_task_seconds = 0.0;   // one displacement evaluation, modeled
  double total_seconds = 0.0;      // all tasks of the job
  double modeled_bytes = 0.0;      // resident footprint while in flight
  std::size_t n_tasks = 0;         // admission charge, queue-depth units
};

JobEstimate estimate_job(const JobSpec& spec);

}  // namespace swraman::serve
