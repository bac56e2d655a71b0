#include "scf/scf_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <sstream>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/threads.hpp"
#include "linalg/diis.hpp"
#include "linalg/eigen.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"

namespace swraman::scf {

namespace {

// Wires the real species free-atom densities into the Hirshfeld partition
// when the caller requested it without supplying a model.
ScfOptions prepare_options(ScfOptions options) {
  if (options.grid.partition == grid::PartitionScheme::Hirshfeld &&
      !options.grid.free_atom_density) {
    const basis::SpeciesOptions species_opt = options.species;
    options.grid.free_atom_density = [species_opt](int z, double r) {
      return basis::species(z, species_opt).density_value(r);
    };
  }
  return options;
}

// Rejects nuclei closer than kMinNuclearSeparation before any grid or basis
// is built on them; returns the atoms unchanged.
const std::vector<grid::AtomSite>& checked_nuclei(
    const std::vector<grid::AtomSite>& atoms) {
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms.size(); ++j) {
      const double r = distance(atoms[i].pos, atoms[j].pos);
      if (!(r >= kMinNuclearSeparation)) {
        std::ostringstream os;
        os << "ScfEngine: nuclei " << i << " and " << j << " are " << r
           << " bohr apart, closer than the " << kMinNuclearSeparation
           << " bohr floor";
        throw GeometryError(os.str());
      }
    }
  }
  return atoms;
}

// The scratch one batch of a grid pass owns from its compute to its commit
// (threads::claim_each_ordered), built on the calling thread for the
// engine's largest batch before the pass fans out. The pass threads then
// never allocate more than a few small vectors: memory a short-lived
// thread allocates lands in its own malloc arena, which keeps it resident
// after it is freed (about 2.4 MB per arena on the 12-water cluster, +20%
// peak RSS, when each batch allocated its own).
struct PairScratch {
  PairScratch(std::size_t fns, std::size_t pts) : q(fns, fns) {
    scale.reserve(pts);
    packed.reserve(pts * tile_padded(fns));
  }
  std::vector<double> scale;  // per point: w, or w v
  linalg::Matrix q;           // the pair sums: S's, or the potential's
  std::vector<double> packed;
};

// The S/T set-up's slot: the pair sums' scratch, T's pair sums and the
// batch's points, basis values and Laplacians.
struct SetupScratch {
  SetupScratch(std::size_t fns, std::size_t pts)
      : pair(fns, pts), values(fns, pts), lap(fns, pts), qt(fns, fns) {
    points.reserve(pts);
  }
  PairScratch pair;
  std::vector<Vec3> points;
  linalg::Matrix values;
  linalg::Matrix lap;
  linalg::Matrix qt;
};

// A pass's slots: one per batch that may be claimed but not committed
// yet, 2 x width of them (at most one per batch); at width 1 only slot 0
// is ever used.
template <class Scratch>
std::vector<Scratch> pass_slots(std::size_t width, std::size_t batches,
                                std::size_t fns, std::size_t pts) {
  std::vector<Scratch> slots;
  const std::size_t n = width > 1 ? std::min(2 * width, batches) : 1;
  slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) slots.emplace_back(fns, pts);
  return slots;
}

}  // namespace

ScfEngine::ScfEngine(std::vector<grid::AtomSite> atoms, ScfOptions options)
    : ScfEngine(std::move(atoms), std::move(options), GridPartition{}) {}

ScfEngine::ScfEngine(std::vector<grid::AtomSite> atoms, ScfOptions options,
                     GridPartition partition)
    : options_(prepare_options(std::move(options))),
      grid_(grid::build_molecular_grid(checked_nuclei(atoms), options_.grid)),
      basis_(std::move(atoms), options_.species),
      batches_(grid::make_batches(grid_, options_.batching)),
      partition_(std::move(partition)),
      hartree_(grid_, options_.multipole_lmax, options_.hartree_backend,
               options_.fmm) {
  SWRAMAN_REQUIRE(!partition_.active() ||
                      static_cast<bool>(partition_.allreduce),
                  "ScfEngine: active partition needs an allreduce");
  SWRAMAN_REQUIRE(partition_.rank < std::max<std::size_t>(partition_.n_ranks, 1),
                  "ScfEngine: partition rank out of range");
  // Level-2 batch distribution (paper Algorithm 1).
  batch_owner_ =
      grid::balance_batches(batches_, std::max<std::size_t>(1, partition_.n_ranks))
          .owner;
  build_matrices();
}

std::size_t ScfEngine::pass_threads() const {
  return batches_.size() < kParallelPassBatches ? 1
                                                : threads::hardware_threads();
}

void ScfEngine::reduce(double* data, std::size_t n) const {
  if (partition_.active()) partition_.allreduce(data, n);
}

void ScfEngine::reduce_matrix(linalg::Matrix& m) const {
  reduce(m.data(), m.rows() * m.cols());
}

std::function<void()> ScfEngine::reduce_async(double* data,
                                              std::size_t n) const {
  if (!partition_.active() || n == 0) return [] {};
  if (partition_.iallreduce) return partition_.iallreduce(data, n);
  // No non-blocking hook: complete the collective now so the returned
  // functor never touches partition state after the caller moved on.
  partition_.allreduce(data, n);
  return [] {};
}

std::function<void()> ScfEngine::reduce_matrix_async(linalg::Matrix& m) const {
  return reduce_async(m.data(), m.rows() * m.cols());
}

void ScfEngine::build_matrices() {
  SWRAMAN_TRACE_SPAN(span, "scf.build_matrices");
  const std::size_t nbf = basis_.size();
  if (span.active()) {
    span.attr("nbf", static_cast<double>(nbf));
    span.attr("batches", static_cast<double>(batches_.size()));
    span.attr("grid_points", static_cast<double>(grid_.size()));
  }
  s_ = linalg::Matrix(nbf, nbf);
  t_ = linalg::Matrix(nbf, nbf);
  v_ext_.assign(grid_.size(), 0.0);

  // External potential: -Z/r per atom (all-electron) or the tabulated local
  // ionic pseudopotential.
  for (std::size_t p = 0; p < grid_.size(); ++p) {
    double v = 0.0;
    for (std::size_t a = 0; a < grid_.atoms.size(); ++a) {
      const basis::Species& sp = basis_.species_of(a);
      const double r =
          std::max(distance(grid_.points[p], grid_.atoms[a].pos), 1e-10);
      v += sp.has_v_ion ? sp.v_ion_value(r) : -sp.z_nuclear / r;
    }
    v_ext_[p] = v;
  }

  // Per-batch caches + overlap and kinetic matrices. The batches' storage
  // is sized here, on the calling thread (see PairScratch); then each
  // batch evaluates its basis and sums its local S and T pair blocks in
  // parallel, and the blocks are scattered into S and T in batch order,
  // so every element adds them in the serial order.
  batch_data_.resize(batches_.size());
  const auto owned = [&](std::size_t b) {
    return !partition_.active() || batch_owner_[b] == partition_.rank;
  };
  for (std::size_t b = 0; b < batches_.size(); ++b) {
    if (!owned(b)) continue;
    const grid::Batch& batch = batches_[b];
    BatchData& data = batch_data_[b];
    data.pt_ids = batch.point_ids;
    double radius = 0.0;
    for (const std::size_t id : batch.point_ids) {
      radius = std::max(radius, distance(grid_.points[id], batch.center));
    }
    data.fn_ids = basis_.local_functions(batch.center, radius);
    data.values.assign(data.fn_ids.size(), tile_padded(batch.size()));
    max_batch_fns_ = std::max(max_batch_fns_, data.fn_ids.size());
    max_batch_points_ = std::max(max_batch_points_, batch.size());
  }
  double strips = 0.0;
  double active_work = 0.0;
  double dense_work = 0.0;
  const std::size_t width = pass_threads();
  std::vector<SetupScratch> slots = pass_slots<SetupScratch>(
      width, batches_.size(), max_batch_fns_, max_batch_points_);
  threads::claim_each_ordered(
      batches_.size(), width, slots.size(),
      [&](std::size_t b, std::size_t s) {
        if (!owned(b)) return;
        BatchData& data = batch_data_[b];
        SetupScratch& slot = slots[s];
        std::vector<double>& w = slot.pair.scale;
        const std::size_t npts = data.pt_ids.size();
        slot.points.resize(npts);
        w.resize(npts);
        for (std::size_t k = 0; k < npts; ++k) {
          slot.points[k] = grid_.points[data.pt_ids[k]];
          w[k] = grid_.weights[data.pt_ids[k]];
        }
        basis_.evaluate(data.fn_ids, slot.points.data(), npts, slot.values,
                        &slot.lap);
        set_batch_values(data, slot.values, slot.lap);

        // S_uv += sum_p (w_p chi_u) chi_v ; T_uv += -1/2 sum_p (w_p chi_u)
        // lap_v. The pair sums hold them transposed, qs(v, u) and qt(v, u):
        // the products commute bitwise.
        const std::size_t nloc = data.fn_ids.size();
        slot.pair.q.assign(nloc, nloc);
        slot.qt.assign(nloc, nloc);
        batch_pair_sums(data, data.values, w, slot.pair.q, slot.pair.packed);
        batch_pair_sums(data, slot.lap, w, slot.qt, slot.pair.packed);
      },
      [&](std::size_t b, std::size_t s) {
        if (!owned(b)) return;
        const BatchData& data = batch_data_[b];
        const linalg::Matrix& qs = slots[s].pair.q;
        const linalg::Matrix& qt = slots[s].qt;
        const std::size_t nloc = data.fn_ids.size();
        for (std::size_t a = 0; a < nloc; ++a) {
          const std::size_t ga = data.fn_ids[a];
          for (std::size_t bfn = 0; bfn < nloc; ++bfn) {
            const std::size_t gb = data.fn_ids[bfn];
            s_(ga, gb) += qs(bfn, a);
            t_(ga, gb) += -0.5 * qt(bfn, a);
          }
        }

        strips += static_cast<double>(data.strips.size());
        for (const Strip& strip : data.strips) {
          active_work += static_cast<double>(
              (strip.end_active - strip.first_active) *
              (strip.end_point - strip.first_point));
        }
        dense_work += static_cast<double>(nloc * data.pt_ids.size());
      });
  if (span.active()) {
    span.attr("strips", strips);
    span.attr("active_share",
              dense_work > 0.0 ? active_work / dense_work : 0.0);
  }
  // Both reductions in flight at once: T's exchange overlaps S's (and the
  // orthogonalizer below only needs S once its wait returns).
  const std::function<void()> wait_s = reduce_matrix_async(s_);
  const std::function<void()> wait_t = reduce_matrix_async(t_);
  wait_s();
  wait_t();
  s_.symmetrize();
  t_.symmetrize();

  // Canonical orthogonalizer with eigenvalue filtering: X = U s^{-1/2}
  // restricted to eigenvalues above the floor (near-linear-dependent
  // combinations of diffuse functions are projected out).
  const linalg::EigenResult se = linalg::eigh(s_);
  std::size_t kept = 0;
  for (double v : se.values) {
    if (v > options_.s_eigen_floor) ++kept;
  }
  SWRAMAN_REQUIRE(kept > 0, "ScfEngine: overlap matrix numerically singular");
  x_ = linalg::Matrix(basis_.size(), kept);
  std::size_t col = 0;
  for (std::size_t j = 0; j < se.values.size(); ++j) {
    if (se.values[j] <= options_.s_eigen_floor) continue;
    const double inv_sqrt = 1.0 / std::sqrt(se.values[j]);
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      x_(i, col) = se.vectors(i, j) * inv_sqrt;
    }
    ++col;
  }
}

std::vector<double> ScfEngine::density_on_grid(
    const linalg::Matrix& density_matrix) const {
  std::vector<double> n;
  density_on_grid_async(density_matrix, &n)();
  return n;
}

std::function<void()> ScfEngine::density_on_grid_async(
    const linalg::Matrix& density_matrix, std::vector<double>* out) const {
  SWRAMAN_REQUIRE(out != nullptr, "density_on_grid_async: null output");
  std::vector<double>& n = *out;
  n.assign(grid_.size(), 0.0);
  // Every batch writes only its own points.
  threads::claim_each(batch_data_.size(), pass_threads(), [&](std::size_t b) {
    const BatchData& data = batch_data_[b];
    // Also skips batches owned by other ranks.
    if (!data.fn_ids.empty()) batch_density(data, density_matrix, n);
  });
  // Ranks fill disjoint point subsets; the sum assembles the full density.
  return reduce_async(n.data(), n.size());
}

linalg::Matrix ScfEngine::integrate_matrix(
    const std::vector<double>& potential_on_grid) const {
  linalg::Matrix m;
  integrate_matrix_async(potential_on_grid, &m)();
  return m;
}

std::function<void()> ScfEngine::integrate_matrix_async(
    const std::vector<double>& potential_on_grid, linalg::Matrix* out) const {
  SWRAMAN_REQUIRE(potential_on_grid.size() == grid_.size(),
                  "integrate_matrix: potential size mismatch");
  SWRAMAN_REQUIRE(out != nullptr, "integrate_matrix_async: null output");
  const std::size_t nbf = basis_.size();
  linalg::Matrix& m = *out;
  m = linalg::Matrix(nbf, nbf);
  // Per-call scratch: one const engine serves concurrent callers.
  const std::size_t width = pass_threads();
  std::vector<PairScratch> slots = pass_slots<PairScratch>(
      width, batch_data_.size(), max_batch_fns_, max_batch_points_);
  threads::claim_each_ordered(
      batch_data_.size(), width, slots.size(),
      [&](std::size_t b, std::size_t s) {
        const BatchData& data = batch_data_[b];
        const std::size_t nloc = data.fn_ids.size();
        const std::size_t npts = data.pt_ids.size();
        if (nloc == 0) return;
        PairScratch& slot = slots[s];
        slot.scale.resize(npts);
        for (std::size_t k = 0; k < npts; ++k) {
          slot.scale[k] =
              grid_.weights[data.pt_ids[k]] * potential_on_grid[data.pt_ids[k]];
        }
        slot.q.assign(nloc, nloc);
        batch_pair_sums(data, data.values, slot.scale, slot.q, slot.packed);
      },
      [&](std::size_t b, std::size_t s) {
        // M_loc(a, b) = sum_p chi_a (chi_b w v), scattered into the global
        // matrix in batch order: the paper's large-array reduction
        // arr[idx] += val (Sec. 3.3).
        const BatchData& data = batch_data_[b];
        const linalg::Matrix& m_loc = slots[s].q;
        const std::size_t nloc = data.fn_ids.size();
        for (std::size_t a = 0; a < nloc; ++a)
          for (std::size_t c = 0; c < nloc; ++c)
            m(data.fn_ids[a], data.fn_ids[c]) +=
                0.5 * (m_loc(a, c) + m_loc(c, a));
      });
  return reduce_matrix_async(m);
}

linalg::Matrix ScfEngine::dipole_matrix(int axis) const {
  linalg::Matrix m;
  dipole_matrix_async(axis, &m)();
  return m;
}

std::function<void()> ScfEngine::dipole_matrix_async(
    int axis, linalg::Matrix* out) const {
  SWRAMAN_REQUIRE(axis >= 0 && axis < 3, "dipole_matrix: axis in [0,3)");
  std::vector<double> coord(grid_.size());
  for (std::size_t p = 0; p < grid_.size(); ++p) {
    coord[p] = grid_.points[p][axis];
  }
  return integrate_matrix_async(coord, out);
}

std::vector<double> ScfEngine::fermi_occupations(
    const std::vector<double>& eigenvalues, double n_electrons,
    double* fermi) const {
  const double kt = std::max(options_.smearing, 1e-8);
  // 2 / (1 + e^x), x = (e - mu)/kt. Below x = -40, e^x < 2^-57 and 1 + e^x
  // rounds to 1; above 710, e^x overflows to inf. Both ends are exact
  // without the exp; NaN fails both tests and takes the exp.
  const auto occupation = [kt](double e, double mu) {
    const double x = (e - mu) / kt;
    if (x < -40.0) return 2.0;
    if (x > 710.0) return 0.0;
    return 2.0 / (1.0 + std::exp(x));
  };
  const auto count = [&](double mu) {
    double n = 0.0;
    for (double e : eigenvalues) n += occupation(e, mu);
    return n;
  };
  // Bisection, at most 200 steps. Once the midpoint rounds onto an end of
  // the bracket, every further step leaves mu at that midpoint, so the
  // search stops there with the 200-step result.
  double lo = eigenvalues.front() - 10.0;
  double hi = eigenvalues.back() + 10.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (count(mid) < n_electrons) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double mu = 0.5 * (lo + hi);
  if (fermi != nullptr) *fermi = mu;
  std::vector<double> occ(eigenvalues.size());
  for (std::size_t i = 0; i < occ.size(); ++i) {
    occ[i] = occupation(eigenvalues[i], mu);
  }
  return occ;
}

void ScfEngine::solve_eigenproblem(const linalg::Matrix& h,
                                   std::vector<double>& eigenvalues,
                                   linalg::Matrix& coefficients) const {
  // H' = X^T H X, standard eigenproblem in the filtered orthonormal basis.
  const linalg::Matrix hx = linalg::at_b(x_, h * x_);
  const linalg::EigenResult res = linalg::eigh(hx);
  eigenvalues = res.values;
  coefficients = x_ * res.vectors;
}

GroundState ScfEngine::solve(const linalg::Matrix* initial_density) {
  SWRAMAN_TRACE_SPAN(span, "scf.solve");
  obs::count("scf.solves");
  // The SCF cycle and the DFPT responses on this engine solve Poisson tens
  // of times on one geometry: worth a Direct evaluation plan.
  hartree_.request_plan();
  const int attempts = std::max(1, options_.recovery_attempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    bool diverged = false;
    GroundState gs = solve_attempt(initial_density, attempt, &diverged);
    if (!diverged) {
      if (span.active()) {
        span.attr("attempts", static_cast<double>(attempt));
        span.attr("iterations", static_cast<double>(gs.iterations));
        span.attr("converged", gs.converged ? 1.0 : 0.0);
      }
      return gs;
    }
    obs::count("scf.recoveries");
    if (attempt < attempts) {
      log::warn("scf.recovery: divergence detected (attempt ", attempt, "/",
                attempts, "): halving mixing to ",
                options_.mixing / static_cast<double>(1 << attempt),
                ", flushing DIIS history, restarting cycle");
    }
  }
  throw ConvergenceError("ScfEngine::solve: cycle diverged in all " +
                         std::to_string(attempts) + " recovery attempts");
}

GroundState ScfEngine::solve_attempt(const linalg::Matrix* initial_density,
                                     int attempt, bool* diverged) {
  *diverged = false;
  // Recovery posture: halve the linear mixing and lengthen the damped
  // warm-up on every retry. The DIIS history is per-attempt state, so a
  // restart flushes it automatically.
  const double mixing =
      options_.mixing / static_cast<double>(1 << (attempt - 1));
  const int damped_iterations = 3 * attempt;
  const std::size_t nbf = basis_.size();
  const double n_elec = basis_.n_electrons();
  GroundState gs;

  // Nuclear repulsion (ionic point charges for pseudized species).
  for (std::size_t a = 0; a < grid_.atoms.size(); ++a) {
    for (std::size_t b = a + 1; b < grid_.atoms.size(); ++b) {
      gs.nuclear_repulsion +=
          basis_.species_of(a).z_nuclear * basis_.species_of(b).z_nuclear /
          distance(grid_.atoms[a].pos, grid_.atoms[b].pos);
    }
  }

  // Initial density: superposition of free atoms, or a restart from a
  // caller-provided density matrix (nearby geometry / field).
  std::vector<double> n(grid_.size());
  if (initial_density != nullptr && initial_density->rows() == nbf &&
      initial_density->cols() == nbf) {
    n = density_on_grid(*initial_density);
  } else {
    for (std::size_t p = 0; p < grid_.size(); ++p) {
      n[p] = basis_.free_atom_density(grid_.points[p]);
    }
  }

  // Finite-field contribution to the effective potential, +F.r.
  std::vector<double> v_field(grid_.size(), 0.0);
  const bool has_field = options_.electric_field.norm2() > 0.0;
  if (has_field) {
    for (std::size_t p = 0; p < grid_.size(); ++p) {
      v_field[p] = dot(options_.electric_field, grid_.points[p]);
    }
  }

  linalg::Matrix p_old(nbf, nbf);
  std::deque<linalg::Matrix> diis_h;
  std::deque<linalg::Matrix> diis_e;
  linalg::DiisGram diis_gram;  // frobenius_dot of the diis_e residuals
  double e_prev = 0.0;
  std::vector<double> v_eff(grid_.size());

  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    SWRAMAN_TRACE_SPAN(iter_span, "scf.iter");
    gs.iterations = iter;
    obs::count("scf.iterations");

    // Forced-divergence injection: poison the density the way a blown-up
    // mixing step or corrupted reduction would.
    if (fault::should_fire(fault::kScfDiverge)) {
      log::warn("fault ", fault::kScfDiverge,
                ": poisoning SCF density at iteration ", iter);
      n[0] = std::numeric_limits<double>::quiet_NaN();
    }

    // Effective potential from the current density.
    double e_h = 0.0;
    double e_xc = 0.0;
    double e_vxc = 0.0;
    {
      SWRAMAN_TRACE_SCOPE("scf.veff");
      const std::vector<double> v_h = hartree_.solve_on_grid(n);
      for (std::size_t p = 0; p < grid_.size(); ++p) {
        const xc::XcEnergyPotential xcp =
            xc::energy_potential(options_.functional, n[p]);
        v_eff[p] = v_ext_[p] + v_h[p] + xcp.v + v_field[p];
        const double wn = grid_.weights[p] * n[p];
        e_h += 0.5 * wn * v_h[p];
        e_xc += wn * xcp.eps;
        e_vxc += wn * xcp.v;
      }
    }
    // Divergence check before anything reaches the eigensolver: e_h sums
    // every grid point, so any non-finite density or potential lands here.
    if (!std::isfinite(e_h) || !std::isfinite(e_xc)) {
      log::warn("scf: non-finite effective potential at iteration ", iter,
                " — aborting cycle for recovery");
      *diverged = true;
      return gs;
    }

    linalg::Matrix h(nbf, nbf);
    {
      SWRAMAN_TRACE_SCOPE("scf.hamiltonian");
      h = t_ + integrate_matrix(v_eff);
    }

    // Pulay DIIS on the Hamiltonian with commutator residuals.
    if (gs.iterations > 1) {
      linalg::Matrix e_mat = h * (p_old * s_) - s_ * (p_old * h);
      diis_h.push_back(h);
      diis_e.push_back(std::move(e_mat));
      if (static_cast<int>(diis_h.size()) > options_.diis_depth) {
        diis_h.pop_front();
        diis_e.pop_front();
        diis_gram.pop_front();
      }
      if (!diis_e.empty()) {
        std::vector<double> row;
        for (const linalg::Matrix& e : diis_e) {
          row.push_back(linalg::frobenius_dot(e, diis_e.back()));
        }
        diis_gram.push(std::move(row));
      }
      const std::vector<double> c = diis_gram.coefficients();
      if (!c.empty()) {
        linalg::Matrix h_mix(nbf, nbf);
        for (std::size_t i = 0; i < c.size(); ++i) {
          linalg::Matrix term = diis_h[i];
          term *= c[i];
          h_mix += term;
        }
        h = std::move(h_mix);
      }
    }

    std::vector<double> eps;
    linalg::Matrix c;
    {
      SWRAMAN_TRACE_SCOPE("scf.eigensolve");
      solve_eigenproblem(h, eps, c);
    }

    double fermi = 0.0;
    const std::vector<double> occ = fermi_occupations(eps, n_elec, &fermi);

    // P = C f C^T over (significantly) occupied states.
    linalg::Matrix p_new(nbf, nbf);
    for (std::size_t j = 0; j < eps.size(); ++j) {
      if (occ[j] < 1e-12) continue;
      for (std::size_t u = 0; u < nbf; ++u) {
        const double cu = occ[j] * c(u, j);
        if (cu == 0.0) continue;
        for (std::size_t v = 0; v < nbf; ++v) {
          p_new(u, v) += cu * c(v, j);
        }
      }
    }

    // Forced corruption of one density-matrix element (the first function
    // coupled to the last). The grid passes skip products with an
    // exact-zero basis factor, so such a NaN need not reach the grid
    // density: the max_abs check below is what must catch it.
    if (fault::should_fire(fault::kScfPoisonDensityMatrix)) {
      log::warn("fault ", fault::kScfPoisonDensityMatrix,
                ": poisoning SCF density matrix at iteration ", iter);
      p_new(0, nbf - 1) = std::numeric_limits<double>::quiet_NaN();
    }

    const double dp = (p_new - p_old).max_abs();

    // Full step in P (the initial free-atom density already carries the
    // right electron count). The next-iteration grid density is started
    // here so its cross-rank reduction runs while the energy bookkeeping
    // below executes — the paper's communication/compute overlap applied
    // to the SCF density mixing.
    p_old = p_new;
    std::vector<double> n_new;
    std::function<void()> wait_density;
    {
      SWRAMAN_TRACE_SCOPE("scf.density");
      wait_density = density_on_grid_async(p_old, &n_new);
    }

    double band = 0.0;
    for (std::size_t j = 0; j < eps.size(); ++j) band += occ[j] * eps[j];

    // Total energy with double-counting corrections (input density); the
    // band energy already contains the field term.
    gs.band_energy = band;
    gs.total_energy = band - e_h - e_vxc + e_xc + gs.nuclear_repulsion;

    const double de = std::abs(gs.total_energy - e_prev);
    e_prev = gs.total_energy;
    if (!std::isfinite(dp) || !std::isfinite(gs.total_energy)) {
      // Every rank reaches the same verdict (all inputs are reduced
      // quantities), so everyone abandons the cycle together — but the
      // in-flight reduction must still be drained first.
      wait_density();
      log::warn("scf: non-finite energy/density step at iteration ", iter,
                " — aborting cycle for recovery");
      *diverged = true;
      return gs;
    }

    gs.eigenvalues = eps;
    gs.occupations = occ;
    gs.coefficients = c;
    gs.density = p_old;
    gs.fermi_level = fermi;

    {
      SWRAMAN_TRACE_SCOPE("scf.density.wait");
      wait_density();
    }
    const double beta = (iter <= damped_iterations) ? mixing : 1.0;
    for (std::size_t p = 0; p < grid_.size(); ++p) {
      n[p] = (1.0 - beta) * n[p] + beta * n_new[p];
    }

    log::debug("SCF iter ", iter, ": E = ", gs.total_energy, " dP = ", dp,
               " dE = ", de);
    if (iter_span.active()) {
      iter_span.attr("dp", dp);
      iter_span.attr("de", de);
      obs::observe("scf.residual.dp", dp);
    }
    if (iter > 3 && dp < options_.density_tol && de < options_.energy_tol) {
      gs.converged = true;
      break;
    }
  }

  // HOMO-LUMO gap from the smeared occupations.
  double homo = -1e30;
  double lumo = 1e30;
  for (std::size_t j = 0; j < gs.eigenvalues.size(); ++j) {
    if (gs.occupations[j] >= 1.0) homo = std::max(homo, gs.eigenvalues[j]);
    if (gs.occupations[j] < 1.0) lumo = std::min(lumo, gs.eigenvalues[j]);
  }
  gs.homo_lumo_gap = lumo - homo;

  // Dipole moment: nuclei minus electrons.
  gs.dipole = {0.0, 0.0, 0.0};
  for (std::size_t a = 0; a < grid_.atoms.size(); ++a) {
    gs.dipole += basis_.species_of(a).z_nuclear * grid_.atoms[a].pos;
  }
  for (std::size_t p = 0; p < grid_.size(); ++p) {
    gs.dipole -= grid_.weights[p] * n[p] * grid_.points[p];
  }
  return gs;
}

}  // namespace swraman::scf
