#include "fmm/backend.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "fmm/kernel.hpp"
#include "fmm/traversal.hpp"
#include "fmm/tree.hpp"
#include "grid/ylm.hpp"
#include "obs/obs.hpp"
#include "sunway/arch.hpp"
#include "sunway/cpe_cluster.hpp"
#include "sunway/kernels.hpp"

namespace swraman::fmm {

// Per-atom / per-point evaluation cost in flops, matching what the kernel1
// CPE model charges — the common currency of the Auto cost model.
namespace {
double point_atom_flops(std::size_t n_lm) {
  return 12.0 * static_cast<double>(n_lm) + 30.0;
}
}  // namespace

struct HartreeContext::Geometry {
  FmmKernel kernel;
  std::unique_ptr<Octree> sources;  // atom centers, extent = spline radius
  std::unique_ptr<Octree> targets;  // grid points
  // M2L pairs grouped per target cell (disjoint target slices -> the CPE
  // kernel writes without conflicts).
  std::vector<std::size_t> m2l_targets;
  std::vector<std::size_t> m2l_begin;  // size m2l_targets.size() + 1
  std::vector<std::size_t> m2l_sources;
  // Every target leaf, with its (possibly empty) P2P source-leaf range.
  std::vector<std::size_t> target_leaves;
  std::vector<std::size_t> p2p_begin;  // size target_leaves.size() + 1
  std::vector<std::size_t> p2p_sources;
  std::vector<Vec3> points_sorted;  // grid points in target-tree order
  double p2p_point_atom_pairs = 0.0;
  double direct_flops = 0.0;
  double fmm_flops = 0.0;

  explicit Geometry(int order) : kernel(order) {}
};

HartreeContext::HartreeContext(const grid::MolecularGrid& grid, int lmax,
                               HartreeBackend backend, FmmOptions options)
    : grid_(grid),
      solver_(grid, lmax),
      backend_(backend),
      options_(options) {
  SWRAMAN_REQUIRE(options_.order >= lmax,
                  "HartreeContext: FMM order must cover multipole lmax");
}

HartreeContext::~HartreeContext() = default;

const HartreeContext::Geometry& HartreeContext::geometry() const {
  if (geo_) return *geo_;
  SWRAMAN_TRACE_SPAN(span, "hartree.fmm.build");
  auto g = std::make_unique<Geometry>(options_.order);

  // Source tree over atom centers; each atom's extent is its outermost
  // shell radius so MAC-accepted pairs sit strictly in the analytic far
  // field of every member atom.
  std::vector<Vec3> centers(grid_.atoms.size());
  for (std::size_t a = 0; a < grid_.atoms.size(); ++a) {
    centers[a] = grid_.atoms[a].pos;
  }
  std::vector<double> extent(grid_.atoms.size(), 0.0);
  for (const grid::ShellInfo& sh : grid_.shells) {
    std::size_t a = static_cast<std::size_t>(sh.atom);
    extent[a] = std::max(extent[a], sh.radius);
  }
  OctreeOptions src_opt;
  src_opt.leaf_size = options_.source_leaf_size;
  g->sources = std::make_unique<Octree>(centers, extent, src_opt);

  OctreeOptions tgt_opt;
  tgt_opt.leaf_size = options_.target_leaf_size;
  g->targets = std::make_unique<Octree>(grid_.points,
                                        std::vector<double>{}, tgt_opt);
  g->points_sorted.resize(grid_.points.size());
  for (std::size_t i = 0; i < grid_.points.size(); ++i) {
    g->points_sorted[i] = grid_.points[g->targets->body_order()[i]];
  }

  const InteractionLists lists =
      traverse(*g->targets, *g->sources, options_.theta);

  // Group M2L by target cell (stable bucket sort over cell index).
  {
    std::vector<std::vector<std::size_t>> by_target(g->targets->cells().size());
    for (const CellPair& pr : lists.m2l) by_target[pr.target].push_back(pr.source);
    g->m2l_begin.push_back(0);
    for (std::size_t t = 0; t < by_target.size(); ++t) {
      if (by_target[t].empty()) continue;
      g->m2l_targets.push_back(t);
      g->m2l_sources.insert(g->m2l_sources.end(), by_target[t].begin(),
                            by_target[t].end());
      g->m2l_begin.push_back(g->m2l_sources.size());
    }
  }

  // Group P2P by target leaf; keep every leaf (L2P runs regardless).
  {
    const auto& tcells = g->targets->cells();
    std::vector<std::vector<std::size_t>> by_leaf(tcells.size());
    for (const CellPair& pr : lists.p2p) by_leaf[pr.target].push_back(pr.source);
    g->p2p_begin.push_back(0);
    for (std::size_t t = 0; t < tcells.size(); ++t) {
      if (!tcells[t].is_leaf()) continue;
      g->target_leaves.push_back(t);
      g->p2p_sources.insert(g->p2p_sources.end(), by_leaf[t].begin(),
                            by_leaf[t].end());
      g->p2p_begin.push_back(g->p2p_sources.size());
      for (std::size_t s : by_leaf[t]) {
        g->p2p_point_atom_pairs +=
            static_cast<double>(tcells[t].n_bodies) *
            static_cast<double>(g->sources->cells()[s].n_bodies);
      }
    }
  }

  // Cost-model crossover estimate (flops; the Auto selector's currency).
  const std::size_t n_lm = grid::n_lm(solver_.lmax());
  const double c_pa = point_atom_flops(n_lm);
  const double n_points = static_cast<double>(grid_.points.size());
  const double n_atoms = static_cast<double>(grid_.atoms.size());
  g->direct_flops = n_points * n_atoms * c_pa;
  const double translate = g->kernel.m2l_flops();  // O(p^4), M2M/L2L alike
  g->fmm_flops =
      static_cast<double>(g->m2l_sources.size()) * translate +
      g->p2p_point_atom_pairs * c_pa +
      n_points * g->kernel.l2p_flops() +
      (n_atoms + static_cast<double>(g->sources->cells().size()) +
       static_cast<double>(g->targets->cells().size())) *
          0.5 * translate;
  if (backend_ == HartreeBackend::Auto) {
    // The Auto decision is geometry-static: record it once.
    stats_.direct_flops = g->direct_flops;
    stats_.fmm_flops = g->fmm_flops;
    stats_.resolved = g->fmm_flops < g->direct_flops ? HartreeBackend::Fmm
                                                     : HartreeBackend::Direct;
  }

  if (span.active()) {
    span.attr("source_cells", static_cast<double>(g->sources->cells().size()));
    span.attr("target_cells", static_cast<double>(g->targets->cells().size()));
    span.attr("m2l_pairs", static_cast<double>(g->m2l_sources.size()));
    span.attr("p2p_pairs", static_cast<double>(g->p2p_sources.size()));
    span.attr("direct_flops", g->direct_flops);
    span.attr("fmm_flops", g->fmm_flops);
  }
  obs::count("hartree.fmm.m2l.pairs",
             static_cast<double>(g->m2l_sources.size()));
  obs::count("hartree.fmm.p2p.pairs",
             static_cast<double>(g->p2p_sources.size()));
  geo_ = std::move(g);
  return *geo_;
}

HartreeBackend HartreeContext::resolve_backend() const {
  if (backend_ != HartreeBackend::Auto) return backend_;
  const lockcheck::CheckedLock lock(mutex_);
  const Geometry& g = geometry();
  return g.fmm_flops < g.direct_flops ? HartreeBackend::Fmm
                                      : HartreeBackend::Direct;
}

FmmStats HartreeContext::stats() const {
  const lockcheck::CheckedLock lock(mutex_);
  return stats_;
}

void HartreeContext::request_plan(std::size_t byte_cap) {
  if (resolve_backend() == HartreeBackend::Direct) {
    solver_.request_plan(byte_cap);
  }
}

std::vector<std::vector<double>> HartreeContext::solve_on_grid(
    std::span<const std::vector<double>> densities) const {
  if (resolve_backend() == HartreeBackend::Direct) {
    // Verbatim dense path: bitwise identical to the pre-FMM solver. It
    // writes no context state, so concurrent Direct solves are race-free.
    return solver_.solve_on_grid(densities);
  }
  SWRAMAN_TRACE_SCOPE("hartree.poisson");
  std::vector<hartree::MultipolePotential> pots;
  pots.reserve(densities.size());
  for (const std::vector<double>& n : densities) pots.push_back(solver_.solve(n));
  return fmm_on_grid(pots);
}

std::vector<double> HartreeContext::solve_on_grid(
    const std::vector<double>& density) const {
  return std::move(solve_on_grid(std::span(&density, 1))[0]);
}

std::vector<double> HartreeContext::fmm_on_grid(
    const hartree::MultipolePotential& potential) const {
  return std::move(fmm_on_grid(std::span(&potential, 1))[0]);
}

std::vector<std::vector<double>> HartreeContext::fmm_on_grid(
    std::span<const hartree::MultipolePotential> pots) const {
  // The CPE cluster model and the stats are per context: one tree
  // evaluation at a time.
  const lockcheck::CheckedLock lock(mutex_);
  const Geometry& g = geometry();
  const FmmKernel& K = g.kernel;
  const int p = options_.order;
  const std::size_t n_pots = pots.size();
  SWRAMAN_REQUIRE(n_pots >= 1, "fmm_on_grid: no potential");
  const int lmax = pots[0].lmax();
  const std::size_t nm = nm_count(p);
  const std::size_t n_lm = grid::n_lm(lmax);
  const auto& scells = g.sources->cells();
  const auto& tcells = g.targets->cells();
  const std::size_t n_atoms = pots[0].n_atoms();
  const std::size_t n_points = grid_.points.size();
  for (const hartree::MultipolePotential& pot : pots) {
    SWRAMAN_REQUIRE(pot.n_atoms() == grid_.atoms.size() && pot.lmax() == lmax,
                    "fmm_on_grid: foreign potential");
  }

  stats_ = FmmStats{};
  stats_.resolved = HartreeBackend::Fmm;
  stats_.n_source_cells = scells.size();
  stats_.n_target_cells = tcells.size();
  stats_.n_m2l_pairs = g.m2l_sources.size();
  stats_.n_p2p_pairs = g.p2p_sources.size();
  stats_.direct_flops = g.direct_flops;
  stats_.fmm_flops = g.fmm_flops;

  if (options_.use_cpe && !cluster_) {
    cluster_ = std::make_unique<sunway::CpeCluster>(sunway::sw26010pro());
  }

  // Expansions are potential-major: potential j's block of a per-cell
  // array starts at j * cells * nm, laid out as in a one-potential pass.
  // --- upward: atom moments -> leaf multipoles -> cell multipoles ---
  std::vector<Cplx> multipoles(n_pots * scells.size() * nm, Cplx{});
  std::vector<Cplx> atom_m(n_pots * n_atoms * nm, Cplx{});
  {
    SWRAMAN_TRACE_SPAN(span, "hartree.fmm.upward");
    FmmKernel::Workspace ws;
    std::vector<double> qlm(n_lm);
    const std::vector<std::size_t>& order = g.sources->body_order();
    for (std::size_t j = 0; j < n_pots; ++j) {
      const hartree::MultipolePotential& pot = pots[j];
      Cplx* am = &atom_m[j * n_atoms * nm];
      Cplx* mp = &multipoles[j * scells.size() * nm];
      for (std::size_t a = 0; a < n_atoms; ++a) {
        for (std::size_t lm = 0; lm < n_lm; ++lm) qlm[lm] = pot.moment(a, lm);
        K.atom_moments_to_multipole(qlm.data(), lmax, &am[a * nm]);
      }
      for (std::size_t ci = scells.size(); ci-- > 0;) {
        const Cell& c = scells[ci];
        Cplx* M = &mp[ci * nm];
        if (c.is_leaf()) {
          for (std::size_t i = c.first_body; i < c.first_body + c.n_bodies;
               ++i) {
            const std::size_t a = order[i];
            K.m2m(&am[a * nm], pot.centers()[a] - c.center, M, ws);
          }
        } else {
          for (int k = 0; k < c.n_children; ++k) {
            const std::size_t ch = c.first_child + static_cast<std::size_t>(k);
            K.m2m(&mp[ch * nm], scells[ch].center - c.center, M, ws);
          }
        }
      }
    }
    if (span.active()) span.attr("atoms", static_cast<double>(n_atoms));
  }

  // --- traversal: M2L over the precomputed well-separated pair lists ---
  // One launch for every potential: each pair's irregular harmonics are
  // computed once, then each potential's multipole is fetched and combined
  // exactly as in a one-potential pass.
  std::vector<Cplx> locals(n_pots * tcells.size() * nm, Cplx{});
  {
    SWRAMAN_TRACE_SPAN(span, "hartree.fmm.traversal");
    const double pair_flops = K.m2l_flops();
    auto m2l_body = [&](sunway::CpeContext* ctx, std::size_t lo,
                        std::size_t hi) {
      FmmKernel::Workspace ws;
      std::vector<Cplx*> acc(n_pots);
      for (std::size_t gi = lo; gi < hi; ++gi) {
        const std::size_t t = g.m2l_targets[gi];
        Cplx* lbuf = nullptr;
        Cplx* sbuf = nullptr;
        if (ctx) {
          ctx->ldm().reset();
          lbuf = ctx->ldm().allocate<Cplx>(n_pots * nm);
          sbuf = ctx->ldm().allocate<Cplx>(nm);
          std::fill(lbuf, lbuf + n_pots * nm, Cplx{});
        }
        for (std::size_t j = 0; j < n_pots; ++j) {
          acc[j] = ctx ? lbuf + j * nm
                       : &locals[(j * tcells.size() + t) * nm];
        }
        for (std::size_t k = g.m2l_begin[gi]; k < g.m2l_begin[gi + 1]; ++k) {
          const std::size_t s = g.m2l_sources[k];
          K.irregular(scells[s].center - tcells[t].center, 2 * p, ws.harm,
                      ws.leg);
          for (std::size_t j = 0; j < n_pots; ++j) {
            const Cplx* M = &multipoles[(j * scells.size() + s) * nm];
            if (ctx) {
              ctx->dma_get(sbuf, M, nm);
              M = sbuf;
            }
            K.m2l_combine(M, ws.harm.data(), acc[j]);
            if (ctx) ctx->charge_flops(pair_flops);
          }
        }
        if (ctx) {
          for (std::size_t j = 0; j < n_pots; ++j) {
            ctx->dma_put(acc[j], &locals[(j * tcells.size() + t) * nm], nm);
          }
        }
      }
    };
    if (cluster_) {
      const sunway::CpeCounters before = cluster_->total();
      cluster_->run("fmmM2L", [&](sunway::CpeContext& ctx) {
        const auto [lo, hi] = ctx.my_slice(g.m2l_targets.size());
        m2l_body(&ctx, lo, hi);
      });
      sunway::attach_kernel_span_attrs(
          span, *cluster_, before,
          static_cast<double>(n_pots * g.m2l_sources.size()), 0.85);
    } else {
      m2l_body(nullptr, 0, g.m2l_targets.size());
    }
  }

  // --- downward: locals to children (L2L), then L2P + exact near field ---
  const std::vector<std::size_t>& torder = g.targets->body_order();
  std::vector<double> v_sorted(n_pots * n_points, 0.0);
  {
    SWRAMAN_TRACE_SPAN(span, "hartree.fmm.downward");
    l2l_pass(K, *g.targets, n_pots, locals.data());

    // One launch for every potential. Per point the regular harmonics of
    // L2P, and per near (point, atom) pair the record of pair_geometry,
    // are computed once; each potential then adds its own L2P value and
    // its own per-atom channel sums in the order of a one-potential pass.
    // The model charges every potential as its own kernel1 pass: the
    // coordinate tile, the coefficient blocks and the channel math.
    const double pa_flops = point_atom_flops(n_lm);
    const double lp_flops = K.l2p_flops();
    const std::vector<std::size_t>& sorder = g.sources->body_order();
    auto p2p_body = [&](sunway::CpeContext* ctx, std::size_t lo,
                        std::size_t hi) {
      FmmKernel::Workspace ws;
      double rec[hartree::kPairRecordMax];
      std::vector<double> v(n_pots);
      std::vector<const Cplx*> L(n_pots);
      std::vector<double*> vout(n_pots);
      for (std::size_t li = lo; li < hi; ++li) {
        const std::size_t t = g.target_leaves[li];
        const Cell& tc = tcells[t];
        const std::size_t nb = tc.n_bodies;
        const Vec3* coords = &g.points_sorted[tc.first_body];
        for (std::size_t j = 0; j < n_pots; ++j) {
          L[j] = &locals[(j * tcells.size() + t) * nm];
          vout[j] = &v_sorted[j * n_points + tc.first_body];
        }
        if (ctx) {
          ctx->ldm().reset();
          Vec3* cb = ctx->ldm().allocate<Vec3>(nb);
          double* vb = ctx->ldm().allocate<double>(n_pots * nb);
          Cplx* lbuf = ctx->ldm().allocate<Cplx>(n_pots * nm);
          ctx->dma_get(cb, coords, nb);
          ctx->counters().dma_bytes +=
              static_cast<double>((n_pots - 1) * nb * sizeof(Vec3));
          ctx->counters().dma_transfers += static_cast<double>(n_pots - 1);
          coords = cb;
          for (std::size_t j = 0; j < n_pots; ++j) {
            ctx->dma_get(lbuf + j * nm, L[j], nm);
            L[j] = lbuf + j * nm;
            vout[j] = vb + j * nb;
          }
        }
        for (std::size_t k = 0; k < nb; ++k) {
          K.regular(coords[k] - tc.center, p, ws.harm, ws.leg);
          for (std::size_t j = 0; j < n_pots; ++j) {
            v[j] = K.l2p_combine(L[j], ws.harm.data());
            if (ctx) ctx->charge_flops(lp_flops);
          }
          for (std::size_t si = g.p2p_begin[li]; si < g.p2p_begin[li + 1];
               ++si) {
            const Cell& sc = scells[g.p2p_sources[si]];
            for (std::size_t bi = sc.first_body;
                 bi < sc.first_body + sc.n_bodies; ++bi) {
              const std::size_t atom = sorder[bi];
              const bool live = pots[0].l_res(atom) >= 0;
              const std::uint32_t interval =
                  live ? pots[0].geometry(atom, coords[k], rec) : 0;
              for (std::size_t j = 0; j < n_pots; ++j) {
                // value_atom's per-atom sum, started from 0.0.
                v[j] += live ? pots[j].accumulate_pair(atom, interval, rec, 0.0)
                             : 0.0;
                if (ctx) {
                  // Coefficient-block traffic + channel math per near atom,
                  // modeled as in kernel1.
                  ctx->counters().dma_bytes +=
                      static_cast<double>(4 * n_lm * sizeof(double));
                  ctx->counters().dma_transfers += 1.0 / 16.0;
                  ctx->charge_flops(pa_flops);
                }
              }
            }
          }
          for (std::size_t j = 0; j < n_pots; ++j) vout[j][k] = v[j];
        }
        if (ctx) {
          for (std::size_t j = 0; j < n_pots; ++j) {
            ctx->dma_put(vout[j], &v_sorted[j * n_points + tc.first_body], nb);
          }
        }
      }
    };
    if (cluster_) {
      SWRAMAN_TRACE_SPAN(p2p_span, "hartree.fmm.p2p");
      const sunway::CpeCounters before = cluster_->total();
      cluster_->run("fmmP2P", [&](sunway::CpeContext& ctx) {
        const auto [lo, hi] = ctx.my_slice(g.target_leaves.size());
        p2p_body(&ctx, lo, hi);
      });
      sunway::attach_kernel_span_attrs(
          p2p_span, *cluster_, before,
          static_cast<double>(n_pots * n_points), 0.85);
    } else {
      p2p_body(nullptr, 0, g.target_leaves.size());
    }
  }

  // Analytic truncation bound, accumulated down the tree so every leaf sees
  // its own M2L pairs plus every ancestor's; the worst over the potentials.
  if (options_.track_error_bound) {
    const std::vector<std::size_t>& sorder = g.sources->body_order();
    double worst = 0.0;
    for (std::size_t j = 0; j < n_pots; ++j) {
      std::vector<std::vector<double>> absmom(
          scells.size(),
          std::vector<double>(static_cast<std::size_t>(lmax) + 1, 0.0));
      for (std::size_t ci = 0; ci < scells.size(); ++ci) {
        const Cell& c = scells[ci];
        for (std::size_t i = c.first_body; i < c.first_body + c.n_bodies;
             ++i) {
          const Cplx* M = &atom_m[(j * n_atoms + sorder[i]) * nm];
          for (int l = 0; l <= lmax; ++l) {
            for (int m = -l; m <= l; ++m) {
              absmom[ci][static_cast<std::size_t>(l)] +=
                  std::abs(M[nm_index(l, m)]);
            }
          }
        }
      }
      std::vector<double> cell_bound(tcells.size(), 0.0);
      for (std::size_t gi = 0; gi < g.m2l_targets.size(); ++gi) {
        const std::size_t t = g.m2l_targets[gi];
        for (std::size_t k = g.m2l_begin[gi]; k < g.m2l_begin[gi + 1]; ++k) {
          const std::size_t s = g.m2l_sources[k];
          cell_bound[t] += m2l_error_bound(
              absmom[s], scells[s].radius, tcells[t].radius,
              (scells[s].center - tcells[t].center).norm(), p);
        }
      }
      for (std::size_t ci = 0; ci < tcells.size(); ++ci) {
        if (ci != 0) cell_bound[ci] += cell_bound[tcells[ci].parent];
        if (tcells[ci].is_leaf()) worst = std::max(worst, cell_bound[ci]);
      }
    }
    stats_.max_error_bound = worst;
  }

  std::vector<std::vector<double>> v(n_pots, std::vector<double>(n_points));
  for (std::size_t j = 0; j < n_pots; ++j) {
    const double* vs = &v_sorted[j * n_points];
    for (std::size_t i = 0; i < n_points; ++i) v[j][torder[i]] = vs[i];
  }
  return v;
}

}  // namespace swraman::fmm
