#include "fmm/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/threads.hpp"
#include "fmm/tree.hpp"

namespace swraman::fmm {

namespace {

// Cells per L2L claim: enough translations to outweigh a claim.
constexpr std::size_t kL2lChunk = 8;

// i^e as a complex unit (e may be negative; the Greengard–Rokhlin phase
// exponents are even, but the general form costs nothing).
Cplx ipow(int e) {
  switch (((e % 4) + 4) % 4) {
    case 0: return {1.0, 0.0};
    case 1: return {0.0, 1.0};
    case 2: return {-1.0, 0.0};
    default: return {0.0, -1.0};
  }
}

// Semi-normalized associated Legendre table t_n^m = sqrt((n-m)!/(n+m)!)
// P_n^m(c) for 0 <= m <= n <= deg (no Condon–Shortley phase, matching
// grid/ylm.cpp), packed triangularly: t[n(n+1)/2 + m].
void seminormal_legendre(double c, double s, int deg, std::vector<double>& t) {
  t.assign(static_cast<std::size_t>((deg + 1) * (deg + 2) / 2), 0.0);
  auto at = [&t](int n, int m) -> double& {
    return t[static_cast<std::size_t>(n * (n + 1) / 2 + m)];
  };
  at(0, 0) = 1.0;
  for (int m = 1; m <= deg; ++m) {
    at(m, m) = std::sqrt((2.0 * m - 1.0) / (2.0 * m)) * s * at(m - 1, m - 1);
  }
  for (int m = 0; m < deg; ++m) {
    at(m + 1, m) = std::sqrt(2.0 * m + 1.0) * c * at(m, m);
  }
  for (int m = 0; m <= deg; ++m) {
    for (int n = m + 2; n <= deg; ++n) {
      const double num = (2.0 * n - 1.0) * c * at(n - 1, m) -
                         std::sqrt((n - 1.0) * (n - 1.0) - m * m) * at(n - 2, m);
      at(n, m) = num / std::sqrt(static_cast<double>(n) * n - m * m);
    }
  }
}

// Shared core of regular()/irregular(): fills out[nm_index(n,m)] with
// radial_n * t_n^{|m|} * e^{i m phi}, where radial_n is rho^n (regular)
// or rho^{-(n+1)} (irregular).
void solid_harmonics(const Vec3& d, int deg, bool reg, std::vector<Cplx>& out,
                     std::vector<double>& leg) {
  out.assign(nm_count(deg), Cplx{0.0, 0.0});
  const double rho = d.norm();
  if (rho < 1e-300) {
    SWRAMAN_REQUIRE(reg, "fmm: irregular harmonics at zero distance");
    out[0] = 1.0;
    return;
  }
  const double c = d.z / rho;
  const double rho_xy = std::sqrt(d.x * d.x + d.y * d.y);
  const double s = rho_xy / rho;
  Cplx eiphi{1.0, 0.0};
  if (rho_xy > 1e-300) eiphi = {d.x / rho_xy, d.y / rho_xy};

  seminormal_legendre(c, s, deg, leg);
  auto t = [&leg](int n, int m) {
    return leg[static_cast<std::size_t>(n * (n + 1) / 2 + m)];
  };

  // e^{i m phi} built incrementally per m across all n.
  std::vector<Cplx>& y = out;
  double radial = reg ? 1.0 : 1.0 / rho;  // rho^n or rho^{-(n+1)}
  std::vector<double> rad(static_cast<std::size_t>(deg) + 1);
  for (int n = 0; n <= deg; ++n) {
    rad[static_cast<std::size_t>(n)] = radial;
    radial = reg ? radial * rho : radial / rho;
  }
  Cplx em{1.0, 0.0};
  for (int m = 0; m <= deg; ++m) {
    for (int n = m; n <= deg; ++n) {
      const Cplx v = rad[static_cast<std::size_t>(n)] * t(n, m) * em;
      y[nm_index(n, m)] = v;
      y[nm_index(n, -m)] = std::conj(v);
    }
    em *= eiphi;
  }
}

}  // namespace

FmmKernel::FmmKernel(int order) : order_(order) {
  SWRAMAN_REQUIRE(order >= 0 && order <= 20, "FmmKernel: order in [0, 20]");
  const int deg = 2 * order_;
  a_.assign(nm_count(deg), 0.0);
  // A_n^m = (-1)^n / sqrt((n-m)!(n+m)!), symmetric in the sign of m.
  std::vector<double> fact(static_cast<std::size_t>(2 * deg) + 1, 1.0);
  for (std::size_t i = 1; i < fact.size(); ++i) {
    fact[i] = fact[i - 1] * static_cast<double>(i);
  }
  for (int n = 0; n <= deg; ++n) {
    const double sgn = (n % 2 == 0) ? 1.0 : -1.0;
    for (int m = -n; m <= n; ++m) {
      const int am = std::abs(m);
      a_[nm_index(n, m)] = sgn / std::sqrt(fact[static_cast<std::size_t>(n - am)] *
                                           fact[static_cast<std::size_t>(n + am)]);
    }
  }
}

void FmmKernel::regular(const Vec3& d, int deg, std::vector<Cplx>& out,
                        std::vector<double>& leg) const {
  solid_harmonics(d, deg, true, out, leg);
}

void FmmKernel::irregular(const Vec3& d, int deg, std::vector<Cplx>& out,
                          std::vector<double>& leg) const {
  solid_harmonics(d, deg, false, out, leg);
}

void FmmKernel::p2m(double q, const Vec3& d, Cplx* M, Workspace& ws) const {
  regular(d, order_, ws.harm, ws.leg);
  for (std::size_t i = 0; i < nm_count(order_); ++i) {
    M[i] += q * std::conj(ws.harm[i]);
  }
}

void FmmKernel::atom_moments_to_multipole(const double* q_lm, int lmax,
                                          Cplx* M) const {
  SWRAMAN_REQUIRE(lmax <= order_, "fmm: atom lmax exceeds expansion order");
  for (int l = 0; l <= lmax; ++l) {
    const double pref = kFourPi / (2.0 * l + 1.0);
    M[nm_index(l, 0)] +=
        std::sqrt((2.0 * l + 1.0) / kFourPi) * pref * q_lm[nm_index(l, 0)];
    const double half_k = 0.5 * std::sqrt(2.0 * (2.0 * l + 1.0) / kFourPi);
    for (int m = 1; m <= l; ++m) {
      const double c_cos = pref * q_lm[nm_index(l, m)];
      const double c_sin = pref * q_lm[nm_index(l, -m)];
      M[nm_index(l, m)] += half_k * Cplx{c_cos, -c_sin};
      M[nm_index(l, -m)] += half_k * Cplx{c_cos, c_sin};
    }
  }
}

void FmmKernel::m2m(const Cplx* M_child, const Vec3& d, Cplx* M_parent,
                    Workspace& ws) const {
  regular(d, order_, ws.harm, ws.leg);
  const int p = order_;
  for (int j = 0; j <= p; ++j) {
    for (int k = -j; k <= j; ++k) {
      Cplx acc{0.0, 0.0};
      for (int n = 0; n <= j; ++n) {
        const int jn = j - n;
        for (int m = -n; m <= n; ++m) {
          const int km = k - m;
          if (std::abs(km) > jn) continue;
          acc += M_child[nm_index(jn, km)] *
                 ipow(std::abs(k) - std::abs(m) - std::abs(km)) * A(n, m) *
                 A(jn, km) * ws.harm[nm_index(n, -m)];
        }
      }
      M_parent[nm_index(j, k)] += acc / A(j, k);
    }
  }
}

void FmmKernel::m2l(const Cplx* M, const Vec3& d, Cplx* L,
                    Workspace& ws) const {
  irregular(d, 2 * order_, ws.harm, ws.leg);
  m2l_combine(M, ws.harm.data(), L);
}

void FmmKernel::m2l_combine(const Cplx* M, const Cplx* irr, Cplx* L) const {
  const int p = order_;
  for (int j = 0; j <= p; ++j) {
    for (int k = -j; k <= j; ++k) {
      Cplx acc{0.0, 0.0};
      for (int n = 0; n <= p; ++n) {
        const double nsgn = (n % 2 == 0) ? 1.0 : -1.0;
        for (int m = -n; m <= n; ++m) {
          const int mk = m - k;
          acc += M[nm_index(n, m)] *
                 ipow(std::abs(mk) - std::abs(k) - std::abs(m)) * A(n, m) *
                 nsgn * irr[nm_index(j + n, mk)] / A(j + n, mk);
        }
      }
      L[nm_index(j, k)] += acc * A(j, k);
    }
  }
}

void FmmKernel::l2l(const Cplx* L_parent, const Vec3& d, Cplx* L_child,
                    Workspace& ws) const {
  // The Greengard local-shift lemma is phrased with the old center relative
  // to the new one; negate so the public convention matches m2m's.
  regular(Vec3{-d.x, -d.y, -d.z}, order_, ws.harm, ws.leg);
  const int p = order_;
  for (int j = 0; j <= p; ++j) {
    for (int k = -j; k <= j; ++k) {
      Cplx acc{0.0, 0.0};
      for (int n = j; n <= p; ++n) {
        const int nj = n - j;
        const double sgn = ((n + j) % 2 == 0) ? 1.0 : -1.0;
        for (int m = -n; m <= n; ++m) {
          const int mk = m - k;
          if (std::abs(mk) > nj) continue;
          acc += L_parent[nm_index(n, m)] *
                 ipow(std::abs(m) - std::abs(mk) - std::abs(k)) * A(nj, mk) *
                 sgn * ws.harm[nm_index(nj, mk)] / A(n, m);
        }
      }
      L_child[nm_index(j, k)] += acc * A(j, k);
    }
  }
}

double FmmKernel::l2p(const Cplx* L, const Vec3& d, Workspace& ws) const {
  regular(d, order_, ws.harm, ws.leg);
  return l2p_combine(L, ws.harm.data());
}

double FmmKernel::l2p_combine(const Cplx* L, const Cplx* reg) const {
  Cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < nm_count(order_); ++i) {
    acc += L[i] * reg[i];
  }
  return acc.real();
}

double FmmKernel::m2p(const Cplx* M, const Vec3& d, Workspace& ws) const {
  irregular(d, order_, ws.harm, ws.leg);
  Cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < nm_count(order_); ++i) {
    acc += M[i] * ws.harm[i];
  }
  return acc.real();
}

double FmmKernel::m2l_flops() const {
  const double nm = static_cast<double>(nm_count(order_));
  return 10.0 * nm * nm;  // complex mul-add per (jk, nm) pair
}

double FmmKernel::l2p_flops() const {
  return 10.0 * static_cast<double>(nm_count(order_));
}

double m2l_error_bound(const std::vector<double>& abs_moment, double ra,
                       double rb, double dist, int order) {
  const double gap = dist - ra - rb;
  if (gap <= 0.0) return std::numeric_limits<double>::infinity();
  const double gamma = (ra + rb) / dist;
  double bound = 0.0;
  double binom = 1.0;  // binom(order + 1, l), built iteratively
  for (std::size_t l = 0; l < abs_moment.size(); ++l) {
    if (l > 0) {
      binom *= static_cast<double>(order + 2 - static_cast<int>(l)) /
               static_cast<double>(l);
      if (binom < 0.0) binom = 0.0;  // l > order + 1: series exhausted
    }
    const int tail = std::max(order + 1 - static_cast<int>(l), 0);
    const double geo = std::pow(gamma, tail) /
                       (std::pow(gap, static_cast<double>(l) + 1.0) *
                        std::pow(1.0 - gamma, static_cast<double>(l) + 1.0));
    bound += (2.0 * static_cast<double>(l) + 1.0) * binom * abs_moment[l] * geo;
  }
  return bound;
}

void l2l_pass(const FmmKernel& K, const Octree& tree, std::size_t n_pots,
              Cplx* locals) {
  const std::vector<Cell>& cells = tree.cells();
  const std::vector<std::size_t>& level_cells = tree.level_cells();
  const std::vector<std::size_t>& level_begin = tree.level_begin();
  const std::size_t nm = nm_count(K.order());
  for (std::size_t level = 1; level + 1 < level_begin.size(); ++level) {
    const std::size_t first = level_begin[level];
    const std::size_t n_cells = level_begin[level + 1] - first;
    const std::size_t n_chunks = (n_cells + kL2lChunk - 1) / kL2lChunk;
    threads::claim_each(
        n_chunks, threads::hardware_threads(), [&](std::size_t chunk) {
          FmmKernel::Workspace ws;
          const std::size_t lo = first + chunk * kL2lChunk;
          const std::size_t hi = std::min(lo + kL2lChunk, first + n_cells);
          for (std::size_t k = lo; k < hi; ++k) {
            const std::size_t ci = level_cells[k];
            const Cell& c = cells[ci];
            for (std::size_t j = 0; j < n_pots; ++j) {
              Cplx* loc = &locals[j * cells.size() * nm];
              K.l2l(&loc[c.parent * nm], c.center - cells[c.parent].center,
                    &loc[ci * nm], ws);
            }
          }
        });
  }
}

}  // namespace swraman::fmm
