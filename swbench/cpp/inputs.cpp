#include "inputs.hpp"

#include <array>
#include <cstdio>
#include <iterator>
#include <set>
#include <utility>

#include "core/molecules.hpp"

namespace swbench {

namespace sw = swraman;

namespace {

// Per-workload salts keep the three streams apart for one --seed.
constexpr std::uint64_t kWaterSalt = 0x57a7e4d1c0ffee01ull;
constexpr std::uint64_t kClusterSalt = 0xc1a55e7b0b5e7702ull;
constexpr std::uint64_t kBurstSalt = 0x5e7b0b57b0b5e703ull;

std::vector<AtomSite> translated(std::vector<AtomSite> atoms, Rng& rng) {
  const sw::Vec3 shift{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)};
  for (AtomSite& a : atoms) a.pos += shift;
  return atoms;
}

// Serve-tier numerics: pseudized minimal basis on a 12/5 grid keeps one
// displaced SCF + DFPT solve of a small molecule near 0.1 s.
sw::raman::RamanOptions serve_options() {
  sw::raman::RamanOptions opt;
  opt.vibrations.scf.grid.n_radial = 12;
  opt.vibrations.scf.grid.angular_order = 5;
  opt.vibrations.scf.species.tier = sw::basis::Tier::Minimal;
  opt.vibrations.scf.species.pseudized = true;
  return opt;
}

struct Template {
  const char* molecule;
  std::vector<AtomSite> (*atoms)();
  sw::serve::Tier tier;
  std::size_t count;    // distinct (distorted) jobs of this kind per burst
  std::size_t repeats;  // how many of them are submitted a second time
};

std::vector<AtomSite> h2_default() { return sw::molecules::h2(); }

// Fixed composition: 27 distinct jobs + 13 exact repeats = 40.
const Template kTemplates[] = {
    {"h2", &h2_default, sw::serve::Tier::Dfpt, 8, 4},
    {"h2", &h2_default, sw::serve::Tier::Bec, 6, 3},
    {"water", &sw::molecules::water, sw::serve::Tier::Dfpt, 7, 3},
    {"water", &sw::molecules::water, sw::serve::Tier::Bec, 6, 3},
};

std::string tenant(std::size_t t) { return "tenant" + std::to_string(t); }

// Coordinates are distorted by up to this much (Bohr): enough to defeat
// the service's symmetry folding, small against any bond.
constexpr double kDistortion = 0.03;

}  // namespace

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

std::vector<AtomSite> water_raman_geometry(std::uint64_t seed) {
  Rng rng(seed ^ kWaterSalt);
  // molecules::water() BFGS-relaxed at the golden numerics, symmetrized to
  // C2v — the pinned geometry of the golden spectrum test.
  return translated({{8, {0.0, 0.0, 0.3268247149}},
                     {1, {1.2518316921, 0.0, 0.9437281316}},
                     {1, {-1.2518316921, 0.0, 0.9437281316}}},
                    rng);
}

sw::raman::RamanOptions water_raman_options() {
  sw::raman::RamanOptions opt;
  opt.vibrations.scf.grid.n_radial = 16;
  opt.vibrations.scf.grid.angular_order = 7;
  return opt;
}

std::vector<AtomSite> cluster_geometry(std::uint64_t seed) {
  Rng rng(seed ^ kClusterSalt);
  return translated(sw::molecules::water_cluster(kClusterMolecules), rng);
}

sw::scf::ScfOptions cluster_options(bool fmm) {
  sw::scf::ScfOptions opt;
  opt.species.tier = sw::basis::Tier::Minimal;
  opt.grid.n_radial = 14;
  opt.grid.angular_order = 7;
  opt.grid.partition = sw::grid::PartitionScheme::Hirshfeld;
  opt.multipole_lmax = 4;
  opt.hartree_backend =
      fmm ? sw::fmm::HartreeBackend::Fmm : sw::fmm::HartreeBackend::Direct;
  opt.fmm.order = 4;
  opt.fmm.theta = 0.6;
  return opt;
}

std::vector<BurstJob> serve_burst_jobs(std::uint64_t seed) {
  Rng rng(seed ^ kBurstSalt);
  constexpr std::size_t kKinds = std::size(kTemplates);
  // Distinct jobs, the kinds interleaved; round i gives kind k to tenant
  // (i + k) mod 4, so every tenant's queue holds a near-equal mix of kinds.
  // The order is fixed, which keeps the fair-share schedule, and with it
  // the latency distribution, alike from seed to seed.
  std::size_t n_distinct = 0;
  for (const Template& t : kTemplates) n_distinct += t.count;
  std::vector<BurstJob> jobs;
  std::vector<std::size_t> owner;  // tenant of each distinct job
  std::array<std::vector<std::size_t>, kKinds> of_kind;
  for (std::size_t i = 0; jobs.size() < n_distinct; ++i) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      const Template& t = kTemplates[k];
      if (i >= t.count) continue;
      BurstJob job;
      job.spec.engine = sw::serve::EngineKind::Real;
      job.spec.tier = t.tier;
      job.spec.options = serve_options();
      job.spec.atoms = t.atoms();
      for (AtomSite& a : job.spec.atoms) {
        for (int c = 0; c < 3; ++c) {
          a.pos[c] += rng.uniform(-kDistortion, kDistortion);
        }
      }
      owner.push_back((i + k) % kBurstTenants);
      job.spec.client = tenant(owner.back());
      job.spec.name = std::string(t.molecule) + "/" +
                      sw::serve::tier_name(t.tier) + "/" + std::to_string(i);
      of_kind[k].push_back(jobs.size());
      jobs.push_back(std::move(job));
    }
  }
  // Exact repeats, submitted after every distinct job: the seed picks which
  // jobs of each kind; each repeat goes to the other tenant with the fewest
  // jobs so far, so every tenant ends with ten.
  std::array<std::size_t, kBurstTenants> per_tenant{};
  for (std::size_t t : owner) ++per_tenant[t];
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::vector<std::size_t>& pool = of_kind[k];
    for (std::size_t r = 0; r < kTemplates[k].repeats; ++r) {
      std::swap(pool[r], pool[r + rng.below(pool.size() - r)]);
      const std::size_t first = pool[r];
      std::size_t to = (owner[first] + 1) % kBurstTenants;
      for (std::size_t t = 0; t < kBurstTenants; ++t) {
        if (t != owner[first] && per_tenant[t] < per_tenant[to]) to = t;
      }
      ++per_tenant[to];
      BurstJob repeat;
      repeat.spec = jobs[first].spec;
      repeat.spec.client = tenant(to);
      repeat.spec.name += "/repeat";
      repeat.repeat_of = static_cast<int>(first);
      jobs.push_back(std::move(repeat));
    }
  }
  return jobs;
}

std::string dump_serve_burst(const std::vector<BurstJob>& jobs) {
  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const sw::serve::JobSpec& s = jobs[i].spec;
    const sw::scf::ScfOptions& scf = s.options.vibrations.scf;
    std::snprintf(buf, sizeof(buf),
                  "job %zu client=%s name=%s tier=%s repeat_of=%d grid=%d/%d "
                  "atoms=%zu\n",
                  i, s.client.c_str(), s.name.c_str(),
                  sw::serve::tier_name(s.tier), jobs[i].repeat_of,
                  scf.grid.n_radial, scf.grid.angular_order, s.atoms.size());
    out += buf;
    for (const AtomSite& a : s.atoms) {
      std::snprintf(buf, sizeof(buf), "  %d %a %a %a\n", a.z, a.pos[0],
                    a.pos[1], a.pos[2]);
      out += buf;
    }
  }
  return out;
}

std::vector<int> elements_of(const std::vector<std::vector<AtomSite>>& geoms) {
  std::set<int> zs;
  for (const auto& g : geoms) {
    for (const AtomSite& a : g) zs.insert(a.z);
  }
  return {zs.begin(), zs.end()};
}

}  // namespace swbench
