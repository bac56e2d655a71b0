#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "basis/species.hpp"
#include "dfpt/dfpt_engine.hpp"
#include "inputs.hpp"
#include "obs/trace.hpp"
#include "raman/raman.hpp"
#include "raman/vibrations.hpp"
#include "scf/scf_engine.hpp"
#include "serve/service.hpp"

namespace swbench {

namespace sw = swraman;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Species set-up: the uncached atomic solves for every element, timed
// `reps` times; then the process-wide cache the engines read is filled.
void time_species(const std::vector<int>& zs,
                  const sw::basis::SpeciesOptions& opt, int reps,
                  std::map<std::string, std::vector<double>>& parts) {
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int z : zs) (void)sw::basis::build_species(z, opt);
    parts["species_s"].push_back(since(t0));
  }
  for (int z : zs) (void)sw::basis::species(z, opt);
}

// Set-up steps are short and noisy: each is timed this many times and
// reported as a median.
constexpr int kSetupReps = 5;

// ---------------------------------------------------------------- water

// Tolerances of tests/golden/test_golden_spectrum.cpp.
constexpr double kFreqTolCm = 1.0;
constexpr double kActivityRelTol = 0.02;
constexpr double kDepolTol = 0.02;

struct GoldenMode {
  double frequency_cm = 0.0;
  double activity = 0.0;
  double depolarization = 0.0;
};

std::vector<GoldenMode> load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("golden snapshot missing: " + path);
  std::vector<GoldenMode> modes;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    GoldenMode m;
    if (!(ss >> m.frequency_cm >> m.activity >> m.depolarization)) {
      throw std::runtime_error("golden snapshot: malformed line " + line);
    }
    modes.push_back(m);
  }
  return modes;
}

// Empty when the spectrum matches the golden snapshot.
std::string golden_mismatch(const sw::raman::RamanSpectrum& spec,
                            const std::vector<GoldenMode>& golden) {
  if (spec.modes.size() != golden.size()) {
    return "mode count " + std::to_string(spec.modes.size()) + " != " +
           std::to_string(golden.size());
  }
  char buf[160];
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const sw::raman::RamanMode& m = spec.modes[i];
    const GoldenMode& g = golden[i];
    if (std::abs(m.frequency_cm - g.frequency_cm) > kFreqTolCm ||
        std::abs(m.activity - g.activity) >
            kActivityRelTol * std::abs(g.activity) ||
        std::abs(m.depolarization - g.depolarization) > kDepolTol) {
      std::snprintf(buf, sizeof(buf),
                    "mode %zu: %.3f cm^-1 / %.4f / %.4f vs golden %.3f / "
                    "%.4f / %.4f",
                    i, m.frequency_cm, m.activity, m.depolarization,
                    g.frequency_cm, g.activity, g.depolarization);
      return buf;
    }
  }
  return {};
}

class WaterRaman : public Workload {
 public:
  WaterRaman(std::uint64_t seed, std::string golden)
      : atoms_(water_raman_geometry(seed)),
        options_(water_raman_options()),
        golden_path_(std::move(golden)) {}

  void setup(std::map<std::string, std::vector<double>>& parts) override {
    golden_ = load_golden(golden_path_);
    time_species(elements_of({atoms_}), options_.vibrations.scf.species,
                 kSetupReps, parts);
  }

  // RamanCalculator::compute() step by step, so the Hessian and the
  // d(alpha)/dR loop are timed separately.
  OpResult run_op() override {
    OpResult r;
    r.attempted = 1;
    const auto t0 = Clock::now();
    try {
      sw::raman::RamanCalculator calc(atoms_, options_);
      sw::linalg::Matrix hess;
      {
        const sw::obs::ScopedSpan span("bench.raman.hessian");
        const auto t = Clock::now();
        hess = sw::raman::energy_hessian(atoms_, options_.vibrations);
        r.info["hessian_s"] = since(t);
      }
      sw::raman::NormalModes modes;
      {
        const sw::obs::ScopedSpan span("bench.raman.modes");
        modes = sw::raman::normal_modes(
            atoms_, hess, options_.vibrations.project_rigid_body);
      }
      sw::linalg::Matrix dalpha;
      {
        const sw::obs::ScopedSpan span("bench.raman.dalpha");
        const auto t = Clock::now();
        dalpha = calc.polarizability_derivatives();
        r.info["dalpha_s"] = since(t);
      }
      sw::raman::RamanSpectrum spec;
      {
        const sw::obs::ScopedSpan span("bench.raman.assemble");
        spec = sw::raman::assemble_spectrum(atoms_, modes, dalpha,
                                            calc.dipole_derivatives(),
                                            options_.mode_floor_cm);
      }
      r.wall_s = since(t0);
      r.latencies_s.push_back(r.wall_s);
      r.info["polarizabilities"] = calc.n_polarizabilities();
      for (std::size_t i = 0; i < spec.modes.size(); ++i) {
        r.info["mode" + std::to_string(i) + "_cm"] = spec.modes[i].frequency_cm;
      }
      const std::string bad = golden_mismatch(spec, golden_);
      if (bad.empty()) {
        r.completed = 1;
      } else {
        r.fail("water_raman: " + bad);
      }
    } catch (const std::exception& e) {
      r.wall_s = since(t0);
      r.fail(std::string("water_raman: ") + e.what());
    }
    return r;
  }

 private:
  std::vector<sw::grid::AtomSite> atoms_;
  sw::raman::RamanOptions options_;
  std::string golden_path_;
  std::vector<GoldenMode> golden_;
};

// -------------------------------------------------------------- cluster

class ClusterPolar : public Workload {
 public:
  ClusterPolar(std::uint64_t seed, bool fmm)
      : atoms_(cluster_geometry(seed)), options_(cluster_options(fmm)) {}

  void setup(std::map<std::string, std::vector<double>>& parts) override {
    time_species(elements_of({atoms_}), options_.species, kSetupReps, parts);
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t = Clock::now();
      const sw::scf::ScfEngine engine(atoms_, options_);
      parts["engine_build_s"].push_back(since(t));
    }
  }

  // Engine build (set-up, paid once per geometry), then the measured
  // solve: SCF plus the three DFPT field responses.
  OpResult run_op() override {
    OpResult r;
    r.attempted = 1;
    try {
      std::optional<sw::scf::ScfEngine> engine;
      {
        const sw::obs::ScopedSpan span("bench.scf.build");
        const auto t = Clock::now();
        engine.emplace(atoms_, options_);
        r.setup["engine_build_s"] = since(t);
      }
      const auto t0 = Clock::now();
      sw::scf::GroundState gs;
      {
        const sw::obs::ScopedSpan span("bench.scf.solve");
        gs = engine->solve();
      }
      sw::linalg::Matrix alpha;
      sw::dfpt::KernelTimes kt;
      {
        const sw::obs::ScopedSpan span("bench.dfpt.polarizability");
        sw::dfpt::DfptEngine dfpt(*engine, gs);
        alpha = dfpt.polarizability();
        kt = dfpt.kernel_times();
      }
      r.wall_s = since(t0);
      r.latencies_s.push_back(r.wall_s);

      const double iso = sw::dfpt::DfptEngine::isotropic(alpha);
      const sw::fmm::FmmStats& fs = engine->hartree().stats();
      r.info["scf_iterations"] = gs.iterations;
      r.info["dfpt_iterations"] = kt.cycles;
      r.info["dfpt_n1_s"] = kt.n1;
      r.info["dfpt_v1_s"] = kt.v1;
      r.info["dfpt_h1_s"] = kt.h1;
      r.info["dfpt_sternheimer_s"] = kt.sternheimer;
      r.info["alpha_iso"] = iso;
      r.info["grid_points"] = static_cast<double>(engine->grid().size());
      r.info["grid_batches"] = static_cast<double>(engine->batches().size());
      r.info["fmm_m2l_pairs"] = static_cast<double>(fs.n_m2l_pairs);
      r.info["fmm_p2p_pairs"] = static_cast<double>(fs.n_p2p_pairs);

      char buf[160];
      if (!gs.converged) {
        r.fail("cluster_polar: SCF did not converge in " +
               std::to_string(gs.iterations) + " iterations");
      } else if (!std::isfinite(iso) ||
                 std::abs(iso - kClusterAlphaDirect) > kClusterAlphaTol) {
        std::snprintf(buf, sizeof(buf),
                      "cluster_polar: isotropic alpha %.6f outside %.6f "
                      "+- %.3f (Direct reference)",
                      iso, kClusterAlphaDirect, kClusterAlphaTol);
        r.fail(buf);
      } else {
        r.completed = 1;
      }
    } catch (const std::exception& e) {
      r.fail(std::string("cluster_polar: ") + e.what());
    }
    return r;
  }

 private:
  std::vector<sw::grid::AtomSite> atoms_;
  sw::scf::ScfOptions options_;
};

// ---------------------------------------------------------------- serve

bool bitwise_equal(const sw::linalg::Matrix& a, const sw::linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

sw::serve::ServiceOptions burst_service_options() {
  sw::serve::ServiceOptions opt;
  opt.n_workers = kBurstWorkers;
  return opt;
}

class ServeBurst : public Workload {
 public:
  explicit ServeBurst(std::uint64_t seed) : jobs_(serve_burst_jobs(seed)) {}

  void setup(std::map<std::string, std::vector<double>>& parts) override {
    std::vector<std::vector<sw::grid::AtomSite>> geoms;
    for (const BurstJob& j : jobs_) geoms.push_back(j.spec.atoms);
    time_species(elements_of(geoms),
                 jobs_.front().spec.options.vibrations.scf.species,
                 kSetupReps, parts);
    // Service construction (worker pool start-up). Each operation builds a
    // fresh service as well, so every burst starts with a cold dedup cache.
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t = Clock::now();
      const sw::serve::RamanService service(burst_service_options());
      parts["service_s"].push_back(since(t));
    }
  }

  bool traced_root() const override { return false; }

  // One burst: every job submitted back to back from this thread, then
  // every result awaited. Makespan runs from the first submit to the last
  // completion.
  OpResult run_op() override {
    OpResult r;
    r.attempted = jobs_.size();
    std::optional<sw::serve::RamanService> service;
    {
      const sw::obs::ScopedSpan span("bench.serve.construct");
      const auto t = Clock::now();
      service.emplace(burst_service_options());
      r.setup["service_s"] = since(t);
    }

    const auto t0 = Clock::now();
    std::vector<double> submitted_at(jobs_.size(), 0.0);
    std::vector<sw::serve::SubmitResult> subs(jobs_.size());
    {
      const sw::obs::ScopedSpan span("bench.serve.submit");
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        submitted_at[i] = since(t0);
        subs[i] = service->submit(jobs_[i].spec);
      }
      r.info["submit_s"] = since(t0);
    }

    std::vector<sw::serve::JobResult> results(jobs_.size());
    double makespan = 0.0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (!subs[i].accepted) {
        r.fail("serve_burst: job " + std::to_string(i) + " rejected (" +
               subs[i].reason + ")");
        continue;
      }
      results[i] = service->wait(subs[i].job_id);
      makespan = std::max(makespan, submitted_at[i] + results[i].latency_s);
    }
    r.wall_s = makespan;

    std::size_t repeats = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (!subs[i].accepted) continue;
      const sw::serve::JobResult& res = results[i];
      const std::string label =
          "serve_burst: job " + std::to_string(i) + " (" +
          jobs_[i].spec.name + ")";
      if (res.status != sw::serve::JobStatus::Completed) {
        r.fail(label + " " + sw::serve::job_status_name(res.status) + ": " +
               res.error);
        continue;
      }
      r.latencies_s.push_back(res.latency_s);
      const int first = jobs_[i].repeat_of;
      if (first >= 0) {
        ++repeats;
        const sw::serve::JobResult& ref = results[static_cast<std::size_t>(first)];
        if (!bitwise_equal(res.dalpha, ref.dalpha) ||
            !bitwise_equal(res.dmu, ref.dmu)) {
          r.fail(label + ": repeat differs from its first copy");
          continue;
        }
      }
      ++r.completed;
    }

    const sw::serve::ServiceStats st = service->stats();
    r.info["repeat_share"] =
        static_cast<double>(repeats) / static_cast<double>(jobs_.size());
    r.info["cache_hit_ratio"] = st.cache_hit_ratio;
    r.info["cache_hits"] = static_cast<double>(st.cache_hits);
    r.info["cache_misses"] = static_cast<double>(st.cache_misses);
    r.info["tasks_executed"] = static_cast<double>(st.tasks_executed);
    r.info["field_tasks_executed"] =
        static_cast<double>(st.field_tasks_executed);
    r.info["task_retries"] = static_cast<double>(st.task_retries);
    r.info["jobs_failed"] = static_cast<double>(st.jobs_failed);
    r.info["jobs_rejected"] = static_cast<double>(st.jobs_rejected);
    r.info["workers"] = static_cast<double>(kBurstWorkers);
    r.info["makespan_s"] = makespan;
    return r;
  }

 private:
  std::vector<BurstJob> jobs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& golden) {
  if (name == "water_raman") return std::make_unique<WaterRaman>(seed, golden);
  if (name == "cluster_polar") {
    return std::make_unique<ClusterPolar>(seed, /*fmm=*/true);
  }
  // The same solve under the Direct backend: how kClusterAlphaDirect is
  // reproduced (not a benchmark workload).
  if (name == "cluster_polar_direct") {
    return std::make_unique<ClusterPolar>(seed, /*fmm=*/false);
  }
  if (name == "serve_burst") return std::make_unique<ServeBurst>(seed);
  return nullptr;
}

std::string dump_inputs(std::uint64_t seed) {
  std::string out;
  char buf[128];
  const auto geometry = [&](const char* title,
                            const std::vector<sw::grid::AtomSite>& atoms) {
    out += title;
    out += "\n";
    for (const sw::grid::AtomSite& a : atoms) {
      std::snprintf(buf, sizeof(buf), "  %d %a %a %a\n", a.z, a.pos[0],
                    a.pos[1], a.pos[2]);
      out += buf;
    }
  };
  geometry("water_raman", water_raman_geometry(seed));
  geometry("cluster_polar", cluster_geometry(seed));
  out += "serve_burst\n";
  out += dump_serve_burst(serve_burst_jobs(seed));
  return out;
}

}  // namespace swbench
