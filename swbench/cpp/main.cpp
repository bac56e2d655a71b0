// swbench_run: one run of one swraman benchmark workload.
//
//   swbench_run --workload <water_raman|cluster_polar|serve_burst>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--golden tests/golden/golden_water_raman.txt]
//   swbench_run --dump-inputs --seed <n>
//
// Sets up (species atomic solves, plus the workload's own set-up), then
// repeats the workload's operation until the next one would end past
// --seconds (at least one), checking every result. With --trace 1 one more
// operation runs with obs tracing on, and its spans are reduced to per-name
// self times. Prints one JSON line of raw samples; run.py turns it into
// the benchmark's metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace swbench;
namespace obs = swraman::obs;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool dump = false;
  std::string golden = "tests/golden/golden_water_raman.txt";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "swbench_run: %s\nusage: swbench_run --workload W --seed N "
               "--seconds S --trace 0|1 [--golden PATH]\n"
               "       swbench_run --dump-inputs --seed N\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--dump-inputs") {
      a.dump = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--golden") {
      a.golden = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!a.dump && a.workload.empty()) usage("--workload is required");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Host-speed probe: the median of three timings of a fixed scalar kernel
// (sqrt and division over a table in L2, about 0.08 s each). Shared hosts
// drift in speed by tens of percent over minutes; run.py divides every
// operation by the probes around it, so that drift cancels while a change
// in the program does not (this kernel is not library code).
double calibrate() {
  static const std::vector<double> table = [] {
    std::vector<double> v(1 << 14);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1e-3 * static_cast<double>(i % 997);
    }
    return v;
  }();
  static volatile double sink = 0.0;
  std::vector<double> t(3);
  for (double& ti : t) {
    const auto t0 = std::chrono::steady_clock::now();
    double acc = 0.0;
    for (int rep = 0; rep < 1200; ++rep) {
      for (std::size_t i = 0; i < table.size(); ++i) {
        const double v = table[(i * 7919) & (table.size() - 1)];
        acc += std::sqrt(v + rep) / (1.0 + v * v);
      }
    }
    sink = sink + acc;
    ti = seconds_since(t0);
  }
  std::sort(t.begin(), t.end());
  return t[1];
}

struct Totals {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  void add(const OpResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
};

void write_series(Json& j, const std::string& name,
                  const std::map<std::string, std::vector<double>>& m) {
  j.key(name).begin_object();
  for (const auto& [k, v] : m) j.key(k).values(v);
  j.end_object();
}

// Spans of the traced operation, aggregated per span name: count, summed
// duration, summed self time (duration minus direct children, as the perf
// report computes it) and summed numeric attributes.
void write_trace(Json& j, const OpResult& op,
                 const std::vector<obs::PhaseNode>& phases,
                 const std::map<std::string, double>& counters) {
  struct ByName {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::map<std::string, double> attrs;
  };
  std::map<std::string, ByName> by_name;
  double top_level_s = 0.0;
  for (const obs::PhaseNode& p : phases) {
    ByName& b = by_name[p.name];
    b.count += p.count;
    b.total_s += p.wall_s;
    b.self_s += p.self_s;
    for (const auto& [k, v] : p.attr_sums) b.attrs[k] += v;
    if (p.depth == 0) top_level_s += p.wall_s;
  }

  j.key("trace").begin_object();
  j.field("op_s", op.wall_s);
  j.field("top_level_s", top_level_s);
  j.field("spans_dropped", obs::dropped());
  j.key("info").begin_object();
  for (const auto& [k, v] : op.info) j.field(k, v);
  j.end_object();
  j.key("counters").begin_object();
  for (const auto& [k, v] : counters) j.field(k, v);
  j.end_object();
  j.key("spans").begin_object();
  for (const auto& [name, b] : by_name) {
    j.key(name).begin_object();
    j.field("count", b.count);
    j.field("total_s", b.total_s);
    j.field("self_s", b.self_s);
    j.key("attrs").begin_object();
    for (const auto& [k, v] : b.attrs) j.field(k, v);
    j.end_object();
    j.end_object();
  }
  j.end_object();
  j.end_object();
}

std::map<std::string, double> counter_delta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    const double delta = v - (it == before.end() ? 0.0 : it->second);
    if (delta != 0.0) d[k] = delta;
  }
  return d;
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed,
                                              args.golden);
  if (!w) usage("unknown workload " + args.workload);

  std::map<std::string, std::vector<double>> setup_parts;
  std::map<std::string, std::vector<double>> info;
  // calib_s[0] precedes set-up; calib_s[i + 1] follows operation i.
  info["calib_s"].push_back(calibrate());
  w->setup(setup_parts);

  Totals totals;
  std::vector<double> op_s;
  std::vector<std::vector<double>> latency_s;  // per operation
  const auto record = [&](const OpResult& r) {
    totals.add(r);
    for (const auto& [k, v] : r.setup) setup_parts[k].push_back(v);
    for (const auto& [k, v] : r.info) info[k].push_back(v);
    info["completed"].push_back(static_cast<double>(r.completed));
  };

  const auto t0 = std::chrono::steady_clock::now();
  double last = 0.0;
  do {
    const double start = seconds_since(t0);
    const OpResult r = w->run_op();
    last = seconds_since(t0) - start;
    record(r);
    info["calib_s"].push_back(calibrate());
    op_s.push_back(r.wall_s);
    latency_s.push_back(r.latencies_s);
  } while (seconds_since(t0) + last <= args.seconds);
  const double rss = peak_rss_mb();

  Json j;
  j.begin_object();
  j.field("workload", args.workload);
  j.field("seed", static_cast<unsigned long long>(args.seed));
  j.key("build").begin_object();
  j.field("compiler", SWBENCH_COMPILER);
  j.field("cxx_flags", SWBENCH_CXX_FLAGS);
  j.field("build_type", SWBENCH_BUILD_TYPE);
  j.end_object();
  j.field("measured_s", seconds_since(t0));
  j.key("op_s").values(op_s);
  j.key("latency_s").begin_array();
  for (const std::vector<double>& l : latency_s) j.values(l);
  j.end_array();
  j.field("peak_rss_mb", rss);
  write_series(j, "setup_parts", setup_parts);
  write_series(j, "info", info);

  if (args.trace) {
    auto& registry = obs::Registry::instance();
    const std::map<std::string, double> before = registry.counter_values();
    obs::set_enabled(true);
    OpResult traced;
    if (w->traced_root()) {
      const std::string root = "bench." + args.workload;
      const obs::ScopedSpan span(root.c_str());
      traced = w->run_op();
    } else {
      traced = w->run_op();
    }
    obs::set_enabled(false);
    totals.add(traced);
    write_trace(j, traced, obs::aggregate_phases(obs::snapshot()),
                counter_delta(before, registry.counter_values()));
  }

  j.field("attempted", totals.attempted);
  j.field("failed", totals.failed);
  j.key("failures").begin_array();
  for (const std::string& f : totals.failures) j.value(f);
  j.end_array();
  j.end_object();
  std::cout << j.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  swraman::log::set_level(swraman::log::Level::Warn);
  obs::set_enabled(false);
  if (args.dump) {
    std::cout << dump_inputs(args.seed);
    return 0;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swbench_run: %s\n", e.what());
    return 1;
  }
}
