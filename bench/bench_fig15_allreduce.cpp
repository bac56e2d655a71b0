// Figure 15: MPI Allreduce optimization during the response-potential
// calculation of the RBD protein — three modeled series over the group's
// task count:
//
//   flat-rsag    reduce-scatter + allgather, local reduce on the MPE, all
//                node members contending for the injection port ("before"),
//   hierarchical two-level: intra-node CPE RMA-mesh fold into one leader
//                per node, Rabenseifner across leaders at full port
//                bandwidth, intra-node broadcast,
//   overlapped   the hierarchical collective started as an iallreduce under
//                the DFPT grid-batch kernels; only the exposed remainder
//                max(t_comm - t_compute, 0) costs wall time. These records
//                also carry comm_s (t_comm) and compute_s (t_compute).
//
// The run doubles as a regression gate: it exits non-zero unless the
// hierarchical algorithm is >= 1.5x faster than flat-rsag at every rank
// count >= 16 with the >= 1 MB RBD payload, and unless the compute window
// of one DFPT iteration hides >= 50% of the hierarchical collective.
//
// --json <file> writes the series in the swraman-bench-v1 schema consumed
// by scripts/check_perf_json.py.
//
// Paper: 2.22x at 256 tasks, 2.61x at 1024 (before/after MPI optimization;
// that ablation is reproduced at the end from the uncontended cost model).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/swraman.hpp"
#include "parallel/allreduce_select.hpp"

namespace {

struct Record {
  const char* series;
  std::size_t ranks;
  double bytes;
  double seconds;
  double cycles;
  double comm_s = -1.0;     // overlapped rows only: the hidden collective
  double compute_s = -1.0;  // and the compute window that hides it
};

void write_json(const std::string& path, const std::vector<Record>& records) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"swraman-bench-v1\",\n"
      << "  \"bench\": \"fig15_allreduce\",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "    {\"series\": \"" << r.series << "\", \"ranks\": " << r.ranks
        << ", \"bytes\": " << static_cast<long long>(r.bytes)
        << ", \"seconds\": " << r.seconds
        << ", \"cycles\": " << static_cast<long long>(r.cycles);
    if (r.comm_s >= 0.0) {
      out << ", \"comm_s\": " << r.comm_s << ", \"compute_s\": "
          << r.compute_s;
    }
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swraman;
  using namespace swraman::sunway;
  log::set_level(log::Level::Warn);

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const scaling::RamanJob job = core::make_dfpt_job(core::rbd_protein());
  const ArchParams sw = sw26010pro();
  const std::size_t node_size = 4;
  const double bytes = job.allreduce_bytes;

  // Compute window that the non-blocking collective can hide under: the
  // three DFPT grid kernels of one iteration, split across the group.
  const auto compute_window = [&](std::size_t p) {
    auto scaled = [&](KernelWorkload w) {
      w.elements /= static_cast<double>(p);
      return w;
    };
    return modeled_time(scaled(job.n1), sw, Variant::CpeTiledDbSimd) +
           modeled_time(scaled(job.v1), sw, Variant::CpeTiledDbSimd) +
           modeled_time(scaled(job.h1), sw, Variant::CpeTiledDbSimd);
  };

  std::vector<Record> records;
  bool ok = true;
  std::printf("=== Fig. 15: hierarchical Allreduce + overlap "
              "(payload %.2f MB, node size %zu) ===\n",
              bytes / 1e6, node_size);
  std::printf("%8s %12s %12s %12s %9s %9s\n", "ranks", "flat (ms)",
              "hier (ms)", "exposed (ms)", "speedup", "hidden");
  for (const std::size_t p : {16ul, 64ul, 256ul, 1024ul}) {
    const double flat = parallel::modeled_allreduce_seconds(
        parallel::AllreduceAlgorithm::ReduceScatterAllgather, bytes, p,
        node_size, sw);
    const double hier = parallel::modeled_allreduce_seconds(
        parallel::AllreduceAlgorithm::Hierarchical, bytes, p, node_size, sw);
    const double window = compute_window(p);
    const double hidden = std::min(window, hier);
    const double exposed = hier - hidden;
    const double speedup = flat / hier;
    const double hidden_frac = hidden / hier;
    std::printf("%8zu %12.3f %12.3f %12.3f %8.2fx %8.0f%%\n", p, 1e3 * flat,
                1e3 * hier, 1e3 * exposed, speedup, 100.0 * hidden_frac);
    const double freq = sw.mpe_freq_ghz * 1e9;
    records.push_back(
        {"flat-rsag", p, bytes, flat, std::floor(flat * freq + 0.5)});
    records.push_back(
        {"hierarchical", p, bytes, hier, std::floor(hier * freq + 0.5)});
    records.push_back({"overlapped", p, bytes, exposed,
                       std::floor(exposed * freq + 0.5), hier, window});
    if (speedup < 1.5) {
      std::printf("FAIL: hierarchical speedup %.2fx < 1.5x at %zu ranks\n",
                  speedup, p);
      ok = false;
    }
    if (hidden_frac < 0.5) {
      std::printf("FAIL: overlap hides %.0f%% < 50%% at %zu ranks\n",
                  100.0 * hidden_frac, p);
      ok = false;
    }
  }

  // Paper ablation (uncontended model): local reduce on MPE vs CPE.
  const auto& targets = core::paper_targets();
  const AllreduceModel before{false};
  const AllreduceModel after{true};
  std::printf("\nMPI optimization ablation (before/after, paper Fig. 15):\n");
  const double paper[] = {targets.fig15_speedup_at_256,
                          targets.fig15_speedup_at_1024};
  int k = 0;
  for (const std::size_t p : {256ul, 1024ul}) {
    const double b = modeled_allreduce_time(bytes, p, sw, before);
    const double a = modeled_allreduce_time(bytes, p, sw, after);
    std::printf("  %4zu tasks: %.3f -> %.3f ms, %.2fx (paper %.2fx)\n", p,
                1e3 * b, 1e3 * a, b / a, paper[k++]);
  }

  // Functional cross-check on the thread-rank runtime (small scale): every
  // algorithm, including the auto-selected path, must agree with a serial
  // ascending-rank fold of the same inputs.
  std::printf("\nFunctional Allreduce agreement across algorithms "
              "(6 ranks, 4099 doubles, node size 4):\n");
  const std::size_t n_ranks = 6;
  const std::size_t n = 4099;
  const auto input = [](std::size_t rank, std::size_t i) {
    return std::sin(static_cast<double>(i * (rank + 1)));
  };
  std::vector<double> reference(n, 0.0);
  for (std::size_t r = 0; r < n_ranks; ++r) {
    for (std::size_t i = 0; i < n; ++i) reference[i] += input(r, i);
  }
  parallel::CommConfig cfg;
  cfg.node_size = 4;
  for (auto [name, algo] :
       {std::pair{"reduce-scatter+allgather",
                  parallel::AllreduceAlgorithm::ReduceScatterAllgather},
        std::pair{"cpe-pipelined",
                  parallel::AllreduceAlgorithm::CpePipelined},
        std::pair{"hierarchical", parallel::AllreduceAlgorithm::Hierarchical},
        std::pair{"auto", parallel::AllreduceAlgorithm::Auto}}) {
    std::vector<double> result;
    parallel::run_spmd(
        n_ranks,
        [&](parallel::Communicator& comm) {
          std::vector<double> data(n);
          for (std::size_t i = 0; i < n; ++i) data[i] = input(comm.rank(), i);
          comm.allreduce(data, algo);
          if (comm.rank() == 0) result = data;
        },
        cfg);
    double max_diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_diff = std::max(max_diff, std::abs(result[i] - reference[i]));
    }
    std::printf("  %-26s max |diff vs serial fold| = %.2e\n", name,
                max_diff);
    if (!(max_diff < 1e-10)) {
      std::printf("FAIL: %s disagrees with the serial fold\n", name);
      ok = false;
    }
  }

  if (!json_path.empty()) write_json(json_path, records);
  if (!ok) {
    std::printf("\nbench_fig15_allreduce: FAILED acceptance checks\n");
    return 1;
  }
  return 0;
}
