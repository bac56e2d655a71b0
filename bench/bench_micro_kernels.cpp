// Microbenchmarks (google-benchmark): wall-clock timings of the hot inner
// kernels on this host — the vectorized CSI polynomial evaluation (paper
// Fig. 7), the Allreduce algorithm variants on the thread-rank runtime,
// and the RMA distributed array reduction vs the serial baseline.
//
// --json <file> writes the results as google-benchmark JSON (shorthand for
// --benchmark_out=<file> --benchmark_out_format=json).

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/swraman.hpp"
#include "simd/vec8d.hpp"

namespace {

using namespace swraman;

void BM_CsiScalar(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> s0(n, 1.0), s1(n, 0.5), s2(n, 0.25), s3(n, 0.125);
  std::vector<double> out(n);
  const double t = 0.37;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = s0[i] + t * (s1[i] + t * (s2[i] + t * s3[i]));
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_CsiScalar)->Arg(49)->Arg(512)->Arg(8192);

void BM_CsiSimd(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> s0(n, 1.0), s1(n, 0.5), s2(n, 0.25), s3(n, 0.125);
  std::vector<double> out(n);
  for (auto _ : state) {
    simd::poly3_eval(s0.data(), s1.data(), s2.data(), s3.data(), 0.37,
                     out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_CsiSimd)->Arg(49)->Arg(512)->Arg(8192);

void BM_Allreduce(benchmark::State& state) {
  const auto algo =
      static_cast<parallel::AllreduceAlgorithm>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  parallel::CommConfig cfg;
  cfg.node_size = 2;  // 4 ranks -> two node groups on the hierarchical path
  for (auto _ : state) {
    parallel::run_spmd(
        4,
        [&](parallel::Communicator& comm) {
          std::vector<double> data(n, static_cast<double>(comm.rank()));
          comm.allreduce(data, algo);
          benchmark::DoNotOptimize(data.data());
        },
        cfg);
  }
}
// All AllreduceAlgorithm values: ReduceScatterAllgather, CpePipelined,
// Hierarchical, Auto.
BENCHMARK(BM_Allreduce)
    ->ArgsProduct({{0, 1, 2, 3}, {1024, 65536}})
    ->Unit(benchmark::kMicrosecond);

void BM_RmaReduction(benchmark::State& state) {
  const std::size_t per_cpe = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> idx(0, 99999);
  std::vector<std::vector<sunway::Contribution>> contributions(64);
  for (auto& list : contributions) {
    list.resize(per_cpe);
    for (auto& c : list) c = {idx(rng), 1.0};
  }
  for (auto _ : state) {
    std::vector<double> arr(100000, 0.0);
    const sunway::RmaReduceStats stats =
        sunway::rma_array_reduction(contributions, arr);
    benchmark::DoNotOptimize(arr.data());
    benchmark::DoNotOptimize(&stats);
  }
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<long>(per_cpe));
}
BENCHMARK(BM_RmaReduction)->Arg(1000)->Arg(10000);

void BM_SerialReduction(benchmark::State& state) {
  const std::size_t per_cpe = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> idx(0, 99999);
  std::vector<std::vector<sunway::Contribution>> contributions(64);
  for (auto& list : contributions) {
    list.resize(per_cpe);
    for (auto& c : list) c = {idx(rng), 1.0};
  }
  for (auto _ : state) {
    std::vector<double> arr(100000, 0.0);
    sunway::serial_array_reduction(contributions, arr);
    benchmark::DoNotOptimize(arr.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<long>(per_cpe));
}
BENCHMARK(BM_SerialReduction)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  // Translate --json <file> into google-benchmark's output flags before
  // Initialize() consumes the argument vector.
  std::vector<char*> args;
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[i + 1];
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int n_args = static_cast<int>(args.size());
  benchmark::Initialize(&n_args, args.data());
  if (benchmark::ReportUnrecognizedArguments(n_args, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
