// Machine-scale what-if study: drives the 3-level-parallelization
// scalability model (paper Fig. 4) for the RBD-protein Raman job across
// group sizes and machine sizes. (bench_fig15_allreduce and the
// AllreduceProperty tests cover the thread-rank Allreduce algorithms.)
//
//   $ ./scaling_study

#include <cstdio>

#include "core/swraman.hpp"

int main() {
  using namespace swraman;
  log::set_level(log::Level::Warn);

  const scaling::RamanJob job = core::make_dfpt_job(core::rbd_protein());
  scaling::MachineModel machine;
  machine.node = sunway::sw26010pro();

  std::printf("RBD Raman job: %zu polarizabilities, %zu batches/geometry\n\n",
              job.n_polarizabilities, job.n_batches);

  std::printf("DFPT iteration time vs sub-group size (one geometry):\n");
  const scaling::ScalabilitySimulator sim(job, machine, 256);
  for (std::size_t group : {32, 64, 128, 256, 512}) {
    std::printf("  %4zu processes: %8.3f ms\n", group,
                1e3 * sim.dfpt_iteration_time(group));
  }

  std::printf("\nStrong scaling of the full job (group size 256):\n");
  for (const scaling::ScalingPoint& p :
       sim.strong_scaling({10240, 20480, 51200, 153600, 300800})) {
    std::printf("  %7zu procs (%9zu cores): %8.1f s  speedup %5.1fx  "
                "eff %5.1f%%\n",
                p.n_processes, p.n_cores, p.time_seconds, p.speedup,
                100.0 * p.efficiency);
  }
  return 0;
}
