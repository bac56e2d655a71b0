#pragma once

// swraman — all-electron ab initio Raman spectra for large systems, with a
// Sunway SW26010Pro many-core execution model. Umbrella header: pulls in
// the public API of every subsystem.
//
// Quick start:
//
//   #include "core/swraman.hpp"
//   using namespace swraman;
//
//   auto mol = molecules::water();
//   scf::ScfEngine scf(mol, {});
//   auto gs = scf.solve();                   // ground-state DFT
//   dfpt::DfptEngine dfpt(scf, gs);
//   auto alpha = dfpt.polarizability();      // DFPT response (Eq. 4)
//   raman::RamanCalculator raman(mol, {});
//   auto spectrum = raman.compute();         // full Raman pipeline (Eq. 5)

#include "common/constants.hpp"
#include "common/elements.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/molecules.hpp"
#include "core/reference.hpp"
#include "core/workload.hpp"
#include "core/xyz.hpp"
#include "dfpt/dfpt_engine.hpp"
#include "grid/atom_grid.hpp"
#include "grid/batch.hpp"
#include "grid/loadbalance.hpp"
#include "hartree/ewald.hpp"
#include "hartree/multipole.hpp"
#include "parallel/comm.hpp"
#include "raman/checkpoint.hpp"
#include "raman/evaluate.hpp"
#include "raman/raman.hpp"
#include "raman/relax.hpp"
#include "robustness/fault.hpp"
#include "raman/thermochemistry.hpp"
#include "scaling/simulator.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "scf/analysis.hpp"
#include "scf/scf_engine.hpp"
#include "sunway/cost_model.hpp"
#include "sunway/kernels.hpp"
#include "sunway/rma_reduce.hpp"
