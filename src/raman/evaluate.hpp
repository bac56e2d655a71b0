#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "dfpt/dfpt_engine.hpp"
#include "raman/checkpoint.hpp"
#include "scf/forces.hpp"

// The paper's level 1 in one place: every geometry src/raman and
// src/serve solve (Hessian, d(alpha)/dR, bec field points, relaxation,
// serve tasks) goes through evaluate(), the only engine build there
// (lint rule 7), and the two checkpointed loops share fan_out().

namespace swraman::raman {

// What evaluate() computes beyond the energy and the dipole, which it
// always fills. Any combination may be asked for.
struct Wants {
  // Fills GeometryRecord::alpha with the DFPT polarizability.
  const dfpt::DfptOptions* alpha = nullptr;
  // Fills GeometryRecord::forces at ScfOptions::electric_field from the
  // evaluator this returns, built on the same atoms and options. Called
  // once the SCF has converged, so a failed solve never asks for it.
  std::function<const scf::ForceEvaluator&()> forces;
  // Receives the converged density matrix, to seed later solves.
  linalg::Matrix* density = nullptr;
};

// Builds the engine for `geometry`, solves it from `seed` (the free-atom
// guess when null) and throws ConvergenceError when the SCF did not
// converge. The record is bitwise what the engines give when driven by
// hand.
GeometryRecord evaluate(std::vector<grid::AtomSite> geometry,
                        const scf::ScfOptions& options,
                        const Wants& wants = {},
                        const linalg::Matrix* seed = nullptr);

// Checkpoint key of one fan-out slot: (coordinate, +1 or -1) for a
// displaced geometry, (stencil index, 0) for a field point.
struct SlotKey {
  std::size_t index = 0;
  int sign = 0;
};

struct FanOut {
  const char* span = "";       // per computed slot: coord + sign, or field
  const char* kill_site = "";  // visited after each fresh record is durable
  int attempts = 1;            // per slot on an Error; FaultInjected escapes
};

// records[k] for keys[k]: replayed from `ckpt` when stored there,
// otherwise computed by `compute` and recorded in `ckpt` as it finishes.
// `prepare` (may be empty) runs once before the first computation, only
// when a slot is missing. The missing slots run concurrently on
// geometry_threads() threads in key order; the records are bitwise those
// of a serial loop, and a failure rethrows the error of the lowest
// failing slot once every slot in flight has finished.
std::vector<GeometryRecord> fan_out(
    const std::vector<SlotKey>& keys, Checkpoint& ckpt, const FanOut& how,
    const std::function<void()>& prepare,
    const std::function<GeometryRecord(const SlotKey&)>& compute);

}  // namespace swraman::raman
