#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "raman/evaluate.hpp"

// Per-job dependency DAG (DESIGN.md S11). Both tiers decompose a job into
//
//   n evaluation tasks      (independent roots, one per slot key: the 6N
//                            displaced-geometry DFPT polarizabilities of
//                            paper Sec. 2.3, the geometry level of Fig. 4,
//                            or the 13 finite-field force points of
//                            raman/bec.hpp, DESIGN.md S15)
//   1 optional Hessian task (with_modes: finite-difference normal modes,
//                            independent of every evaluation)
//   1 assembly task         (depends on every other node: the derivative
//                            rows from the records, through
//                            raman::displacement_derivatives or
//                            raman::bec_derivatives, then modes/spectrum)
//
// Node ids are dense and deterministic: evaluation k at id k, then the
// Hessian, then the assembly. The dfpt tier's slot keys are
// (coord, sign) at 2*coord + (sign < 0), the bec tier's (stencil index,
// 0). The graph only tracks dependency counts; results live beside it
// so the assembly task reads them in fixed index order regardless of the
// order workers finished in — that is what makes job output bitwise
// independent of scheduling.

namespace swraman::serve {

enum class TaskKind : std::uint8_t {
  Evaluate,
  Hessian,
  Assemble,
};

struct TaskNode {
  TaskKind kind = TaskKind::Evaluate;
  std::size_t coord = 0;  // Evaluate: displaced coordinate or stencil index
  int sign = +1;          // Evaluate: displacement sign; 0 for a field point
  int deps_pending = 0;   // remaining unfinished dependencies
  bool done = false;
};

class JobDag {
 public:
  JobDag() = default;
  // One evaluation root per key; with_hessian adds the normal-mode task.
  JobDag(const std::vector<raman::SlotKey>& evaluations, bool with_hessian);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::size_t n_evaluations() const { return records.size(); }
  [[nodiscard]] bool with_hessian() const { return with_hessian_; }
  [[nodiscard]] const TaskNode& node(std::size_t id) const {
    return nodes_[id];
  }

  [[nodiscard]] std::size_t hessian_id() const {
    // Valid only when with_hessian().
    return n_evaluations();
  }
  [[nodiscard]] std::size_t assemble_id() const { return nodes_.size() - 1; }

  // Roots: every node with no pending dependencies that is not yet done.
  [[nodiscard]] std::vector<std::size_t> roots() const;

  // Marks `id` done and returns the successors that became ready.
  std::vector<std::size_t> complete(std::size_t id);

  [[nodiscard]] bool all_done() const { return n_done_ == nodes_.size(); }

  // Result slots, written by task execution, read by the assembly in
  // fixed index order.
  std::vector<raman::GeometryRecord> records;  // per evaluation node
  linalg::Matrix hessian;                      // Hessian task output

 private:
  bool with_hessian_ = false;
  std::vector<TaskNode> nodes_;
  std::size_t n_done_ = 0;
};

}  // namespace swraman::serve
