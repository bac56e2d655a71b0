#include "serve/dag.hpp"

#include "common/error.hpp"

namespace swraman::serve {

JobDag::JobDag(const std::vector<raman::SlotKey>& evaluations,
               bool with_hessian)
    : records(evaluations.size()), with_hessian_(with_hessian) {
  SWRAMAN_REQUIRE(!evaluations.empty(), "JobDag: no evaluation tasks");
  nodes_.reserve(evaluations.size() + (with_hessian ? 2 : 1));
  for (const raman::SlotKey& key : evaluations) {
    nodes_.push_back({TaskKind::Evaluate, key.index, key.sign, 0, false});
  }
  if (with_hessian) nodes_.push_back({TaskKind::Hessian, 0, +1, 0, false});
  nodes_.push_back({TaskKind::Assemble, 0, +1,
                    static_cast<int>(nodes_.size()), false});
}

std::vector<std::size_t> JobDag::roots() const {
  std::vector<std::size_t> out;
  out.reserve(nodes_.size());
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].deps_pending == 0 && !nodes_[id].done) out.push_back(id);
  }
  return out;
}

std::vector<std::size_t> JobDag::complete(std::size_t id) {
  TaskNode& n = nodes_[id];
  SWRAMAN_REQUIRE(!n.done && n.deps_pending == 0,
                  "JobDag::complete: node not runnable");
  n.done = true;
  ++n_done_;
  if (id == assemble_id()) return {};
  // Every other node feeds the assembly alone.
  TaskNode& assemble = nodes_[assemble_id()];
  SWRAMAN_ASSERT(assemble.deps_pending > 0, "JobDag: dependency underflow");
  if (--assemble.deps_pending == 0) return {assemble_id()};
  return {};
}

}  // namespace swraman::serve
