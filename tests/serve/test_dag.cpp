#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "serve/dag.hpp"

namespace swraman::serve {
namespace {

// The dfpt tier's evaluations in slot order: (coord, sign) at
// 2*coord + (sign < 0).
std::vector<raman::SlotKey> displacement_slots(std::size_t n_coords) {
  std::vector<raman::SlotKey> slots;
  for (std::size_t c = 0; c < n_coords; ++c) {
    slots.push_back({c, +1});
    slots.push_back({c, -1});
  }
  return slots;
}

TEST(JobDag, LayoutForWaterSizedJob) {
  const std::size_t n = 9;  // 3 atoms
  JobDag dag(displacement_slots(n), false);
  EXPECT_EQ(dag.size(), 2 * n + 1);
  EXPECT_EQ(dag.n_evaluations(), 2 * n);
  for (std::size_t c = 0; c < n; ++c) {
    for (const int sign : {+1, -1}) {
      const TaskNode& node = dag.node(2 * c + (sign < 0 ? 1 : 0));
      EXPECT_EQ(node.kind, TaskKind::Evaluate);
      EXPECT_EQ(node.coord, c);
      EXPECT_EQ(node.sign, sign);
      EXPECT_EQ(node.deps_pending, 0);
    }
  }
  EXPECT_EQ(dag.assemble_id(), 2 * n);
  EXPECT_EQ(dag.node(dag.assemble_id()).kind, TaskKind::Assemble);
  EXPECT_EQ(dag.node(dag.assemble_id()).deps_pending, static_cast<int>(2 * n));
  EXPECT_EQ(dag.records.size(), 2 * n);

  JobDag with_modes(displacement_slots(n), true);
  EXPECT_EQ(with_modes.size(), 2 * n + 2);
  EXPECT_EQ(with_modes.hessian_id(), 2 * n);
  EXPECT_EQ(with_modes.node(with_modes.hessian_id()).kind, TaskKind::Hessian);
  EXPECT_EQ(with_modes.assemble_id(), 2 * n + 1);
  EXPECT_EQ(with_modes.node(with_modes.assemble_id()).deps_pending,
            static_cast<int>(2 * n + 1));
}

TEST(JobDag, RootsAreDisplacementsAndHessian) {
  JobDag dag(displacement_slots(6), true);
  const auto roots = dag.roots();
  EXPECT_EQ(roots.size(), 2 * 6 + 1);
  for (std::size_t id : roots) {
    const TaskKind k = dag.node(id).kind;
    EXPECT_TRUE(k == TaskKind::Evaluate || k == TaskKind::Hessian);
  }
}

TEST(JobDag, AssembleUnlocksOnceAfterEveryEvaluation) {
  const std::size_t n = 3;
  JobDag dag(displacement_slots(n), false);
  // Both signs of a coordinate unlock nothing: the assembly forms the
  // derivative rows and waits for every evaluation.
  EXPECT_TRUE(dag.complete(0).empty());
  EXPECT_TRUE(dag.complete(1).empty());
  for (std::size_t id = 2; id + 1 < 2 * n; ++id) {
    EXPECT_TRUE(dag.complete(id).empty());
  }
  const auto ready = dag.complete(2 * n - 1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], dag.assemble_id());
  EXPECT_FALSE(dag.all_done());
  EXPECT_TRUE(dag.complete(dag.assemble_id()).empty());
  EXPECT_TRUE(dag.all_done());
}

TEST(JobDag, HessianGatesAssembly) {
  const std::size_t n = 3;
  JobDag dag(displacement_slots(n), true);
  for (std::size_t id = 0; id < 2 * n; ++id) {
    // Every evaluation done but the Hessian outstanding: assembly stays
    // locked.
    EXPECT_TRUE(dag.complete(id).empty());
  }
  auto ready = dag.complete(dag.hessian_id());
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], dag.assemble_id());
}

TEST(JobDag, CompletingATaskTwiceIsRejected) {
  JobDag dag(displacement_slots(3), false);
  dag.complete(0);
  EXPECT_THROW(dag.complete(0), Error);
  // The assembly is not runnable before its dependencies.
  EXPECT_THROW(dag.complete(dag.assemble_id()), Error);
}

}  // namespace
}  // namespace swraman::serve
