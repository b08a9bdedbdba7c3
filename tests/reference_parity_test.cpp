// Every analytic workload checked per vertex against the independent
// sequential oracles, across the full layout × backend × direction ×
// thread-count sweep (tests/reference_parity_harness.h).
#include <gtest/gtest.h>

#include "reference_parity_harness.h"

namespace graphbig {
namespace {

TEST(ReferenceParity, FullSweepWithDeletions) {
  const std::uint64_t seed = 0xBADC0FFEu;
  test::ReferenceParityHarness harness(
      test::random_parity_edges(seed, 400, 4),
      {.seed = seed, .dataset = "random(v=400,d=4)", .deletions = 6});
  EXPECT_TRUE(harness.run());
}

TEST(ReferenceParity, FullSweepSecondSeedSparse) {
  const std::uint64_t seed = 1337;
  test::ReferenceParityHarness harness(
      test::random_parity_edges(seed, 600, 2),
      {.seed = seed, .dataset = "random(v=600,d=2)"});
  EXPECT_TRUE(harness.run());
}

// The sweep's auto direction only differs from push if the seeded graph
// is dense enough for BFS to cross the pull threshold.
TEST(ReferenceParity, AutoDirectionTakesPullSteps) {
  const std::uint64_t seed = 0xBADC0FFEu;
  test::ReferenceParityHarness harness(
      test::random_parity_edges(seed, 400, 4), {});
  engine::TraversalTelemetry telemetry;
  workloads::RunContext ctx;
  ctx.graph = &harness.graph();
  ctx.root = harness.pick_root();
  ctx.telemetry = &telemetry;
  workloads::bfs().run(ctx);
  EXPECT_GT(telemetry.pull_steps, 0u)
      << "parity graph too small to trigger the pull flip — grow it";
}

}  // namespace
}  // namespace graphbig
