// Tests of the perfbench program's own helpers: exact quantiles, the
// correctness gate's failure accounting, and seed determinism of the op
// stream.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "datagen/edge_list.h"
#include "datagen/registry.h"
#include "platform/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Samples, QuantilesMatchNearestRankOfSortedSample) {
  graphbig::platform::Xoshiro256 rng(3);
  for (std::size_t n : {1u, 2u, 7u, 100u, 1001u}) {
    Samples s;
    std::vector<double> raw;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(rng.bounded(100000)) / 7.0;
      s.add(v);
      raw.push_back(v);
    }
    std::sort(raw.begin(), raw.end());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      const auto rank = static_cast<std::size_t>(
          std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
      EXPECT_EQ(s.quantile(q), raw[rank - 1]) << "n=" << n << " q=" << q;
      EXPECT_LE(s.quantile(q), raw.back());
    }
  }
}

TEST(Samples, MedianAndTailOfKnownSample) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);  // unsorted insertion
  EXPECT_EQ(s.quantile(0.5), 50);
  EXPECT_EQ(s.quantile(0.9), 90);
  EXPECT_EQ(s.beyond(0.9), 10u);
  EXPECT_TRUE(s.tail_supported(0.9));
  EXPECT_FALSE(s.tail_supported(0.99));
  s.add(1000);  // adding after a query re-sorts
  EXPECT_EQ(s.quantile(1.0), 1000);
}

TEST(Samples, TailFloor) {
  EXPECT_EQ(min_samples_for_tail(0.9), 100u);
  EXPECT_EQ(min_samples_for_tail(0.99), 1000u);
}

TEST(Ledger, MismatchCountsAsFailure) {
  Ledger ledger;
  ledger.expect(0, "bfs", 7, 7);
  ledger.expect(1, "bfs", 8, 9);
  EXPECT_EQ(ledger.checked(), 2u);
  EXPECT_EQ(ledger.mismatches(), 1u);
  ASSERT_EQ(ledger.notes().size(), 1u);
  EXPECT_NE(ledger.notes()[0].find("op 1"), std::string::npos);
}

graphbig::graph::PropertyGraph tiny_graph() {
  return graphbig::datagen::build_property_graph(
      graphbig::datagen::generate_dataset(graphbig::datagen::DatasetId::kLdbc,
                                          graphbig::datagen::Scale::kTiny));
}

TEST(OpStream, SameSeedSameStream) {
  const auto g = tiny_graph();
  const std::vector<Kernel> kernels = {Kernel::kBfs, Kernel::kSPath,
                                       Kernel::kCComp, Kernel::kKCore,
                                       Kernel::kDCentr};
  const auto roots_a = pick_roots(g, 11, 16);
  const auto roots_b = pick_roots(g, 11, 16);
  EXPECT_EQ(roots_a, roots_b);
  const auto a = make_op_stream(11, 20, kernels, roots_a);
  const auto b = make_op_stream(11, 20, kernels, roots_b);
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kernel, b[i].kernel);
    EXPECT_EQ(a[i].root, b[i].root);
  }
  const auto c = make_op_stream(12, 20, kernels, pick_roots(g, 12, 16));
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs |= a[i].kernel != c[i].kernel || a[i].root != c[i].root;
  }
  EXPECT_TRUE(differs);
}

TEST(OpStream, EveryRoundHoldsEachKernelOnce) {
  const auto g = tiny_graph();
  const std::vector<Kernel> kernels = {Kernel::kBfs, Kernel::kSPath,
                                       Kernel::kCComp};
  const auto ops = make_op_stream(5, 30, kernels, pick_roots(g, 5, 4));
  for (std::size_t r = 0; r < 30; ++r) {
    std::vector<int> seen(kKernels, 0);
    for (std::size_t i = 0; i < 3; ++i) {
      ++seen[static_cast<std::size_t>(ops[r * 3 + i].kernel)];
    }
    EXPECT_EQ(seen[0] + seen[1] + seen[2], 3);
    EXPECT_EQ(seen[0], 1);
    EXPECT_EQ(seen[1], 1);
    EXPECT_EQ(seen[2], 1);
  }
  for (const Op& op : ops) {
    const auto* v = g.find_vertex(op.root);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->out.empty());
  }
}

TEST(ResultLine, KeepsAllDigitsAndRejectsNonFinite) {
  const std::string line =
      result_line(true, 3, 0, {{"latency_ms", 1.0 / 3.0, "ms"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": "
            "0.33333333333333331, \"unit\": \"ms\"}}}");
  EXPECT_THROW(result_line(true, 1, 0, {{"x", std::nan(""), "ms"}}),
               std::runtime_error);
}

/// Each workload on the tiny dataset: clean runs verify with no failure,
/// and one injected checksum mismatch is counted as exactly one failure.
class WorkloadGate : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadGate, InjectedMismatchIsCountedAsFailure) {
  Config cfg;
  cfg.workload = GetParam();
  cfg.seed = 5;
  cfg.ops = 100;  // enough for the end-to-end p90
  cfg.setups = 1;
  cfg.scale = graphbig::datagen::Scale::kTiny;
  cfg.workdir = ::testing::TempDir();
  const Outcome clean = run_workload(cfg);
  EXPECT_GE(clean.attempted, 100u);  // whole rounds
  EXPECT_EQ(clean.metrics.size(), end_to_end_specs().size());
  EXPECT_EQ(clean.mismatches, 0u);
  EXPECT_EQ(clean.failed, 0u);

  cfg.inject_mismatch = 4;
  const Outcome bad = run_workload(cfg);
  EXPECT_EQ(bad.mismatches, 1u);
  EXPECT_EQ(bad.failed, 1u);
}

TEST_P(WorkloadGate, TracedRunReportsEveryPerLayerMetric) {
  Config cfg;
  cfg.workload = GetParam();
  cfg.seed = 6;
  cfg.ops = 12;
  cfg.setups = 1;
  cfg.trace = true;
  cfg.scale = graphbig::datagen::Scale::kTiny;
  cfg.workdir = ::testing::TempDir();
  const Outcome out = run_workload(cfg);
  ASSERT_EQ(out.metrics.size(), per_layer_specs().size());
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    EXPECT_EQ(out.metrics[i].name, per_layer_specs()[i].first);
  }
  std::remove((cfg.workdir + "/spans-" + cfg.workload + "-6.jsonl").c_str());
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadGate,
                         ::testing::Values("analytics", "out_of_core",
                                           "dynamic", "serve_churn"));

}  // namespace
}  // namespace perfbench
