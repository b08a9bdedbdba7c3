// Reusable churn-parity harness: the correctness loop behind the
// incremental re-freeze tests.
//
// Each round it
//   1. applies a seeded random mutation batch to the primary graph
//      (ChurnDriver) and replays the recorded ops into a twin graph,
//   2. incrementally refreshes the primary's snapshot and freezes the
//      twin from scratch (the oracle: refresh must compose to exactly
//      what a fresh freeze produces — rows, edge order, ids, the lot),
//   3. asserts structural equality of the two snapshots, and
//   4. runs the configured analytic workloads on the mutated graph under
//      every configured (representation x traversal x threads) combination
//      and asserts bit-identical checksums.
//
// The twin exists because freeze() rearms the graph's mutation log: a
// fresh freeze of the *primary* would destroy the log generation the
// snapshot under test composes with.
//
// Every failure message leads with the churn seed, the round, and the
// concrete op batch, so a fuzz failure is a pasteable repro.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datagen/edge_list.h"
#include "engine/frontier_engine.h"
#include "graph/churn.h"
#include "graph/graph_view.h"
#include "graph/snapshot.h"
#include "harness/experiment.h"
#include "platform/thread_pool.h"
#include "workloads/workload.h"

namespace graphbig::test {

/// The ten analytic workloads whose dynamic-vs-frozen parity the seed
/// suite already asserts on unmutated graphs; the churn harness extends
/// the same guarantee to mutated + refreshed graphs.
inline const std::vector<std::string>& parity_workloads() {
  static const std::vector<std::string> kAll = {
      "BFS",  "CComp",  "SPath",  "kCore",  "TC",
      "GColor", "DCentr", "BCentr", "CCentr", "RWR"};
  return kAll;
}

struct ChurnParityConfig {
  std::uint64_t seed = 1;
  int rounds = 4;
  std::size_t ops_per_batch = 256;
  /// Workload acronyms for the parity matrix; empty = structural checks
  /// only (pure fuzz).
  std::vector<std::string> workloads;
  /// Traversal configurations each workload runs under.
  std::vector<engine::TraversalOptions> traversals = {{}};
  std::vector<int> thread_counts = {1, 4, 16};
  graph::RefreshOptions refresh;
  graph::ChurnConfig mix;  // seed/ops overwritten from the fields above
};

class ChurnParityHarness {
 public:
  ChurnParityHarness(const datagen::EdgeList& el, ChurnParityConfig config)
      : config_(std::move(config)),
        primary_(datagen::build_property_graph(el)),
        twin_(datagen::build_property_graph(el)) {
    config_.mix.seed = config_.seed;
    config_.mix.ops = config_.ops_per_batch;
    snapshot_ = graph::GraphSnapshot::freeze(primary_);
  }

  /// Runs the configured number of churn rounds. Returns the first
  /// failure (with seed + round + batch repro) or success.
  ::testing::AssertionResult run() {
    graph::ChurnDriver driver(config_.mix, primary_);
    for (int round = 0; round < config_.rounds; ++round) {
      const graph::ChurnBatch batch = driver.apply_batch(primary_);
      const std::size_t twin_applied = graph::replay_batch(batch, twin_);
      if (twin_applied != batch.applied) {
        return fail(round, batch)
               << "twin replay applied " << twin_applied << " of "
               << batch.applied << " ops — replay is not deterministic";
      }

      const graph::RefreshStats& stats =
          snapshot_.refresh(primary_, config_.refresh);
      ++refreshes_;
      if (stats.kind == graph::RefreshStats::Kind::kFullRebuild) {
        ++fallbacks_;
      }

      const graph::GraphSnapshot oracle =
          graph::GraphSnapshot::freeze(twin_);
      std::string why;
      if (!graph::structurally_equal(snapshot_, oracle, &why)) {
        return fail(round, batch)
               << "refresh (" << graph::to_string(stats.kind)
               << ") diverges from fresh freeze: " << why;
      }
      if (!primary_.validate()) {
        return fail(round, batch) << "primary graph fails validate()";
      }

      auto parity = check_parity(round, batch);
      if (!parity) return parity;
    }
    return ::testing::AssertionSuccess();
  }

  /// Refresh outcomes over the run (tests assert the incremental path was
  /// actually exercised, not just the fallback).
  int refreshes() const { return refreshes_; }
  int fallbacks() const { return fallbacks_; }

  const graph::GraphSnapshot& snapshot() const { return snapshot_; }
  graph::PropertyGraph& primary() { return primary_; }

 private:
  ::testing::AssertionResult fail(int round,
                                  const graph::ChurnBatch& batch) {
    return ::testing::AssertionFailure()
           << "[churn seed=" << config_.seed << " round=" << round
           << " batch " << batch.describe() << "]\n";
  }

  platform::ThreadPool* pool(int threads) {
    if (threads <= 1) return nullptr;
    auto& slot = pools_[threads];
    if (slot == nullptr) {
      slot = std::make_unique<platform::ThreadPool>(threads);
    }
    return slot.get();
  }

  graph::VertexId pick_root() const {
    graph::VertexId best = 0;
    std::size_t best_degree = 0;
    bool found = false;
    primary_.for_each_vertex([&](const graph::VertexRecord& v) {
      if (!found || v.out.size() > best_degree) {
        best = v.id;
        best_degree = v.out.size();
        found = true;
      }
    });
    return best;
  }

  /// One workload run on the shared mutated graph/snapshot. Algorithm
  /// state is wiped first (dynamic: vertex props; frozen: columns) so
  /// back-to-back runs start from the same blank state a fresh copy
  /// would.
  workloads::RunResult run_one(const workloads::Workload& w, bool frozen,
                               const engine::TraversalOptions& traversal,
                               int threads, graph::VertexId root) {
    if (frozen) {
      snapshot_.reset_columns();
    } else {
      primary_.for_each_vertex(
          [](graph::VertexRecord& v) { v.props.clear(); });
    }
    workloads::RunContext ctx;
    ctx.graph = &primary_;
    ctx.snapshot = frozen ? &snapshot_ : nullptr;
    ctx.pool = pool(threads);
    ctx.seed = 12345;
    ctx.root = root;
    ctx.traversal = traversal;
    return w.run(ctx);
  }

  ::testing::AssertionResult check_parity(int round,
                                          const graph::ChurnBatch& batch) {
    if (config_.workloads.empty()) return ::testing::AssertionSuccess();
    const graph::VertexId root = pick_root();
    for (const std::string& acronym : config_.workloads) {
      const workloads::Workload* w = workloads::find_workload(acronym);
      if (w == nullptr || !harness::supports_frozen(*w)) {
        return ::testing::AssertionFailure()
               << acronym << " is not a frozen-capable workload";
      }
      bool have_reference = false;
      workloads::RunResult reference;
      for (const engine::TraversalOptions& traversal : config_.traversals) {
        for (const int threads : config_.thread_counts) {
          for (const bool frozen : {false, true}) {
            const workloads::RunResult r =
                run_one(*w, frozen, traversal, threads, root);
            if (!have_reference) {
              reference = r;
              have_reference = true;
              continue;
            }
            if (r.checksum != reference.checksum ||
                r.vertices_processed != reference.vertices_processed) {
              return fail(round, batch)
                     << acronym << " parity mismatch on "
                     << (frozen ? "frozen" : "dynamic") << " direction="
                     << engine::to_string(traversal.direction)
                     << " threads=" << threads << ": checksum "
                     << r.checksum << " (vertices "
                     << r.vertices_processed << ") vs reference "
                     << reference.checksum << " (vertices "
                     << reference.vertices_processed << ")";
            }
          }
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

  ChurnParityConfig config_;
  graph::PropertyGraph primary_;
  graph::PropertyGraph twin_;
  graph::GraphSnapshot snapshot_;
  std::map<int, std::unique_ptr<platform::ThreadPool>> pools_;
  int refreshes_ = 0;
  int fallbacks_ = 0;
};

}  // namespace graphbig::test
