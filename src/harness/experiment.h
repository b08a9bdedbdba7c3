// Experiment harness: prepares dataset bundles (dynamic graph + CSR/COO
// views), routes each workload to its required input (generic dataset /
// DAG / Bayesian network / scratch copy), and runs it under the CPU
// profiler, the SIMT engine, or a wall-clock timer. All bench binaries are
// thin wrappers over these entry points.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "datagen/registry.h"
#include "graph/churn.h"
#include "graph/csr.h"
#include "graph/disk_graph.h"
#include "graph/snap_format.h"
#include "graph/snapshot.h"
#include "perfmodel/profiler.h"
#include "platform/thread_pool.h"
#include "simt/engine.h"
#include "workloads/gpu/gpu_workload.h"
#include "workloads/workload.h"

namespace graphbig::harness {

/// Which backend the analytic CPU workloads traverse: the dynamic
/// vertex-centric PropertyGraph, a frozen in-memory GraphSnapshot, or the
/// out-of-core DiskGraph (a serialized graphbig.snap.v1 file behind a
/// fixed-size buffer pool). Section 2's flexibility-vs-locality trade is
/// the dynamic-vs-frozen axis; frozen and disk expose the same row space
/// and edge order, so they differ only in memory ceiling and access path.
/// Checksums are bit-identical across all three. Workloads that cannot run
/// frozen always traverse the dynamic graph.
enum class Backend { kDynamic, kFrozen, kDisk };

const char* to_string(Backend backend);

/// Parses "dynamic" / "frozen" / "disk"; false on anything else.
bool parse_backend(const std::string& name, Backend* out);

/// True when the workload can run against a frozen snapshot (analytic,
/// non-mutating, generic dataset input). CompDyn workloads and the
/// Bayes/DAG-input workloads always use the dynamic representation.
bool supports_frozen(const workloads::Workload& w);

/// How a frozen snapshot is brought up to date after a churn phase: a full
/// re-freeze, or GraphSnapshot::refresh's mutation-log delta merge.
enum class RefreshMode { kFull, kIncremental };

const char* to_string(RefreshMode mode);

/// Parses "full" / "incremental"; false on anything else.
bool parse_refresh_mode(const std::string& name, RefreshMode* out);

/// Out-of-core knobs for Backend::kDisk runs.
struct DiskBackendOptions {
  /// Existing graphbig.snap.v1 file to traverse. Empty = the harness
  /// serializes the run's own snapshot to a temp file in the working
  /// directory (deleted after open; the mmap keeps it readable).
  std::string snapshot_path;
  /// Buffer-pool budget: pages resident at once.
  std::uint32_t pool_pages = 64;
  /// Page width (power of two, >= 64).
  std::uint32_t page_bytes = 1 << 16;
};

/// A GUp/TMorph-style churn phase run against the workload's input graph
/// before the analytic phase: `batches` rounds of `config.ops` random
/// mutations. On the frozen and disk backends the snapshot is brought up
/// to date per the RefreshMode (incremental: one refresh per batch; full:
/// one re-freeze at the end); churn + refresh time is reported separately
/// and excluded from the measured workload seconds.
struct ChurnPhase {
  int batches = 0;  // 0 = no churn phase
  graph::ChurnConfig config;
};

/// A dataset prepared for both CPU and GPU sides.
struct DatasetBundle {
  datagen::DatasetId id;
  datagen::Scale scale;
  datagen::EdgeList edge_list;
  graph::PropertyGraph graph;       // dynamic vertex-centric (CPU side)
  graph::GraphSnapshot snapshot;    // frozen CSR view of `graph`
  graph::Csr csr;                   // directed CSR (GPU side, from snapshot)
  graph::Csr sym;                   // symmetrized CSR (undirected kernels)
  graph::Coo coo;                   // COO of sym (edge-centric kernels)
  graph::VertexId root = 0;         // traversal root: max-out-degree vertex
  std::uint32_t gpu_root = 0;       // same root as dense CSR id

  // Snapshot provenance: set when the bundle was materialized from a
  // serialized graphbig.snap.v1 file instead of regenerated from a
  // dataset recipe (satellite 1: --snapshot-in skips datagen entirely).
  bool from_snapshot = false;
  std::string snapshot_path;              // source file
  std::string snapshot_format;            // "graphbig.snap.v1"
  std::uint32_t snapshot_version = 0;     // format version from the header
  std::uint64_t snapshot_checksum = 0;    // whole-file FNV-1a checksum
  graph::LayoutOptions snapshot_layout;   // the file's layout (SnapInfo)
  /// Out-of-core backend over `snapshot_path`, opened once and shared by
  /// every run against this bundle (kDiskOnly mode; null otherwise).
  std::shared_ptr<graph::DiskGraph> disk;
};

DatasetBundle load_bundle(datagen::DatasetId id, datagen::Scale scale);

/// How much of a snapshot-sourced bundle to materialize.
enum class SnapshotLoadMode {
  /// Deserialize into an in-RAM GraphSnapshot and derive the GPU views
  /// (CSR/sym/COO). No dynamic graph or edge list: only frozen-capable
  /// workloads and GPU kernels can run.
  kFull,
  /// Open the file as a DiskGraph only — O(rows) resident, payloads stay
  /// on disk. Only frozen-capable workloads with Backend::kDisk can run.
  kDiskOnly,
};

/// Loads a bundle from a serialized snapshot, skipping dataset generation
/// entirely. The traversal root is re-derived from the stored degree
/// prefixes with the same rule as load_bundle (first live vertex of
/// maximum out-degree, in id order). Throws snap::SnapError on any
/// open/validation failure. `disk` carries the pool knobs for kDiskOnly.
DatasetBundle load_bundle_from_snapshot(
    const std::string& path,
    SnapshotLoadMode mode = SnapshotLoadMode::kFull,
    const DiskBackendOptions& disk = {});

/// Result of a profiled (trace-replayed) CPU run.
struct CpuProfiledRun {
  workloads::RunResult run;
  perfmodel::PerfCounters counters;
  perfmodel::CycleBreakdown metrics;
};

/// Runs a CPU workload sequentially under the perfmodel profiler. Handles
/// input routing: GibbsInf gets a MUNIN network, TMorph a DAG-ized copy of
/// the dataset, CompDyn workloads a scratch copy. With Backend::kFrozen,
/// workloads that support it traverse a snapshot frozen from the input
/// graph, so the cache/TLB model prices the frozen layout; others fall
/// back to the dynamic structure. `layout` selects the snapshot's physical
/// layout (reordering/compression) — frozen runs only. The perf model
/// replays in-RAM accesses only: Backend::kDisk throws
/// std::invalid_argument.
CpuProfiledRun run_cpu_profiled(const workloads::Workload& w,
                                const DatasetBundle& bundle,
                                const perfmodel::MachineConfig& machine = {},
                                Backend backend = Backend::kDynamic,
                                const graph::LayoutOptions& layout = {});

/// Result of a wall-clock (untraced) CPU run.
struct CpuTimedRun {
  workloads::RunResult run;
  double seconds = 0;
  /// Per-superstep traversal telemetry (direction taken, frontier
  /// occupancy, chunks stolen) from the frontier-engine workloads; empty
  /// for workloads that do not traverse through the engine.
  engine::TraversalTelemetry telemetry;
  /// Snapshot refresh telemetry from the churn phase (kind kNone when no
  /// churn ran or the run was dynamic); `refresh.seconds` covers the last
  /// refresh, `refresh_seconds` the sum over all batches.
  graph::RefreshStats refresh;
  double refresh_seconds = 0;
};

/// Runs a CPU workload with `threads` workers (0 = sequential), untraced.
/// On the frozen and disk backends, workloads that support it traverse a
/// snapshot frozen from the input graph (freeze time is excluded from the
/// measured seconds); others fall back to the dynamic structure. kDisk
/// serializes the snapshot (or reuses the bundle's DiskGraph /
/// `disk.snapshot_path`) and traverses it out-of-core through a buffer
/// pool sized by `disk`; serialization and open time are excluded too.
/// `traversal` carries the frontier-engine direction mode; the default is
/// direction-optimizing auto. Parallel runs always schedule chunks by work
/// stealing. `layout` selects the snapshot's physical layout (applied at
/// the initial freeze and preserved across churn refreshes). Backend
/// choice never changes checksums.
CpuTimedRun run_cpu_timed(const workloads::Workload& w,
                          const DatasetBundle& bundle, int threads,
                          Backend backend = Backend::kDynamic,
                          const engine::TraversalOptions& traversal = {},
                          RefreshMode refresh_mode = RefreshMode::kFull,
                          const ChurnPhase& churn = {},
                          const graph::LayoutOptions& layout = {},
                          const DiskBackendOptions& disk = {});

/// Figure 1: fraction of execution time spent inside framework primitives.
struct FrameworkTimeRun {
  double total_seconds = 0;
  double framework_seconds = 0;
  double framework_fraction() const {
    return total_seconds > 0 ? framework_seconds / total_seconds : 0.0;
  }
};

FrameworkTimeRun run_cpu_framework_time(const workloads::Workload& w,
                                        const DatasetBundle& bundle);

/// Result of a GPU (SIMT-simulated) run.
struct GpuRun {
  workloads::gpu::GpuRunResult result;
  simt::GpuTiming timing;
};

GpuRun run_gpu(const workloads::gpu::GpuWorkload& w,
               const DatasetBundle& bundle,
               const simt::SimtConfig& config = {});

/// Scaled MUNIN sweep counts used in profiled Gibbs runs (keeps the
/// CompProp instruction volume comparable to the other workloads).
workloads::RunContext make_cpu_context(const workloads::Workload& w,
                                       graph::PropertyGraph& graph,
                                       const DatasetBundle& bundle);

/// Builds the workload's actual input graph (dataset copy, DAG-ized copy,
/// or MUNIN) -- exposed for tests.
graph::PropertyGraph make_input_graph(const workloads::Workload& w,
                                      const DatasetBundle& bundle);

}  // namespace graphbig::harness
