#include "harness/experiment.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "bayes/munin.h"
#include "datagen/generators.h"
#include "obs/trace_span.h"
#include "platform/timer.h"
#include "trace/access.h"

namespace graphbig::harness {

namespace {

/// Orients every edge from lower to higher id, producing a DAG with the
/// dataset's topology (TMorph input on arbitrary datasets).
datagen::EdgeList dagize(const datagen::EdgeList& el) {
  datagen::EdgeList out;
  out.num_vertices = el.num_vertices;
  out.directed = true;
  out.edges.reserve(el.edges.size());
  for (const auto& [s, d] : el.edges) {
    if (s == d) continue;
    out.edges.emplace_back(std::min(s, d), std::max(s, d));
  }
  datagen::canonicalize(out);
  // Cap in-degree (parent count). Moralization marries all parent pairs,
  // which is quadratic in parent count; real Bayesian-network DAGs have
  // bounded parent sets, and an uncapped zipf hub would blow the moral
  // graph up to millions of marriage edges.
  constexpr std::size_t kMaxParents = 16;
  std::vector<std::size_t> in_count(el.num_vertices, 0);
  datagen::EdgeList capped;
  capped.num_vertices = out.num_vertices;
  capped.directed = true;
  capped.edges.reserve(out.edges.size());
  for (const auto& [s, d] : out.edges) {
    if (in_count[d] >= kMaxParents) continue;
    ++in_count[d];
    capped.edges.emplace_back(s, d);
  }
  return capped;
}

graph::VertexId pick_root(const graph::PropertyGraph& g) {
  graph::VertexId best = 0;
  std::size_t best_degree = 0;
  bool found = false;
  g.for_each_vertex([&](const graph::VertexRecord& v) {
    if (!found || v.out.size() > best_degree) {
      best = v.id;
      best_degree = v.out.size();
      found = true;
    }
  });
  return best;
}

/// pick_root over stored rows: freeze() assigns rows in the dynamic
/// graph's iteration order, so scanning rows ascending with a
/// strictly-greater comparison reproduces pick_root's answer from a
/// serialized snapshot without the dynamic graph.
graph::VertexId pick_root_rows(const std::uint64_t* out_ptr,
                               const graph::VertexId* orig_id,
                               std::uint32_t rows) {
  graph::VertexId best = 0;
  std::uint64_t best_degree = 0;
  bool found = false;
  for (std::uint32_t v = 0; v < rows; ++v) {
    if (orig_id[v] == graph::kInvalidVertex) continue;
    const std::uint64_t deg = out_ptr[v + 1] - out_ptr[v];
    if (!found || deg > best_degree) {
      best = orig_id[v];
      best_degree = deg;
      found = true;
    }
  }
  return best;
}

/// Unique temp-file name in the working directory (not /tmp: runs stay
/// inside the repo tree) for run_cpu_timed's transient serialization.
std::string temp_snapshot_name() {
  static std::atomic<std::uint64_t> counter{0};
  return ".graphbig-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".snap";
}

}  // namespace

bool supports_frozen(const workloads::Workload& w) {
  return !w.mutates_graph() && !w.needs_bayes_input() &&
         !w.needs_dag_input();
}

const char* to_string(RefreshMode mode) {
  return mode == RefreshMode::kIncremental ? "incremental" : "full";
}

bool parse_refresh_mode(const std::string& name, RefreshMode* out) {
  if (name == "full") {
    *out = RefreshMode::kFull;
    return true;
  }
  if (name == "incremental") {
    *out = RefreshMode::kIncremental;
    return true;
  }
  return false;
}

const char* to_string(Backend backend) {
  static constexpr const char* kNames[] = {"dynamic", "frozen", "disk"};
  return kNames[static_cast<int>(backend)];
}

bool parse_backend(const std::string& name, Backend* out) {
  for (const Backend b :
       {Backend::kDynamic, Backend::kFrozen, Backend::kDisk}) {
    if (name == to_string(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

DatasetBundle load_bundle(datagen::DatasetId id, datagen::Scale scale) {
  obs::ObsSpan span("load_dataset");
  DatasetBundle bundle;
  bundle.id = id;
  bundle.scale = scale;
  bundle.edge_list = datagen::generate_dataset(id, scale);
  bundle.graph = datagen::build_property_graph(bundle.edge_list);
  // The device CSR is derived from the frozen snapshot (the paper's "graph
  // populating" step goes dynamic graph -> frozen arrays -> device).
  bundle.snapshot = graph::GraphSnapshot::freeze(bundle.graph);
  bundle.csr = graph::build_csr(bundle.snapshot);
  bundle.sym = graph::symmetrize(bundle.csr);
  bundle.coo = graph::build_coo(bundle.sym);
  bundle.root = pick_root(bundle.graph);
  for (std::uint32_t v = 0; v < bundle.csr.num_vertices; ++v) {
    if (bundle.csr.orig_id[v] == bundle.root) {
      bundle.gpu_root = v;
      break;
    }
  }
  return bundle;
}

DatasetBundle load_bundle_from_snapshot(const std::string& path,
                                        SnapshotLoadMode mode,
                                        const DiskBackendOptions& disk) {
  obs::ObsSpan span("load_snapshot");
  DatasetBundle bundle;
  bundle.id = datagen::DatasetId::kTwitter;  // provenance is the file, not
  bundle.scale = datagen::Scale::kTiny;      // a dataset recipe
  bundle.from_snapshot = true;
  bundle.snapshot_path = path;
  bundle.snapshot_format = graph::snap::kSchemaName;
  if (mode == SnapshotLoadMode::kFull) {
    graph::snap::SnapInfo info;
    bundle.snapshot = graph::snap::load_snapshot(path, &info);
    bundle.snapshot_version = info.version;
    bundle.snapshot_checksum = info.file_checksum;
    bundle.snapshot_layout = info.layout;
    bundle.csr = graph::build_csr(bundle.snapshot);
    bundle.sym = graph::symmetrize(bundle.csr);
    bundle.coo = graph::build_coo(bundle.sym);
    bundle.root =
        pick_root_rows(bundle.snapshot.out_ptr(), bundle.snapshot.orig_id(),
                       bundle.snapshot.row_count());
    for (std::uint32_t v = 0; v < bundle.csr.num_vertices; ++v) {
      if (bundle.csr.orig_id[v] == bundle.root) {
        bundle.gpu_root = v;
        break;
      }
    }
  } else {
    graph::DiskGraphOptions dopts;
    dopts.pool_pages = disk.pool_pages;
    dopts.page_bytes = disk.page_bytes;
    bundle.disk = std::make_shared<graph::DiskGraph>(path, dopts);
    bundle.snapshot_version = bundle.disk->info().version;
    bundle.snapshot_checksum = bundle.disk->info().file_checksum;
    bundle.snapshot_layout = bundle.disk->info().layout;
    bundle.root = pick_root_rows(bundle.disk->out_ptr(),
                                 bundle.disk->orig_id(),
                                 bundle.disk->row_count());
  }
  return bundle;
}

graph::PropertyGraph make_input_graph(const workloads::Workload& w,
                                      const DatasetBundle& bundle) {
  if (w.needs_bayes_input()) {
    return bayes::generate_munin();
  }
  if (w.needs_dag_input()) {
    return datagen::build_property_graph(dagize(bundle.edge_list));
  }
  if (w.acronym() == "GCons") {
    return graph::PropertyGraph{};  // GCons builds from scratch
  }
  // Every workload gets a fresh copy so runs are independent (CompDyn
  // mutates; analytics attach state properties).
  return datagen::build_property_graph(bundle.edge_list);
}

workloads::RunContext make_cpu_context(const workloads::Workload& w,
                                       graph::PropertyGraph& graph,
                                       const DatasetBundle& bundle) {
  workloads::RunContext ctx;
  ctx.graph = &graph;
  ctx.seed = 12345;
  ctx.root = bundle.root;
  if (w.acronym() == "GCons") ctx.edge_list = &bundle.edge_list;
  if (w.needs_bayes_input() || w.needs_dag_input()) {
    // MUNIN/DAG inputs pick their own roots deterministically.
    ctx.root = 0;
  }
  return ctx;
}

CpuProfiledRun run_cpu_profiled(const workloads::Workload& w,
                                const DatasetBundle& bundle,
                                const perfmodel::MachineConfig& machine,
                                Backend backend,
                                const graph::LayoutOptions& layout) {
  if (backend == Backend::kDisk) {
    throw std::invalid_argument(
        "profiled runs replay in-RAM accesses only; the disk backend "
        "cannot be profiled");
  }
  graph::PropertyGraph input = make_input_graph(w, bundle);
  workloads::RunContext ctx = make_cpu_context(w, input, bundle);

  // Profiled runs replay the paper's characterization, which models the
  // push-style vertex-centric traversal; pin the engine accordingly so the
  // trace shapes (and therefore the derived metrics) stay comparable.
  ctx.traversal.direction = engine::Direction::kPush;

  // Freeze before attaching the sink so snapshot construction does not
  // pollute the modeled access trace.
  graph::GraphSnapshot snapshot;
  if (backend == Backend::kFrozen && supports_frozen(w)) {
    snapshot = graph::GraphSnapshot::freeze(input, layout);
    ctx.snapshot = &snapshot;
  }

  perfmodel::Profiler profiler(machine);
  CpuProfiledRun out;
  {
    trace::ScopedSink sink(&profiler);
    out.run = w.run(ctx);
  }
  out.counters = profiler.counters();
  out.metrics = profiler.breakdown();
  return out;
}

CpuTimedRun run_cpu_timed(const workloads::Workload& w,
                          const DatasetBundle& bundle, int threads,
                          Backend backend,
                          const engine::TraversalOptions& traversal,
                          RefreshMode refresh_mode, const ChurnPhase& churn,
                          const graph::LayoutOptions& layout,
                          const DiskBackendOptions& disk) {
  graph::PropertyGraph input = make_input_graph(w, bundle);
  workloads::RunContext ctx = make_cpu_context(w, input, bundle);
  ctx.traversal = traversal;

  CpuTimedRun out;

  // Freeze before starting the timer: the measured interval covers the
  // algorithm only, on whichever backend it traverses.
  graph::GraphSnapshot snapshot;
  std::unique_ptr<graph::PropertyColumns> run_columns;
  std::unique_ptr<graph::DiskGraph> run_disk;
  const bool frozen = backend != Backend::kDynamic && supports_frozen(w);
  if (frozen) {
    if (bundle.from_snapshot) {
      // Snapshot-sourced bundle: no dynamic input exists, so traverse the
      // bundle's own materialization (shared across runs — algorithm state
      // goes to a private column set so runs stay independent).
      if (churn.batches > 0) {
        throw std::runtime_error(
            "snapshot-sourced bundles cannot run a churn phase "
            "(no dynamic input to mutate)");
      }
      if (bundle.disk != nullptr) {
        ctx.disk = bundle.disk.get();
        run_columns =
            std::make_unique<graph::PropertyColumns>(bundle.disk->row_count());
        ctx.columns = run_columns.get();
      } else {
        ctx.snapshot = &bundle.snapshot;
        run_columns = std::make_unique<graph::PropertyColumns>(
            bundle.snapshot.row_count());
        ctx.columns = run_columns.get();
      }
    } else {
      snapshot = graph::GraphSnapshot::freeze(input, layout);
      ctx.snapshot = &snapshot;
    }
  }

  // Churn phase: mutate the input (every backend sees the same
  // mutated graph, so dynamic/frozen checksums stay comparable), then
  // bring the snapshot up to date per the refresh mode. Churn + refresh
  // time is excluded from the measured workload seconds.
  if (churn.batches > 0) {
    graph::ChurnDriver driver(churn.config, input);
    for (int b = 0; b < churn.batches; ++b) {
      driver.apply_batch(input);
      if (frozen && refresh_mode == RefreshMode::kIncremental) {
        platform::WallTimer refresh_timer;
        out.refresh = snapshot.refresh(input);
        out.refresh_seconds += refresh_timer.seconds();
      }
    }
    if (frozen && refresh_mode == RefreshMode::kFull) {
      platform::WallTimer refresh_timer;
      snapshot = graph::GraphSnapshot::freeze(input, layout);
      out.refresh_seconds = refresh_timer.seconds();
      out.refresh.kind = graph::RefreshStats::Kind::kFullRebuild;
      out.refresh.fallback_reason = "refresh mode: full";
      out.refresh.rows_total = snapshot.row_count();
      out.refresh.rows_rewritten = snapshot.row_count();
      out.refresh.edges_copied = snapshot.num_edges();
      out.refresh.seconds = out.refresh_seconds;
    }
    // The churn may have deleted the preferred root; re-pick from the
    // mutated graph so every representation traverses from the same live
    // vertex.
    if (input.find_vertex(ctx.root) == nullptr) ctx.root = pick_root(input);
  }

  // Disk backend: serialize the up-to-date snapshot (post-churn) to a
  // graphbig.snap.v1 file and traverse it out-of-core through the buffer
  // pool. Serialization + open time is excluded from the measured seconds,
  // like freeze time. When the caller supplied a file (disk.snapshot_path)
  // it is traversed directly; otherwise the temp file is unlinked right
  // after open — the mmap keeps the bytes readable.
  if (frozen && backend == Backend::kDisk && ctx.disk == nullptr) {
    std::string snap_path = disk.snapshot_path;
    std::string temp;
    if (snap_path.empty()) {
      temp = temp_snapshot_name();
      graph::snap::save_snapshot(*ctx.snapshot, temp);
      snap_path = temp;
    }
    graph::DiskGraphOptions dopts;
    dopts.pool_pages = disk.pool_pages;
    dopts.page_bytes = disk.page_bytes;
    run_disk = std::make_unique<graph::DiskGraph>(snap_path, dopts);
    if (!temp.empty()) ::unlink(temp.c_str());
    ctx.disk = run_disk.get();
    ctx.snapshot = nullptr;
    ctx.columns = nullptr;  // the DiskGraph owns a fresh column set
  }

  std::unique_ptr<platform::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<platform::ThreadPool>(threads);
    ctx.pool = pool.get();
  }

  ctx.telemetry = &out.telemetry;
  platform::WallTimer timer;
  {
    obs::ObsSpan span("workload");
    out.run = w.run(ctx);
  }
  out.seconds = timer.seconds();
  return out;
}

FrameworkTimeRun run_cpu_framework_time(const workloads::Workload& w,
                                        const DatasetBundle& bundle) {
  graph::PropertyGraph input = make_input_graph(w, bundle);
  workloads::RunContext ctx = make_cpu_context(w, input, bundle);
  // Figure 1 measures time inside framework primitives for the paper's
  // push-style traversal; pull sweeps would shift the split, so pin the
  // engine to the characterized configuration.
  ctx.traversal.direction = engine::Direction::kPush;

  graph::fwk::set_accounting(true);
  graph::fwk::reset_thread_time();
  FrameworkTimeRun out;
  platform::WallTimer timer;
  w.run(ctx);
  out.total_seconds = timer.seconds();
  out.framework_seconds =
      static_cast<double>(graph::fwk::thread_time_ns()) * 1e-9;
  graph::fwk::set_accounting(false);
  return out;
}

GpuRun run_gpu(const workloads::gpu::GpuWorkload& w,
               const DatasetBundle& bundle, const simt::SimtConfig& config) {
  simt::SimtEngine engine(config);
  workloads::gpu::GpuRunContext ctx;
  ctx.csr = &bundle.csr;
  ctx.sym = &bundle.sym;
  ctx.coo = &bundle.coo;
  ctx.engine = &engine;
  ctx.root = bundle.gpu_root;
  ctx.seed = 12345;

  GpuRun out;
  out.result = w.run(ctx);
  out.timing = simt::model_timing(out.result.stats, config);
  return out;
}

}  // namespace graphbig::harness
