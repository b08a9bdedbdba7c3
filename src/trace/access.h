// Memory-access tracing hooks.
//
// The paper characterizes GraphBIG with hardware performance counters
// (perf_event + libpfm on the CPU, nvprof on the GPU). This reproduction has
// no counter access, so the framework's storage layer emits an explicit
// event stream instead: every primitive that touches graph topology,
// properties, or workload metadata reports the access here, and the
// perfmodel replays the stream through software cache/TLB/branch models.
//
// Tracing is off by default. What a hook costs depends on the view a kernel
// runs against: zero on untraced views, where the hooks are compiled out,
// and one inline thread-local pointer test on traced and dynamic views.
// Hooks<kOn> is that compile-time policy; graph::FrozenView carries it as a
// type parameter, and workloads::RunContext::view() picks the traced
// alternative only when the calling thread has a sink installed. Timing
// runs on frozen views (graphbig_run, serving, perfbench) therefore pay
// nothing for the hooks, while profiled runs see exactly the hook stream
// of the free functions below.
#pragma once

#include <cstdint>

namespace graphbig::trace {

/// What kind of memory an access touches. The distinction drives the
/// locality analysis in the paper: graph topology accesses are irregular,
/// property accesses are semi-regular, and metadata (queues, local
/// variables) is hot and small -- the source of the high L1D hit rates
/// reported in Section 5.2.
enum class MemKind : std::uint8_t {
  kTopology = 0,   // vertex slots, adjacency entries, index structures
  kProperty = 1,   // vertex/edge property payloads
  kMetadata = 2,   // frontier queues, visited sets, local accumulators
};

inline constexpr int kNumMemKinds = 3;

/// Receiver of the access stream. Implemented by perfmodel::Profiler and by
/// the counting sinks used in tests.
class AccessSink {
 public:
  virtual ~AccessSink() = default;

  virtual void on_read(MemKind kind, const void* addr, std::uint32_t size) = 0;
  virtual void on_write(MemKind kind, const void* addr,
                        std::uint32_t size) = 0;

  /// A conditional branch at static site `site` resolved as `taken`.
  virtual void on_branch(std::uint32_t site, bool taken) = 0;

  /// `n` arithmetic/logic operations executed.
  virtual void on_alu(std::uint32_t n) = 0;

  /// Control entered static code block `block` (framework primitive or
  /// workload kernel); feeds the ICache model.
  virtual void on_block(std::uint32_t block) = 0;
};

/// Thread-local active sink. Null means tracing disabled. Defined inline
/// with a constant initializer, so a hook's test is one TLS load, not a
/// call.
inline thread_local AccessSink* tls_sink = nullptr;

/// RAII installer for the thread-local sink.
class ScopedSink {
 public:
  explicit ScopedSink(AccessSink* sink) : prev_(tls_sink) { tls_sink = sink; }
  ~ScopedSink() { tls_sink = prev_; }

  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  AccessSink* prev_;
};

// ---- inline emission helpers (no-ops when no sink installed) ----

inline void read(MemKind kind, const void* addr, std::uint32_t size) {
  if (AccessSink* s = tls_sink) s->on_read(kind, addr, size);
}

inline void write(MemKind kind, const void* addr, std::uint32_t size) {
  if (AccessSink* s = tls_sink) s->on_write(kind, addr, size);
}

inline void branch(std::uint32_t site, bool taken) {
  if (AccessSink* s = tls_sink) s->on_branch(site, taken);
}

inline void alu(std::uint32_t n = 1) {
  if (AccessSink* s = tls_sink) s->on_alu(n);
}

inline void block(std::uint32_t id) {
  if (AccessSink* s = tls_sink) s->on_block(id);
}

inline bool enabled() { return tls_sink != nullptr; }

/// Compile-time hook policy: the same five calls as the free functions.
/// Hooks<true> forwards to them (runtime-checked against the thread's
/// sink); Hooks<false> emits nothing, so a kernel instantiated with it
/// compiles every hook out. Views expose theirs as View::Hooks.
template <bool kOn>
struct Hooks {
  static void read([[maybe_unused]] MemKind kind,
                   [[maybe_unused]] const void* addr,
                   [[maybe_unused]] std::uint32_t size) {
    if constexpr (kOn) trace::read(kind, addr, size);
  }
  static void write([[maybe_unused]] MemKind kind,
                    [[maybe_unused]] const void* addr,
                    [[maybe_unused]] std::uint32_t size) {
    if constexpr (kOn) trace::write(kind, addr, size);
  }
  static void branch([[maybe_unused]] std::uint32_t site,
                     [[maybe_unused]] bool taken) {
    if constexpr (kOn) trace::branch(site, taken);
  }
  static void alu([[maybe_unused]] std::uint32_t n = 1) {
    if constexpr (kOn) trace::alu(n);
  }
  static void block([[maybe_unused]] std::uint32_t id) {
    if constexpr (kOn) trace::block(id);
  }
};

using Traced = Hooks<true>;
using Untraced = Hooks<false>;

/// Well-known code-block ids (for the ICache model). Framework primitives
/// occupy a small, flat set of blocks -- the design property behind the low
/// ICache MPKI observation in Section 5.2.
enum BlockId : std::uint32_t {
  kBlockFindVertex = 1,
  kBlockAddVertex,
  kBlockDeleteVertex,
  kBlockAddEdge,
  kBlockDeleteEdge,
  kBlockTraverseNeighbors,
  kBlockPropertyRead,
  kBlockPropertyWrite,
  kBlockWorkloadKernel,     // workload-specific inner loop
  kBlockWorkloadKernelAux,  // secondary workload loop (e.g. intersection)
  kBlockQueueOp,
  kNumWellKnownBlocks,
};

/// Branch-site ids for hook-level conditional branches.
enum BranchSite : std::uint32_t {
  kBranchVisitedCheck = 1,
  kBranchLoopCond,
  kBranchCompare,       // data-dependent compares (TC intersection)
  kBranchHashProbe,
  kBranchPropertyTest,
};

/// Simple sink that counts events; used in unit tests and as a cheap
/// instruction estimator.
class CountingSink final : public AccessSink {
 public:
  void on_read(MemKind kind, const void*, std::uint32_t size) override {
    ++reads_[static_cast<int>(kind)];
    read_bytes_ += size;
  }
  void on_write(MemKind kind, const void*, std::uint32_t size) override {
    ++writes_[static_cast<int>(kind)];
    write_bytes_ += size;
  }
  void on_branch(std::uint32_t, bool taken) override {
    ++branches_;
    if (taken) ++taken_;
  }
  void on_alu(std::uint32_t n) override { alu_ += n; }
  void on_block(std::uint32_t) override { ++blocks_; }

  std::uint64_t reads(MemKind k) const {
    return reads_[static_cast<int>(k)];
  }
  std::uint64_t writes(MemKind k) const {
    return writes_[static_cast<int>(k)];
  }
  std::uint64_t total_reads() const {
    return reads_[0] + reads_[1] + reads_[2];
  }
  std::uint64_t total_writes() const {
    return writes_[0] + writes_[1] + writes_[2];
  }
  std::uint64_t read_bytes() const { return read_bytes_; }
  std::uint64_t write_bytes() const { return write_bytes_; }
  std::uint64_t branches() const { return branches_; }
  std::uint64_t taken_branches() const { return taken_; }
  std::uint64_t alu_ops() const { return alu_; }
  std::uint64_t block_entries() const { return blocks_; }

 private:
  std::uint64_t reads_[kNumMemKinds] = {0, 0, 0};
  std::uint64_t writes_[kNumMemKinds] = {0, 0, 0};
  std::uint64_t read_bytes_ = 0;
  std::uint64_t write_bytes_ = 0;
  std::uint64_t branches_ = 0;
  std::uint64_t taken_ = 0;
  std::uint64_t alu_ = 0;
  std::uint64_t blocks_ = 0;
};

}  // namespace graphbig::trace
