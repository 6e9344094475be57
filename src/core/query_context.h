// Per-query execution state: the arenas one graph query scatters and
// gathers through.
//
// Historically the Runtime owned the bins, the IO buffer pool, and the
// scatter staging buffers directly, which bound it to exactly one query at
// a time: two concurrent edge_map calls would race on the same BinSet.
// QueryContext splits that mutable state out. A Runtime still owns the
// *shared* machinery — the persistent per-device IO reader threads
// (io::IoPipeline) and, for the single-query path, one default compute
// pool — while every concurrently executing query brings its own
// QueryContext. N contexts over one Runtime give N queries independent
// bins/buffers but one set of IO threads and one page cache underneath
// (FlashGraph's "many queries, one cache, one IO thread per SSD" shape).
//
// The shared io buffer budget is partitioned, not pooled: each context owns
// an IoBufferPool sized by its config, so one slow query's backpressure
// never starves another query's reads. serve::QueryEngine divides
// Config::io_buffer_bytes across its admission slots.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bins.h"
#include "core/config.h"
#include "io/buffer_pool.h"
#include "io/io_pipeline.h"
#include "trace/tracer.h"
#include "util/thread_pool.h"

namespace blaze::format {
class OnDiskGraph;  // the handle a catalog query pins (see graph())
}

namespace blaze::core {

/// The per-query arenas plus the compute pool a query executes on.
/// Not thread-safe itself: one query (one logical caller) per context.
/// Distinct contexts may run EdgeMap concurrently over the same pipeline.
class QueryContext {
 public:
  /// Owns a private compute pool of cfg.compute_workers threads (the
  /// serving path: each session schedules independently).
  QueryContext(const Config& cfg, io::IoPipeline& pipeline)
      : cfg_(cfg),
        pipeline_(&pipeline),
        owned_pool_(std::make_unique<ThreadPool>(cfg.compute_workers)),
        pool_(owned_pool_.get()) {}

  /// Borrows an existing pool (the Runtime's default context reuses the
  /// Runtime-owned workers so the single-query path spawns nothing new).
  QueryContext(const Config& cfg, io::IoPipeline& pipeline, ThreadPool& pool)
      : cfg_(cfg), pipeline_(&pipeline), pool_(&pool) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// A query's discard-mode prefetches can still be streaming into io_pool_
  /// when its last EdgeMap returns; wait them out before the arena dies.
  /// (Quiesce is pipeline-wide — acceptable, since contexts are destroyed
  /// at session teardown, not per query.)
  ~QueryContext() {
    if (io_pool_) pipeline_->quiesce();
  }

  const Config& config() const { return cfg_; }
  ThreadPool& pool() { return *pool_; }
  io::IoPipeline& io_pipeline() { return *pipeline_; }

  /// The trace identity every span emitted on this context's behalf
  /// carries. Assigned at construction; serve::QueryEngine re-stamps it
  /// per admitted query so a reused session context yields one tree per
  /// query, not one per session.
  trace::QueryId trace_id() const { return trace_id_; }
  void set_trace_id(trace::QueryId id) { trace_id_ = id; }

  /// The tenant the running query belongs to; empty outside multi-tenant
  /// serving. Stamped by serve::QueryEngine per admitted query (like the
  /// trace id) so algorithms and adapters can attribute work without the
  /// engine threading a second channel through every call.
  const std::string& tenant() const { return tenant_; }
  void set_tenant(std::string tenant) { tenant_ = std::move(tenant); }

  /// The catalog graph the running query was admitted against; null for
  /// direct (non-catalog) execution. The shared_ptr pins the graph: a
  /// concurrent GraphCatalog::close() of it cannot free the index/device
  /// under a query that already holds the handle.
  const std::shared_ptr<const format::OnDiskGraph>& graph() const {
    return graph_;
  }
  void set_graph(std::shared_ptr<const format::OnDiskGraph> g) {
    graph_ = std::move(g);
  }

  /// Bin space, (re)created lazily from the config and reset between
  /// EdgeMap executions; `num_vertices` sizes the destination ranges.
  BinSet& acquire_bins(std::uint64_t num_vertices) {
    if (!bins_ || bins_->bin_count() != cfg_.bin_count) {
      bins_ = std::make_unique<BinSet>(cfg_.bin_count, cfg_.bin_space_bytes);
    }
    bins_->reset(num_vertices);
    return *bins_;
  }

  /// This query's slice of the static IO buffer budget.
  io::IoBufferPool& io_pool() {
    if (!io_pool_) {
      io_pool_ = std::make_unique<io::IoBufferPool>(cfg_.io_buffer_bytes);
    }
    return *io_pool_;
  }

  /// Per-worker scatter staging buffers, cached across EdgeMap calls
  /// (fresh allocation per call costs mmap + page-fault churn that dwarfs
  /// small iterations). Buffers are empty between calls by construction:
  /// every EdgeMap flushes them before finishing.
  ScatterBuffer& scatter_buffer(std::size_t worker) {
    const std::size_t workers = pool_->num_threads();
    if (sbufs_.size() != workers || sbuf_bin_count_ != cfg_.bin_count) {
      sbufs_.clear();
      sbufs_.reserve(workers);
      for (std::size_t i = 0; i < workers; ++i) {
        sbufs_.push_back(std::make_unique<ScatterBuffer>(cfg_.bin_count));
      }
      sbuf_bin_count_ = cfg_.bin_count;
    }
    return *sbufs_[worker];
  }

  /// True when this context's IO-buffer slice (if ever materialized) has
  /// every buffer back in the free list. Exact only while the context is
  /// idle and the pipeline is quiesced — the leak check the chaos tests
  /// run after a drain.
  bool io_pool_full() const {
    return !io_pool_ || io_pool_->available() == io_pool_->num_buffers();
  }

  /// Drops the arenas; they are rebuilt lazily on next use. Waits out any
  /// queued pipeline work first so no reader touches a pool being
  /// destroyed.
  void invalidate_arenas() {
    pipeline_->quiesce();
    bins_.reset();
    io_pool_.reset();
    sbufs_.clear();
  }

  /// Bytes currently held by this context's arenas (memory-footprint
  /// figure).
  std::uint64_t arena_bytes() const {
    std::uint64_t b = 0;
    if (bins_) b += bins_->memory_bytes();
    if (io_pool_) b += io_pool_->memory_bytes();
    return b;
  }

 private:
  Config cfg_;
  io::IoPipeline* pipeline_;
  trace::QueryId trace_id_ = trace::next_query_id();
  std::string tenant_;
  std::shared_ptr<const format::OnDiskGraph> graph_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when the pool is borrowed
  ThreadPool* pool_;
  std::unique_ptr<BinSet> bins_;
  std::unique_ptr<io::IoBufferPool> io_pool_;
  std::vector<std::unique_ptr<ScatterBuffer>> sbufs_;
  std::size_t sbuf_bin_count_ = 0;
};

}  // namespace blaze::core
