// Oracle comparisons, the page-scan probe, and the per-layer metric
// derivations shared by the batch and serving workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/stats.h"
#include "device/page_cache.h"

namespace perfbench {

/// PageRank is checked by relative L1 distance to the sequential
/// baselines::inmem::pagerank_delta run: the parallel engine reorders
/// float additions, so bit equality is not expected.
inline constexpr double kPrTolerance = 1e-4;

/// BFS levels equal the oracle's hop distances: the same vertices are
/// reached, and every reached vertex's parent sits one level above it.
bool bfs_matches(const std::vector<vertex_t>& parent,
                 const std::vector<std::uint32_t>& dist, vertex_t source);

bool pr_matches(const std::vector<float>& got, const std::vector<float>& want);

/// Single-threaded format::scan_page / scan_page_dvarint over every page
/// of the given graphs with a trivial visitor.
struct ScanProbe {
  double flat_ns_per_page = 0;
  double dvarint_ns_per_page = 0;
};
ScanProbe probe_page_scan(const std::vector<const blaze::graph::Csr*>& graphs);

/// Leaf-device totals over the query phase (from each leaf's IoStats) and
/// the QueryStats busy time beside them. `n` is the number of queries.
void add_device_metrics(Result& res, double n, std::uint64_t leaf_bytes,
                        std::uint64_t leaf_reads, std::uint64_t leaf_busy_ns,
                        std::size_t num_leaves, double wall_s,
                        double imbalance,
                        const blaze::core::QueryStats& total);

/// Decorator service-time percentiles and its byte/read gap to the leaves.
void add_tap_metrics(
    Result& res, const std::vector<std::shared_ptr<TimedDevice>>& taps,
    const std::vector<std::shared_ptr<blaze::device::BlockDevice>>& leaves);

void add_cache_metrics(Result& res, double n,
                       const blaze::device::CacheCounters& before,
                       const blaze::device::CacheCounters& after);

/// io.* and core.* from the summed QueryStats of `queries` queries whose
/// own timed durations add up to `query_s`.
void add_io_core_metrics(Result& res, std::size_t queries,
                         const blaze::core::QueryStats& total,
                         std::size_t workers, double cpu_s, double wall_s,
                         double query_s);

/// Writes the span file and adds the span counts and self times.
void finish_trace(Result& res, const SpanLog& spans, const Options& opt);

}  // namespace perfbench
