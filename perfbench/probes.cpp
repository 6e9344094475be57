#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "format/dvarint.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "format/page_vertex_map.h"

namespace perfbench {

using namespace blaze;

bool bfs_matches(const std::vector<vertex_t>& parent,
                 const std::vector<std::uint32_t>& dist, vertex_t source) {
  if (parent.size() != dist.size()) return false;
  for (std::size_t v = 0; v < parent.size(); ++v) {
    const bool reached = parent[v] != kInvalidVertex;
    if (reached != (dist[v] != ~0u)) return false;
    if (!reached || v == source) continue;
    const vertex_t p = parent[v];
    if (p >= dist.size() || dist[p] == ~0u || dist[p] + 1 != dist[v]) {
      return false;
    }
  }
  return parent[source] == source;
}

bool pr_matches(const std::vector<float>& got,
                const std::vector<float>& want) {
  if (got.size() != want.size()) return false;
  double err = 0, norm = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::fabs(static_cast<double>(got[i]) - want[i]);
    norm += std::fabs(static_cast<double>(want[i]));
  }
  return norm > 0 && err / norm <= kPrTolerance;
}

namespace {

std::atomic<std::uint64_t> g_sink{0};

template <typename ScanFn>
double time_pages(std::uint64_t pages, ScanFn&& scan) {
  constexpr int kReps = 5;
  std::vector<double> per_page;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t sum = 0;
    const double t = now_s();
    for (std::uint64_t p = 0; p < pages; ++p) sum += scan(p);
    per_page.push_back((now_s() - t) * 1e9 / static_cast<double>(pages));
    g_sink.fetch_add(sum);
  }
  return median(per_page);
}

}  // namespace

ScanProbe probe_page_scan(const std::vector<const graph::Csr*>& graphs) {
  double flat_ns = 0, dv_ns = 0, flat_pages = 0, dv_pages = 0;
  for (const graph::Csr* g : graphs) {
    const std::vector<std::byte> flat = format::serialize_adjacency(*g);
    const format::GraphIndex flat_index(degrees_of(*g));
    const format::PageVertexMap flat_map(flat_index);
    const std::uint64_t fp = flat_map.num_pages();
    flat_ns += static_cast<double>(fp) * time_pages(fp, [&](std::uint64_t p) {
      std::uint64_t acc = 0;
      format::scan_page(flat_index, flat_map, p, flat.data() + p * kPageSize,
                        [](vertex_t) { return true; },
                        [&](vertex_t, vertex_t d) { acc += d; });
      return acc;
    });
    flat_pages += static_cast<double>(fp);

    format::DvarintAdjacency enc = format::encode_dvarint(*g);
    const format::GraphIndex dv_index = format::make_dvarint_index(*g, enc);
    const format::PageVertexMap dv_map(dv_index);
    const std::uint64_t dp = dv_map.num_pages();
    dv_ns += static_cast<double>(dp) * time_pages(dp, [&](std::uint64_t p) {
      std::uint64_t acc = 0;
      format::scan_page_dvarint(dv_index, dv_map, p,
                                enc.bytes.data() + p * kPageSize,
                                [](vertex_t) { return true; },
                                [&](vertex_t, vertex_t d) {
                                  acc += d;
                                  return true;
                                });
      return acc;
    });
    dv_pages += static_cast<double>(dp);
  }
  return {flat_ns / flat_pages, dv_ns / dv_pages};
}

void add_device_metrics(Result& res, double n, std::uint64_t leaf_bytes,
                        std::uint64_t leaf_reads, std::uint64_t leaf_busy_ns,
                        std::size_t num_leaves, double wall_s,
                        double imbalance, const core::QueryStats& total) {
  const double busy_s = static_cast<double>(leaf_busy_ns) * 1e-9;
  const double qs_busy_s = static_cast<double>(total.device_busy_ns) * 1e-9;
  res.add("device.bytes", static_cast<double>(leaf_bytes) / n, "B/query");
  res.add("device.reads", static_cast<double>(leaf_reads) / n, "1/query");
  res.add("device.busy_s", busy_s / n, "s");
  // QueryStats samples the top device of each graph: under a CachedDevice
  // that is the cache's own view, which records no service time.
  res.add("device.busy_s.querystats", qs_busy_s / n, "s");
  res.add("device.busy_gap_s", (busy_s - qs_busy_s) / n, "s");
  res.add("device.busy_frac",
          busy_s / (static_cast<double>(num_leaves) * wall_s), "ratio");
  res.add("device.imbalance", imbalance, "ratio");
}

void add_tap_metrics(
    Result& res, const std::vector<std::shared_ptr<TimedDevice>>& taps,
    const std::vector<std::shared_ptr<device::BlockDevice>>& leaves) {
  std::vector<double> us;
  std::uint64_t tap_bytes = 0, tap_reads = 0, leaf_bytes = 0, leaf_reads = 0;
  for (const auto& t : taps) {
    for (std::uint64_t ns : t->service_ns()) {
      us.push_back(static_cast<double>(ns) * 1e-3);
    }
    tap_bytes += t->bytes();
    tap_reads += t->reads();
  }
  for (const auto& l : leaves) {
    leaf_bytes += l->stats().total_bytes();
    leaf_reads += l->stats().total_reads();
  }
  res.add("device.service_us.p50", percentile(us, 0.50), "us");
  res.add("device.service_us.p99", percentile(us, 0.99), "us");
  res.add("device.service_samples", static_cast<double>(us.size()), "count");
  res.add("trace.bytes_gap",
          static_cast<double>(tap_bytes) - static_cast<double>(leaf_bytes),
          "B");
  res.add("trace.reads_gap",
          static_cast<double>(tap_reads) - static_cast<double>(leaf_reads),
          "count");
}

void add_cache_metrics(Result& res, double n,
                       const device::CacheCounters& before,
                       const device::CacheCounters& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  res.add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
          "ratio");
  res.add("cache.evictions",
          static_cast<double>(after.evictions - before.evictions) / n,
          "1/query");
  res.add("cache.ghost_hits",
          static_cast<double>(after.ghost_hits - before.ghost_hits) / n,
          "1/query");
  res.add("cache.dedup_hits",
          static_cast<double>(after.dedup_hits - before.dedup_hits) / n,
          "1/query");
}

void add_io_core_metrics(Result& res, std::size_t queries,
                         const core::QueryStats& total, std::size_t workers,
                         double cpu_s, double wall_s, double query_s) {
  const auto n = static_cast<double>(queries);
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const double em_s = total.seconds;
  res.add("io.requests", d(total.io_requests) / n, "1/query");
  res.add("io.pages_per_request",
          total.io_requests ? d(total.pages_read) / d(total.io_requests) : 0,
          "pages");
  res.add("io.inflight_peak", d(total.inflight_peak), "count");
  res.add("io.buffer_stall_s", d(total.buffer_stall_ns) * 1e-9 / n, "s");
  res.add("io.retries", d(total.retries), "count");
  res.add("io.wait_frac",
          em_s > 0 ? d(total.io_wait_ns) * 1e-9 /
                         (static_cast<double>(workers) * em_s)
                   : 0,
          "ratio");
  res.add("core.edge_map_s", em_s / n, "s");
  res.add("core.outside_edge_map_s", (query_s - em_s) / n, "s");
  res.add("core.scatter_edges_per_s",
          em_s > 0 ? d(total.edges_scattered) / em_s : 0, "1/s");
  res.add("core.bin_ratio",
          total.edges_scattered
              ? d(total.records_binned) / d(total.edges_scattered)
              : 0,
          "ratio");
  res.add("core.cpu_util",
          cpu_s / (wall_s * std::max(1u, std::thread::hardware_concurrency())),
          "ratio");
  res.add("core.edge_map_calls", d(total.edge_map_calls) / n, "1/query");
  res.add("core.us_per_edge_map_call",
          total.edge_map_calls ? em_s * 1e6 / d(total.edge_map_calls) : 0,
          "us");
}

void finish_trace(Result& res, const SpanLog& spans, const Options& opt) {
  std::filesystem::create_directories(kWorkDir);
  const std::string path = std::string(kWorkDir) + "/trace-" +
                           opt.workload + "-seed" + std::to_string(opt.seed) +
                           ".json";
  if (!spans.write(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  } else {
    std::printf("spans written to %s\n", path.c_str());
  }
  res.add("trace.spans", static_cast<double>(spans.size()), "count");
  for (const auto& t : spans.totals()) {
    res.add("trace.self_s." + t.name,
            t.self_s / static_cast<double>(t.count), "s");
  }
}

}  // namespace perfbench
