// Micro-benchmarks (google-benchmark) for the design choices DESIGN.md
// calls out: the MPMC queue, online binning vs atomic updates, the
// indirection index vs flat offsets, and the simulated-device model
// overhead.
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/bins.h"
#include "device/simulated_ssd.h"
#include "format/graph_index.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "graph/generators.h"
#include "util/mpmc_queue.h"
#include "util/rng.h"

namespace {

using namespace blaze;

// ------------------------------------------------------------------- MPMC

void BM_MpmcQueuePushPop(benchmark::State& state) {
  MpmcQueue<std::uint64_t> q(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    q.push(v++);
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MpmcQueuePushPop);

// ------------------------------------------------- binning vs atomic CAS

/// The ablation behind Figure 8 at micro scale: scatter a stream of
/// (dst, value) updates through the bins, then gather — versus applying
/// each with an atomic fetch_add.
void BM_OnlineBinningScatterGather(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const auto updates = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> acc(n, 0);
  std::vector<vertex_t> dsts(updates);
  Xoshiro256 rng(1);
  for (auto& d : dsts) d = static_cast<vertex_t>(rng.next_below(n));

  core::BinSet bins(1024, 8u << 20);
  for (auto _ : state) {
    bins.reset();
    core::ScatterBuffer sbuf(bins.bin_count());
    auto drain = [&] {
      while (auto ref = bins.pop_full()) {
        for (const core::BinRecord& r : bins.records(*ref)) {
          acc[r.dst] += r.value;
        }
        bins.complete(*ref);
      }
    };
    for (auto d : dsts) sbuf.append(bins, d, 1, drain);
    sbuf.flush_all(bins, drain);
    bins.scatter_done(1);
    bins.seal(drain);
    drain();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * updates));
}
BENCHMARK(BM_OnlineBinningScatterGather)->Arg(1 << 18);

void BM_AtomicScatterGather(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const auto updates = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> acc(n, 0);
  std::vector<vertex_t> dsts(updates);
  Xoshiro256 rng(1);
  for (auto& d : dsts) d = static_cast<vertex_t>(rng.next_below(n));

  for (auto _ : state) {
    for (auto d : dsts) {
      std::atomic_ref<std::uint32_t>(acc[d]).fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * updates));
}
BENCHMARK(BM_AtomicScatterGather)->Arg(1 << 18);

// -------------------------------------------- index: indirection vs flat

void BM_IndirectionIndexLookup(benchmark::State& state) {
  graph::Csr g = graph::generate_rmat(16, 8, 42);
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  format::GraphIndex idx(degrees);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    auto v = static_cast<vertex_t>(rng.next_below(g.num_vertices()));
    benchmark::DoNotOptimize(idx.byte_offset(v));
  }
  state.counters["bytes_per_vertex"] =
      static_cast<double>(idx.memory_bytes()) / g.num_vertices();
}
BENCHMARK(BM_IndirectionIndexLookup);

void BM_FlatOffsetLookup(benchmark::State& state) {
  graph::Csr g = graph::generate_rmat(16, 8, 42);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    auto v = static_cast<vertex_t>(rng.next_below(g.num_vertices()));
    benchmark::DoNotOptimize(g.offset(v));
  }
  state.counters["bytes_per_vertex"] =
      static_cast<double>(sizeof(std::uint64_t));
}
BENCHMARK(BM_FlatOffsetLookup);

// ------------------------------------------- page scan: flat vs dvarint

/// Full-page scans over a power-law graph's adjacency, every source
/// active — the scatter worker's hot loop. The bytes_per_edge counter is
/// what the decode cost buys: fewer on-disk (and cached) bytes per edge.
void BM_ScanPageFlat(benchmark::State& state) {
  graph::Csr g = graph::generate_rmat(13, 16, 43);
  auto odg = format::make_mem_graph(g);
  std::vector<std::byte> page(kPageSize);
  std::uint64_t p = 0;
  for (auto _ : state) {
    odg.device().read((p % odg.num_pages()) * kPageSize, page);
    std::uint64_t edges = format::scan_page(
        odg.index(), odg.page_map(), p % odg.num_pages(), page.data(),
        [](vertex_t) { return true; },
        [](vertex_t, vertex_t dst) { benchmark::DoNotOptimize(dst); });
    benchmark::DoNotOptimize(edges);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(edges));
    ++p;
  }
  state.counters["bytes_per_edge"] = odg.bytes_per_edge();
}
BENCHMARK(BM_ScanPageFlat);

void BM_ScanPageDvarint(benchmark::State& state) {
  graph::Csr g = graph::generate_rmat(13, 16, 43);
  auto odg =
      format::make_mem_graph(g, 1, format::AdjacencyEncoding::kDeltaVarint);
  std::vector<std::byte> page(kPageSize);
  std::uint64_t p = 0;
  for (auto _ : state) {
    odg.device().read((p % odg.num_pages()) * kPageSize, page);
    std::uint64_t edges = format::scan_page(
        odg.index(), odg.page_map(), p % odg.num_pages(), page.data(),
        [](vertex_t) { return true; },
        [](vertex_t, vertex_t dst) { benchmark::DoNotOptimize(dst); });
    benchmark::DoNotOptimize(edges);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(edges));
    ++p;
  }
  state.counters["bytes_per_edge"] = odg.bytes_per_edge();
}
BENCHMARK(BM_ScanPageDvarint);

// ------------------------------------------------------ device model cost

void BM_SimulatedSsdBookkeeping(benchmark::State& state) {
  device::SimulatedSsd ssd("b", 64u << 20, device::optane_p4800x());
  ssd.set_no_wait(true);
  std::vector<std::byte> buf(kPageSize);
  Xoshiro256 rng(3);
  const std::uint64_t pages = ssd.size() / kPageSize;
  for (auto _ : state) {
    ssd.read(rng.next_below(pages) * kPageSize, buf);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * kPageSize));
}
BENCHMARK(BM_SimulatedSsdBookkeeping);

}  // namespace

BENCHMARK_MAIN();
