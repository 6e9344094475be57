// Additional EdgeMap engine edge cases: page-boundary alignment, zero-
// degree frontiers, binned/sync equivalence sweeps, stats accumulation,
// and option handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/programs.h"
#include "algorithms/radii.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "baselines/inmem.h"
#include "core/edge_map.h"
#include "core/edge_map_pull.h"
#include "core/runtime.h"
#include "device/mem_device.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "graph/weighted.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace blaze::core {
namespace {

/// Commutative accumulation program used for equivalence checks.
struct CountProgram {
  using value_type = std::uint32_t;
  std::vector<std::uint32_t>& acc;

  value_type scatter(vertex_t, vertex_t) const { return 1; }
  bool cond(vertex_t) const { return true; }
  bool gather(vertex_t d, value_type v) {
    acc[d] += v;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    std::atomic_ref<std::uint32_t>(acc[d]).fetch_add(
        v, std::memory_order_relaxed);
    return true;
  }
};

std::vector<std::uint32_t> in_degrees(const graph::Csr& g) {
  std::vector<std::uint32_t> want(g.num_vertices(), 0);
  for (vertex_t d : g.edges()) ++want[d];
  return want;
}

TEST(EdgeMapExtra, PageAlignedAdjacencyBoundaries) {
  // Vertices whose lists are exactly one page (1024 u32 neighbors) force
  // every boundary case: list == page, list starts at page start, list
  // ends at page end.
  const vertex_t n = 4096;
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t u = 0; u < 4; ++u) {
    for (vertex_t k = 0; k < 1024; ++k) {
      edges.emplace_back(u, (u * 1024 + k) % n);
    }
  }
  graph::Csr g = graph::build_csr(n, edges);
  ASSERT_EQ(g.degree(0), 1024u);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());

  std::vector<std::uint32_t> acc(n, 0);
  CountProgram prog{acc};
  edge_map(rt, odg, VertexSubset::all(n), prog, {});
  EXPECT_EQ(acc, in_degrees(g));
}

TEST(EdgeMapExtra, FrontierOfOnlyZeroDegreeVertices) {
  std::vector<std::pair<vertex_t, vertex_t>> edges = {{0, 1}};
  graph::Csr g = graph::build_csr(10, edges);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());

  VertexSubset frontier(10);
  for (vertex_t v = 2; v < 10; ++v) frontier.add(v);  // all degree 0
  std::vector<std::uint32_t> acc(10, 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  VertexSubset out = edge_map(rt, odg, frontier, prog, opts);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.edges_scattered, 0u);
}

TEST(EdgeMapExtra, OutputFalseSkipsFrontierConstruction) {
  graph::Csr g = graph::generate_rmat(9, 8, 900);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  CountProgram prog{acc};
  EdgeMapOptions opts;
  opts.output = false;
  VertexSubset out =
      edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  EXPECT_TRUE(out.empty());               // no members materialized
  EXPECT_EQ(acc, in_degrees(g));          // but all updates applied
}

struct EquivalenceParam {
  const char* graph_kind;
  std::size_t devices;
};

class SyncBinnedEquivalence
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(SyncBinnedEquivalence, SameAccumulationBothModes) {
  const auto& p = GetParam();
  graph::Csr g;
  if (std::string(p.graph_kind) == "rmat") {
    g = graph::generate_rmat(10, 8, 901);
  } else if (std::string(p.graph_kind) == "uniform") {
    g = graph::generate_uniform(1500, 18000, 902);
  } else {
    g = graph::generate_weblike(1500, 12, 903);
  }
  auto odg = format::make_mem_graph(g, p.devices);

  std::vector<std::uint32_t> binned(g.num_vertices(), 0);
  std::vector<std::uint32_t> synced(g.num_vertices(), 0);
  {
    Runtime rt(testutil::test_config(4));
    CountProgram prog{binned};
    edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, {});
  }
  {
    auto cfg = testutil::test_config(4);
    cfg.sync_mode = true;
    Runtime rt(cfg);
    CountProgram prog{synced};
    edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, {});
  }
  EXPECT_EQ(binned, synced);
  EXPECT_EQ(binned, in_degrees(g));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SyncBinnedEquivalence,
    ::testing::Values(EquivalenceParam{"rmat", 1},
                      EquivalenceParam{"rmat", 3},
                      EquivalenceParam{"uniform", 1},
                      EquivalenceParam{"weblike", 2}),
    [](const auto& info) {
      return std::string(info.param.graph_kind) + "_d" +
             std::to_string(info.param.devices);
    });

TEST(EdgeMapExtra, StatsAccumulateAcrossCalls) {
  graph::Csr g = graph::generate_rmat(9, 8, 904);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config());
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  auto bytes_once = stats.bytes_read;
  edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  EXPECT_EQ(stats.edge_map_calls, 2u);
  EXPECT_EQ(stats.bytes_read, 2 * bytes_once);
}

TEST(EdgeMapExtra, SimulatedContentionSlowsSyncMode) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "timing assertion: sanitizer instrumentation overhead "
                  "swamps the modeled contention delta";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  GTEST_SKIP() << "timing assertion: sanitizer instrumentation overhead "
                  "swamps the modeled contention delta";
#endif
#endif
  graph::Csr g = graph::generate_rmat(10, 8, 905);
  auto odg = format::make_mem_graph(g);
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);

  auto run_with = [&](std::uint64_t contention_ns) {
    auto cfg = testutil::test_config(2);
    cfg.sync_mode = true;
    cfg.sim_atomic_contention_ns = contention_ns;
    Runtime rt(cfg);
    std::fill(acc.begin(), acc.end(), 0);
    CountProgram prog{acc};
    QueryStats stats;
    EdgeMapOptions opts;
    opts.stats = &stats;
    edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
    return stats.seconds;
  };
  // Min-of-3 filters scheduler hiccups on a loaded 1-core host: a single
  // stalled baseline run would otherwise dwarf the modeled contention.
  auto min_of = [&](std::uint64_t contention_ns) {
    double best = run_with(contention_ns);
    for (int i = 0; i < 2; ++i) best = std::min(best, run_with(contention_ns));
    return best;
  };
  double fast = min_of(0);
  double slow = min_of(200);
  // ~8M edges * 200ns of modeled contention must dominate the baseline.
  EXPECT_GT(slow, fast * 2);
  EXPECT_EQ(acc, in_degrees(g));  // and results stay correct
}

/// Stored-weight distances agree with the oracle up to float rounding.
void expect_dist_near(const std::vector<float>& got,
                      const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isinf(want[i])) {
      EXPECT_TRUE(std::isinf(got[i])) << i;
    } else {
      EXPECT_NEAR(got[i], want[i], 1e-3f * (1.0f + want[i])) << i;
    }
  }
}

TEST(EdgeMapExtra, WorkerAndBinSweepMatchesInMemory) {
  // Every worker both scatters and gathers, and bins own contiguous
  // destination ranges; BFS, PR, WCC and SSSP (synthesized and stored
  // weights) must match the in-memory oracles at any worker count
  // (including more workers than cores) and bin count (one bin, fewer bins
  // than workers, about one vertex per bin), with a 2 kB bin space that
  // forces constant rotation, and in sync mode. WCC and both SSSPs also
  // run under the async scheduler.
  graph::Csr g = graph::generate_rmat(10, 8, 906);
  graph::Csr gt = graph::transpose(g);
  graph::WeightedCsr wg = graph::attach_random_weights(g, 909);
  auto out_g = format::make_mem_graph(g);
  auto in_g = format::make_mem_graph(gt);
  auto w_g = format::make_mem_graph(wg);
  const auto want_bfs = baseline::inmem::bfs_dist(g, 0);
  const auto want_pr = baseline::inmem::pagerank_delta(g, 0.85, 1e-3, 20);
  const auto want_wcc = baseline::inmem::wcc(g);
  const auto want_sssp = baseline::inmem::sssp_dist(g, 0);
  const auto want_wsssp = baseline::inmem::sssp_dist_weighted(wg, 0);

  struct Case {
    std::size_t bin_count;
    std::size_t bin_space_bytes;
    bool sync_mode;
  };
  const Case cases[] = {{1, 1 << 20, false},
                        {8, 1 << 20, false},
                        {1024, 1 << 20, false},
                        {8, 2048, false},
                        {64, 1 << 20, true}};
  for (const std::size_t workers : {1, 2, 3, 4, 8}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << workers << " workers, " << c.bin_count << " bins, "
                   << c.bin_space_bytes << " B bin space"
                   << (c.sync_mode ? ", sync mode" : ""));
      auto cfg = testutil::test_config(workers, c.bin_count);
      cfg.bin_space_bytes = c.bin_space_bytes;
      cfg.sync_mode = c.sync_mode;
      Runtime rt(cfg);

      const auto bfs = algorithms::bfs(rt, out_g, 0);
      for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        const vertex_t p = bfs.parent[v];
        if (want_bfs[v] == ~0u) {
          ASSERT_EQ(p, kInvalidVertex) << v;
        } else if (v != 0) {
          ASSERT_NE(p, kInvalidVertex) << v;
          ASSERT_EQ(want_bfs[p] + 1, want_bfs[v]) << v;
          const auto nbrs = g.neighbors(p);
          ASSERT_NE(std::find(nbrs.begin(), nbrs.end(), v), nbrs.end()) << v;
        }
      }

      const auto pr = algorithms::pagerank(
          rt, out_g, {.epsilon = 1e-3, .max_iterations = 20});
      double err = 0, norm = 0;
      for (std::size_t i = 0; i < want_pr.size(); ++i) {
        err += std::fabs(pr.rank[i] - want_pr[i]);
        norm += std::fabs(want_pr[i]);
      }
      EXPECT_LT(err / norm, 1e-3);

      EXPECT_EQ(algorithms::wcc(rt, out_g, in_g).ids, want_wcc);
      EXPECT_EQ(algorithms::sssp(rt, out_g, 0).dist, want_sssp);
      expect_dist_near(algorithms::sssp_weighted(rt, w_g, 0).dist,
                       want_wsssp);

      cfg.execution_mode = ExecutionMode::kAsync;
      Runtime async_rt(cfg);
      EXPECT_EQ(algorithms::wcc(async_rt, out_g, in_g).ids, want_wcc);
      EXPECT_EQ(algorithms::sssp(async_rt, out_g, 0).dist, want_sssp);
      expect_dist_near(algorithms::sssp_weighted(async_rt, w_g, 0).dist,
                       want_wsssp);
    }
  }
}

TEST(EdgeMapExtra, GatherSideCountMatchesOutputBitmap) {
  // Gather adds activated vertices to the output's count once per bin
  // buffer (binned) or per worker (sync), not per vertex; the count must
  // still equal the number of set bits after a 4-worker EdgeMap.
  graph::Csr g = graph::generate_rmat(12, 8, 910);
  auto odg = format::make_mem_graph(g);
  const vertex_t n = g.num_vertices();
  auto popcount = [n](const VertexSubset& s) {
    std::size_t bits = 0;
    for (vertex_t v = 0; v < n; ++v) bits += s.contains(v);
    return bits;
  };
  for (const bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "sync mode" : "binned");
    auto cfg = testutil::test_config(4);
    cfg.sync_mode = sync;
    Runtime rt(cfg);

    std::vector<vertex_t> parent(n, kInvalidVertex);
    parent[0] = 0;
    algorithms::BfsProgram bfs{parent};
    VertexSubset frontier = VertexSubset::single(n, 0);
    for (int round = 0; round < 3 && !frontier.empty(); ++round) {
      frontier = edge_map(rt, odg, frontier, bfs, {});
      EXPECT_EQ(frontier.count(), popcount(frontier)) << round;
    }
    EXPECT_GT(frontier.count(), 0u);

    std::vector<std::uint32_t> dist(n, algorithms::kInfDist);
    for (vertex_t v = 0; v < n; v += 3) dist[v] = v % 64;
    algorithms::SsspProgram sssp{dist};
    const VertexSubset out = edge_map(rt, odg, VertexSubset::all(n), sssp, {});
    EXPECT_GT(out.count(), 0u);
    EXPECT_EQ(out.count(), popcount(out));
  }
}

// ---------------------------------------------------------------- pre-bin
// prune (Program::improves). The "Prune" tests run at 4 workers in binned,
// sync and async modes and are also run by name under TSan: improves()
// reads vertex state that other workers' gathers write.

TEST(EdgeMapPrune, MonotoneProgramsBinFewerRecordsThanEdges) {
  graph::Csr g = graph::generate_rmat(12, 8, 911);
  graph::Csr gt = graph::transpose(g);
  auto out_g = format::make_mem_graph(g);
  auto in_g = format::make_mem_graph(gt);
  Runtime rt(testutil::test_config(4));

  const auto wcc = algorithms::wcc(rt, out_g, in_g);
  EXPECT_EQ(wcc.ids, baseline::inmem::wcc(g));
  EXPECT_GT(wcc.stats.records_binned, 0u);
  EXPECT_LT(wcc.stats.records_binned, wcc.stats.edges_scattered);

  const auto sssp = algorithms::sssp(rt, out_g, 0);
  EXPECT_EQ(sssp.dist, baseline::inmem::sssp_dist(g, 0));
  EXPECT_GT(sssp.stats.records_binned, 0u);
  EXPECT_LT(sssp.stats.records_binned, sssp.stats.edges_scattered);
}

TEST(EdgeMapPrune, ProgramsWithoutHookBinEveryEdge) {
  graph::Csr g = graph::generate_rmat(12, 8, 912);
  auto odg = format::make_mem_graph(g);
  Runtime rt(testutil::test_config(4));

  static_assert(!PrunesUpdates<algorithms::PrProgram>);
  const auto pr = algorithms::pagerank(
      rt, odg, {.epsilon = 1e-3, .max_iterations = 5});
  EXPECT_GT(pr.stats.edges_scattered, 0u);
  EXPECT_EQ(pr.stats.records_binned, pr.stats.edges_scattered);

  static_assert(!PrunesUpdates<CountProgram>);
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  EXPECT_EQ(acc, in_degrees(g));
  EXPECT_EQ(stats.records_binned, stats.edges_scattered);
}

TEST(EdgeMapPrune, FourWorkersMatchInMemoryInEveryMode) {
  // The pruned queries in each execution mode at 4 workers: binned and
  // sync BSP, and the async scheduler over binned and sync EdgeMaps.
  graph::Csr g = graph::generate_rmat(11, 8, 913);
  graph::Csr gt = graph::transpose(g);
  graph::WeightedCsr wg = graph::attach_random_weights(g, 914);
  auto out_g = format::make_mem_graph(g);
  auto in_g = format::make_mem_graph(gt);
  auto w_g = format::make_mem_graph(wg);
  const auto want_wcc = baseline::inmem::wcc(g);
  const auto want_sssp = baseline::inmem::sssp_dist(g, 0);
  const auto want_wsssp = baseline::inmem::sssp_dist_weighted(wg, 0);

  for (const bool sync : {false, true}) {
    for (const auto mode : {ExecutionMode::kBsp, ExecutionMode::kAsync}) {
      SCOPED_TRACE(::testing::Message()
                   << (sync ? "sync" : "binned") << ", "
                   << (mode == ExecutionMode::kAsync ? "async" : "bsp"));
      auto cfg = testutil::test_config(4);
      cfg.sync_mode = sync;
      cfg.execution_mode = mode;
      Runtime rt(cfg);
      EXPECT_EQ(algorithms::wcc(rt, out_g, in_g).ids, want_wcc);
      EXPECT_EQ(algorithms::sssp(rt, out_g, 0).dist, want_sssp);
      expect_dist_near(algorithms::sssp_weighted(rt, w_g, 0).dist,
                       want_wsssp);
      if (mode == ExecutionMode::kBsp) {
        const auto radii = algorithms::radii(rt, out_g, /*seed=*/7);
        EXPECT_EQ(radii.radii, baseline::inmem::radii_from_sources(
                                   g, radii.sources));
      }
    }
  }
}

/// Bytes of the LEB128 varint encoding `x`.
std::uint64_t varint_bytes(std::uint32_t x) {
  std::uint64_t n = 1;
  while (x >= 0x80) {
    x >>= 7;
    ++n;
  }
  return n;
}

TEST(EdgeMapExtra, PushAndPullHonourTruncatedFinalPage) {
  // An adjacency device cut in the middle of its final page: the reader
  // clamps the tail request and zero-fills the rest of the buffer. Push
  // and pull must decode exactly the edges whose bytes lie before the cut
  // (no dst-0 phantoms from the zero fill, no gap-0 repeats in dvarint),
  // so both visit the same edge count.
  graph::Csr g = graph::generate_rmat(10, 8, 908);
  for (const auto encoding : {format::AdjacencyEncoding::kFlat,
                              format::AdjacencyEncoding::kDeltaVarint}) {
    SCOPED_TRACE(encoding == format::AdjacencyEncoding::kFlat ? "flat"
                                                              : "dvarint");
    auto full = format::make_mem_graph(g, 1, encoding);
    const format::GraphIndex& index = full.index();
    const std::uint64_t total = index.total_adjacency_bytes();
    const std::uint64_t last_page = (total - 1) / kPageSize * kPageSize;
    // Odd offset: the cut also splits a flat record and, likely, a varint.
    const std::uint64_t cut = last_page + (total - last_page) / 2 + 1;
    ASSERT_LT(cut, total);
    std::vector<std::byte> bytes(cut);
    full.device().read(0, bytes);
    format::OnDiskGraph truncated(
        index, std::make_shared<device::MemDevice>("cut", std::move(bytes)));

    // Oracle: per-destination and per-source counts of the edges whose
    // encoded bytes end at or before the cut, in on-disk list order.
    const graph::Csr lists = format::decode_to_csr(full);
    const vertex_t n = g.num_vertices();
    std::vector<std::uint32_t> want_by_dst(n, 0), want_by_src(n, 0);
    std::uint64_t want_edges = 0;
    for (vertex_t v = 0; v < n; ++v) {
      std::uint64_t end = index.byte_offset(v);
      vertex_t prev = 0;
      bool first = true;
      for (const vertex_t d : lists.neighbors(v)) {
        end += encoding == format::AdjacencyEncoding::kFlat
                   ? sizeof(vertex_t)
                   : varint_bytes(first ? d : d - prev);
        prev = d;
        first = false;
        if (end > cut) break;
        ++want_by_dst[d];
        ++want_by_src[v];
        ++want_edges;
      }
    }
    ASSERT_LT(want_edges, g.num_edges());

    Runtime rt(testutil::test_config());
    const auto all = VertexSubset::all(n);
    std::vector<std::uint32_t> push_acc(n, 0);
    CountProgram push_prog{push_acc};
    QueryStats push_stats;
    EdgeMapOptions push_opts;
    push_opts.stats = &push_stats;
    edge_map(rt, truncated, all, push_prog, push_opts);
    EXPECT_EQ(push_stats.edges_scattered, want_edges);
    EXPECT_EQ(push_acc, want_by_dst);

    // Pull reads the same lists as in-adjacency: the list owner is the
    // destination it accumulates into.
    std::vector<std::uint32_t> pull_acc(n, 0);
    CountProgram pull_prog{pull_acc};
    QueryStats pull_stats;
    EdgeMapOptions pull_opts;
    pull_opts.stats = &pull_stats;
    edge_map_pull(rt, truncated, all, all, pull_prog, pull_opts);
    EXPECT_EQ(pull_stats.edges_scattered, want_edges);
    EXPECT_EQ(pull_acc, want_by_src);
  }
}

TEST(EdgeMapExtra, TinyBinSpaceForcesRotationButStaysCorrect) {
  graph::Csr g = graph::generate_rmat(10, 8, 907);
  auto odg = format::make_mem_graph(g);
  auto cfg = testutil::test_config(4, /*bin_count=*/8);
  cfg.bin_space_bytes = 2048;  // 8 bins x 2 buffers x 16 records
  Runtime rt(cfg);
  std::vector<std::uint32_t> acc(g.num_vertices(), 0);
  CountProgram prog{acc};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  edge_map(rt, odg, VertexSubset::all(g.num_vertices()), prog, opts);
  EXPECT_EQ(acc, in_degrees(g));
  EXPECT_EQ(stats.records_binned, g.num_edges());
}

}  // namespace
}  // namespace blaze::core
