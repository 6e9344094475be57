// Direction-optimized EdgeMap (extension) tests: pull-mode correctness
// against push mode and the oracle, hybrid switching behaviour, and the
// page-spanning-destination race that forces pull to use atomics.
#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/programs.h"
#include "core/edge_map_pull.h"
#include "core/runtime.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "test_helpers.h"

namespace blaze::core {
namespace {

struct GraphPair {
  graph::Csr g;
  graph::Csr gt;
  format::OnDiskGraph out_g;
  format::OnDiskGraph in_g;
};

GraphPair make_pair(graph::Csr g, std::size_t devices = 1) {
  GraphPair p{std::move(g), {}, {}, {}};
  p.gt = graph::transpose(p.g);
  p.out_g = format::make_mem_graph(p.g, devices);
  p.in_g = format::make_mem_graph(p.gt, devices);
  return p;
}

TEST(PullEdgeMap, OneRoundMatchesPush) {
  auto p = make_pair(graph::generate_rmat(10, 8, 1100));
  const vertex_t n = p.g.num_vertices();
  Runtime rt(testutil::test_config());

  // One BFS round from a dense frontier, both directions.
  auto run_round = [&](bool pull) {
    std::vector<vertex_t> parent(n, kInvalidVertex);
    VertexSubset frontier(n);
    for (vertex_t v = 0; v < n; v += 2) {
      frontier.add(v);
      parent[v] = v;  // mark frontier as visited
    }
    algorithms::BfsProgram prog{parent};
    VertexSubset out(n);
    if (pull) {
      VertexSubset candidates(n);
      for (vertex_t v = 1; v < n; v += 2) candidates.add(v);
      out = edge_map_pull(rt, p.in_g, frontier, candidates, prog, {});
    } else {
      out = edge_map(rt, p.out_g, frontier, prog, {});
    }
    // Return the visited set (parents differ between directions since any
    // frontier in-neighbor is a valid parent; the *set* must agree).
    std::vector<bool> visited(n);
    for (vertex_t v = 0; v < n; ++v) {
      visited[v] = parent[v] != kInvalidVertex;
    }
    return visited;
  };
  EXPECT_EQ(run_round(false), run_round(true));
}

TEST(PullEdgeMap, ParentsAreValidFrontierMembers) {
  auto p = make_pair(graph::generate_rmat(9, 8, 1101));
  const vertex_t n = p.g.num_vertices();
  Runtime rt(testutil::test_config());

  std::vector<vertex_t> parent(n, kInvalidVertex);
  VertexSubset frontier(n);
  for (vertex_t v = 0; v < n; v += 3) {
    frontier.add(v);
    parent[v] = v;
  }
  VertexSubset candidates(n);
  for (vertex_t v = 0; v < n; ++v) {
    if (v % 3 != 0) candidates.add(v);
  }
  algorithms::BfsProgram prog{parent};
  edge_map_pull(rt, p.in_g, frontier, candidates, prog, {});
  for (vertex_t d = 0; d < n; ++d) {
    if (d % 3 == 0 || parent[d] == kInvalidVertex) continue;
    EXPECT_TRUE(frontier.contains(parent[d])) << d;
    // parent[d] must actually have the edge parent->d.
    auto nbrs = p.g.neighbors(parent[d]);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), d), nbrs.end()) << d;
  }
}

TEST(PullEdgeMap, HubDestinationSpanningPages) {
  // One destination with thousands of in-neighbors spans many transpose
  // pages: concurrent workers must claim it exactly once via CAS.
  const vertex_t n = 20000;
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t v = 1; v < n; ++v) edges.emplace_back(v, 0);
  edges.emplace_back(0, 1);
  auto p = make_pair(graph::build_csr(n, edges));
  Runtime rt(testutil::test_config(4));

  std::vector<vertex_t> parent(n, kInvalidVertex);
  VertexSubset frontier(n);
  for (vertex_t v = 1; v < n; ++v) {
    frontier.add(v);
    parent[v] = v;
  }
  VertexSubset candidates = VertexSubset::single(n, 0);
  algorithms::BfsProgram prog{parent};
  VertexSubset out = edge_map_pull(rt, p.in_g, frontier, candidates, prog,
                                   {});
  EXPECT_EQ(out.count(), 1u);
  EXPECT_NE(parent[0], kInvalidVertex);
  EXPECT_TRUE(frontier.contains(parent[0]));
}

TEST(PullEdgeMap, FlatAndDvarintRoundsAgree) {
  // transpose() emits every in-list sorted, so the flat and dvarint layouts
  // of the transpose store the same list order. One worker keeps the early
  // exit deterministic: both layouts must activate the same destinations,
  // pick the same parents and scan the same number of edges.
  const graph::Csr g = graph::generate_rmat(10, 8, 1108);
  const graph::Csr gt = graph::transpose(g);
  const vertex_t n = g.num_vertices();
  Runtime rt(testutil::test_config(1));
  struct Round {
    std::vector<vertex_t> parent;
    std::vector<bool> activated;
    std::uint64_t edges_scattered = 0;
  };
  auto run_round = [&](format::AdjacencyEncoding encoding) {
    auto in_g = format::make_mem_graph(gt, 1, encoding);
    Round r;
    r.parent.assign(n, kInvalidVertex);
    VertexSubset frontier(n), candidates(n);
    for (vertex_t v = 0; v < n; ++v) {
      if (v % 3 == 0) {
        frontier.add(v);
        r.parent[v] = v;
      } else {
        candidates.add(v);
      }
    }
    algorithms::BfsProgram prog{r.parent};
    QueryStats stats;
    EdgeMapOptions opts;
    opts.stats = &stats;
    VertexSubset out =
        edge_map_pull(rt, in_g, frontier, candidates, prog, opts);
    for (vertex_t v = 0; v < n; ++v) r.activated.push_back(out.contains(v));
    r.edges_scattered = stats.edges_scattered;
    return r;
  };
  const Round flat = run_round(format::AdjacencyEncoding::kFlat);
  const Round dv = run_round(format::AdjacencyEncoding::kDeltaVarint);
  std::uint64_t candidate_in_edges = 0;
  for (vertex_t v = 0; v < n; ++v) {
    if (v % 3 != 0) candidate_in_edges += gt.degree(v);
  }
  EXPECT_GT(flat.edges_scattered, 0u);
  EXPECT_LT(flat.edges_scattered, candidate_in_edges);  // early exit fired
  EXPECT_EQ(dv.edges_scattered, flat.edges_scattered);
  EXPECT_EQ(dv.activated, flat.activated);
  EXPECT_EQ(dv.parent, flat.parent);
}

TEST(HybridBfs, MatchesPushOnlyBfs) {
  for (const char* kind : {"rmat", "uniform", "web"}) {
    graph::Csr g;
    if (std::string(kind) == "rmat") g = graph::generate_rmat(10, 8, 1102);
    else if (std::string(kind) == "uniform")
      g = graph::generate_uniform(2000, 24000, 1103);
    else g = graph::generate_weblike(3000, 12, 1104);
    auto p = make_pair(std::move(g));
    Runtime rt(testutil::test_config());

    auto push = algorithms::bfs(rt, p.out_g, 0);
    auto hybrid = algorithms::bfs_hybrid(rt, p.out_g, p.in_g, 0);
    ASSERT_EQ(push.iterations, hybrid.iterations) << kind;
    auto dist = testutil::reference_bfs_dist(p.g, 0);
    for (vertex_t v = 0; v < p.g.num_vertices(); ++v) {
      EXPECT_EQ(hybrid.parent[v] == kInvalidVertex, dist[v] == ~0u)
          << kind << " " << v;
    }
  }
}

TEST(HybridBfs, UsesPullOnDenseRounds) {
  // A dense power-law graph drives mid-BFS frontiers over |E|/20.
  auto p = make_pair(graph::generate_rmat(11, 16, 1105));
  Runtime rt(testutil::test_config());
  auto hybrid = algorithms::bfs_hybrid(rt, p.out_g, p.in_g, 0);
  EXPECT_GT(hybrid.pull_iterations, 0u);
  EXPECT_LT(hybrid.pull_iterations, hybrid.iterations);
}

TEST(HybridBfs, ThresholdDisablesPull) {
  auto p = make_pair(graph::generate_rmat(10, 8, 1106));
  Runtime rt(testutil::test_config());
  // threshold_div = 1 means pull only when frontier edges > |E|: never.
  auto r = algorithms::bfs_hybrid(rt, p.out_g, p.in_g, 0, 1);
  EXPECT_EQ(r.pull_iterations, 0u);
}

TEST(PullEdgeMap, EmptyCandidatesShortCircuits) {
  auto p = make_pair(graph::generate_rmat(8, 4, 1107));
  Runtime rt(testutil::test_config());
  std::vector<vertex_t> parent(p.g.num_vertices(), kInvalidVertex);
  algorithms::BfsProgram prog{parent};
  QueryStats stats;
  EdgeMapOptions opts;
  opts.stats = &stats;
  VertexSubset out =
      edge_map_pull(rt, p.in_g, VertexSubset::all(p.g.num_vertices()),
                    VertexSubset(p.g.num_vertices()), prog, opts);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.bytes_read, 0u);
}

}  // namespace
}  // namespace blaze::core
