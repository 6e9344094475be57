// Adversarial on-disk layouts for the page scanner and the engine: degree
// patterns constructed to hit every page-boundary case exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/edge_map.h"
#include "core/runtime.h"
#include "device/mem_device.h"
#include "format/dvarint.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "graph/csr.h"
#include "test_helpers.h"

namespace blaze::format {
namespace {

constexpr std::size_t kPerPage = kPageSize / sizeof(vertex_t);  // 1024

/// Builds a graph whose vertex v has exactly degrees[v] edges; edge targets
/// are deterministic (v * 31 + k) % n.
graph::Csr from_degrees(const std::vector<std::uint32_t>& degrees) {
  auto n = static_cast<vertex_t>(degrees.size());
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t v = 0; v < n; ++v) {
    for (std::uint32_t k = 0; k < degrees[v]; ++k) {
      edges.emplace_back(v,
                         static_cast<vertex_t>((v * 31ull + k) % n));
    }
  }
  return graph::build_csr(n, edges);
}

std::uint64_t scan_all(const OnDiskGraph& odg,
                       std::map<vertex_t, std::uint64_t>* per_src) {
  std::vector<std::byte> page(kPageSize);
  std::uint64_t total = 0;
  for (std::uint64_t p = 0; p < odg.num_pages(); ++p) {
    odg.device().read(p * kPageSize, page);
    total += scan_page(odg.index(), odg.page_map(), p, page.data(),
                       [](vertex_t) { return true; },
                       [&](vertex_t s, vertex_t) { ++(*per_src)[s]; });
  }
  return total;
}

void expect_exact_cover(const std::vector<std::uint32_t>& degrees) {
  graph::Csr g = from_degrees(degrees);
  auto odg = make_mem_graph(g);
  std::map<vertex_t, std::uint64_t> per_src;
  std::uint64_t total = scan_all(odg, &per_src);
  EXPECT_EQ(total, g.num_edges());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(per_src[v], degrees[v]) << "vertex " << v;
  }
}

TEST(PageLayoutAdversarial, ListExactlyOnePage) {
  expect_exact_cover({kPerPage, 3, kPerPage, 5});
}

TEST(PageLayoutAdversarial, ListEndsExactlyAtPageBoundary) {
  // 1000 + 24 fills page 0 exactly; next list starts at page 1 offset 0.
  expect_exact_cover({1000, 24, 7, kPerPage - 7, 2});
}

TEST(PageLayoutAdversarial, ListStraddlesManyPages) {
  expect_exact_cover({5, 3 * kPerPage + 17, 9});
}

TEST(PageLayoutAdversarial, AlternatingEmptyAndHuge) {
  std::vector<std::uint32_t> degrees;
  for (int i = 0; i < 8; ++i) {
    degrees.push_back(0);
    degrees.push_back(static_cast<std::uint32_t>(kPerPage + i));
    degrees.push_back(0);
    degrees.push_back(1);
  }
  expect_exact_cover(degrees);
}

TEST(PageLayoutAdversarial, AllSingletonLists) {
  expect_exact_cover(std::vector<std::uint32_t>(3 * kPerPage, 1));
}

TEST(PageLayoutAdversarial, TrailingZeroDegreeVertices) {
  std::vector<std::uint32_t> degrees(100, 13);
  degrees.resize(300, 0);  // 200 sinks after the last stored byte
  expect_exact_cover(degrees);
}

// ---- Compressed (delta+varint) adversarial layouts ------------------------

/// Decodes every page of a dvarint graph through the fused scanner, pages
/// visited in the order `pages` (any permutation must work — workers decode
/// pages independently via the per-page carries), and returns the multiset
/// of destinations per source.
std::map<vertex_t, std::multiset<vertex_t>> dvarint_scan_pages(
    const OnDiskGraph& odg, const std::vector<std::uint64_t>& pages,
    std::uint64_t* total) {
  std::map<vertex_t, std::multiset<vertex_t>> got;
  std::vector<std::byte> page(kPageSize);
  *total = 0;
  for (std::uint64_t p : pages) {
    odg.device().read(p * kPageSize, page);
    *total += scan_page(
        odg.index(), odg.page_map(), p, page.data(),
        [](vertex_t) { return true; },
        [&](vertex_t s, vertex_t d) {
          got[s].insert(d);
          return true;
        });
  }
  return got;
}

/// Builds the dvarint layout of `g` and checks the fused scan reproduces
/// every list exactly (as a multiset — the encoding sorts each list), in
/// forward and in reverse page order.
void expect_dvarint_exact(const graph::Csr& g) {
  auto odg = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  std::vector<std::uint64_t> fwd(odg.num_pages());
  for (std::uint64_t p = 0; p < fwd.size(); ++p) fwd[p] = p;
  std::vector<std::uint64_t> rev(fwd.rbegin(), fwd.rend());
  for (const auto& order : {fwd, rev}) {
    std::uint64_t total = 0;
    auto got = dvarint_scan_pages(odg, order, &total);
    EXPECT_EQ(total, g.num_edges());
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      auto nb = g.neighbors(v);
      std::multiset<vertex_t> want(nb.begin(), nb.end());
      EXPECT_EQ(got[v], want) << "vertex " << v;
    }
  }
}

TEST(PageLayoutAdversarial, DvarintSmallLists) {
  expect_dvarint_exact(from_degrees({5, 0, 3, 1, 0, 7}));
}

TEST(PageLayoutAdversarial, DvarintVarintSplitsPageBoundary) {
  // Gaps of 16384 need 3-byte varints; 4096 % 3 != 0, so inside a long run
  // some varint must straddle every page boundary. The carry must snapshot
  // the split accumulator (partial_shift != 0) for the decode to resume.
  constexpr std::uint32_t kDeg = 6000;  // ~18 kB encoded, 5 pages
  std::vector<vertex_t> neighbors(kDeg);
  for (std::uint32_t k = 0; k < kDeg; ++k) {
    neighbors[k] = (k + 1) * 16384u;
  }
  graph::Csr g({0, kDeg}, neighbors);
  expect_dvarint_exact(g);

  auto odg = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  bool saw_split_varint = false;
  for (std::uint64_t p = 1; p < odg.num_pages(); ++p) {
    if (odg.index().page_carry(p).partial_shift != 0) {
      saw_split_varint = true;
    }
  }
  EXPECT_TRUE(saw_split_varint)
      << "no page boundary split a varint; the carry path went untested";
}

TEST(PageLayoutAdversarial, DvarintVertexSpansManyPages) {
  // One list of ~13000 one-byte gaps: > 3 pages of encoded bytes, so two
  // interior pages decode entirely from carry state.
  std::vector<std::uint32_t> degrees{5, 13000, 9};
  graph::Csr g = from_degrees(degrees);
  auto odg = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  EXPECT_GE(odg.num_pages(), 3u);
  expect_dvarint_exact(g);
}

TEST(PageLayoutAdversarial, DvarintEmptyListsBetweenHuge) {
  std::vector<std::uint32_t> degrees;
  for (int i = 0; i < 6; ++i) {
    degrees.push_back(0);
    degrees.push_back(static_cast<std::uint32_t>(5000 + i));
    degrees.push_back(0);
    degrees.push_back(0);
    degrees.push_back(1);
  }
  expect_dvarint_exact(from_degrees(degrees));
}

TEST(PageLayoutAdversarial, DvarintDuplicateEdgesGapZero) {
  // build_csr keeps duplicates; sorted duplicates encode as gap 0 and must
  // decode back as the same multiset.
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (int k = 0; k < 300; ++k) edges.emplace_back(0, 7);
  edges.emplace_back(0, 3);
  edges.emplace_back(1, 0);
  expect_dvarint_exact(graph::build_csr(10, edges));
}

/// A run of continuation bytes longer than a uint32 varint (5 bytes) is
/// corrupt: the kernel stops that source's list without shifting past 31
/// bits (undefined behavior the UBSan build traps) and moves on to the
/// next source; the engine scatters the rest of the page; the reference
/// decoder rejects the run.
TEST(PageLayoutAdversarial, DvarintOverlongVarintStopsList) {
  // Vertex 0: neighbors 0..7 -> eight one-byte varints (bytes [0, 8)).
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t d = 0; d < 8; ++d) edges.emplace_back(0, d);
  edges.emplace_back(1, 3);
  edges.emplace_back(1, 5);
  graph::Csr g = graph::build_csr(16, edges);
  auto odg = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  ASSERT_EQ(odg.index().encoded_length(0), 8u);
  auto* mem = dynamic_cast<device::MemDevice*>(&odg.device());
  ASSERT_NE(mem, nullptr);
  std::fill_n(mem->raw().begin(), 8, std::byte{0xFF});

  std::vector<std::byte> page(kPageSize);
  odg.device().read(0, page);
  std::vector<std::pair<vertex_t, vertex_t>> got;
  const std::uint64_t visited = scan_page(
      odg.index(), odg.page_map(), 0, page.data(),
      [](vertex_t) { return true; },
      [&](vertex_t s, vertex_t d) { got.emplace_back(s, d); });
  const std::vector<std::pair<vertex_t, vertex_t>> want{{1, 3}, {1, 5}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(visited, 2u);
  // Before the Runtime below starts threads: death tests fork.
  EXPECT_DEATH(decode_dvarint_list(page.data(), 8, 8), "corrupt dvarint");

  core::Runtime rt(testutil::test_config());
  struct CountProgram {
    using value_type = std::uint32_t;
    value_type scatter(vertex_t, vertex_t) const { return 0; }
    bool cond(vertex_t) const { return true; }
    bool gather(vertex_t, value_type) { return false; }
    bool gather_atomic(vertex_t, value_type) { return false; }
  } prog;
  core::QueryStats stats;
  core::EdgeMapOptions opts;
  opts.stats = &stats;
  core::edge_map(rt, odg, core::VertexSubset::all(g.num_vertices()), prog,
                 opts);
  EXPECT_EQ(stats.edges_scattered, 2u);
}

// ---- One kernel, two encodings: flat vs dvarint parity --------------------

/// Degrees that put long lists across flat and dvarint page boundaries at
/// different places.
const std::vector<std::uint32_t> kParityDegrees{
    5, 3 * kPerPage + 17, 0, 9, 4000, 1, 0, kPerPage, 700, 2};

/// The parity graph: targets spread over 50000 mostly zero-degree vertices
/// (multi-byte gaps), every neighbor list sorted (transpose() emits each
/// in-list in source order, so transposing twice sorts the lists). Flat and
/// dvarint then store the same list order and the kernel must emit the
/// same sequence from both.
graph::Csr parity_graph() {
  constexpr vertex_t kN = 50000;
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  for (vertex_t v = 0; v < kParityDegrees.size(); ++v) {
    for (std::uint32_t k = 0; k < kParityDegrees[v]; ++k) {
      edges.emplace_back(v, static_cast<vertex_t>((k * 7919ull + v) % kN));
    }
  }
  return graph::transpose(graph::transpose(graph::build_csr(kN, edges)));
}

using EdgeSeq = std::vector<std::pair<vertex_t, vertex_t>>;

/// Scans every page in order and returns the visited (src, dst) sequence.
/// `stop_after` > 0 deactivates a source after that many of its edges: the
/// visitor returns false on the last one, like pull mode's cond() flipping.
EdgeSeq scan_sequence(const OnDiskGraph& odg, std::uint32_t stop_after,
                      std::uint64_t* total) {
  EdgeSeq seq;
  std::vector<std::uint32_t> seen(odg.num_vertices(), 0);
  std::vector<std::byte> page(kPageSize);
  *total = 0;
  for (std::uint64_t p = 0; p < odg.num_pages(); ++p) {
    odg.device().read(p * kPageSize, page);
    *total += scan_page(
        odg.index(), odg.page_map(), p, page.data(),
        [&](vertex_t s) { return stop_after == 0 || seen[s] < stop_after; },
        [&](vertex_t s, vertex_t d) {
          seq.emplace_back(s, d);
          return stop_after == 0 || ++seen[s] < stop_after;
        });
  }
  return seq;
}

TEST(PageLayoutAdversarial, DvarintFlatParityAllActive) {
  graph::Csr g = parity_graph();
  auto flat = make_mem_graph(g);
  auto dv = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  ASSERT_NE(flat.num_pages(), dv.num_pages());  // different page splits
  std::uint64_t flat_total = 0, dv_total = 0;
  const EdgeSeq flat_seq = scan_sequence(flat, 0, &flat_total);
  const EdgeSeq dv_seq = scan_sequence(dv, 0, &dv_total);
  EXPECT_EQ(flat_total, g.num_edges());
  EXPECT_EQ(dv_total, flat_total);
  EXPECT_EQ(dv_seq, flat_seq);
}

TEST(PageLayoutAdversarial, DvarintFlatParityEarlyExit) {
  graph::Csr g = parity_graph();
  auto flat = make_mem_graph(g);
  auto dv = make_mem_graph(g, 1, AdjacencyEncoding::kDeltaVarint);
  for (std::uint32_t k : {1u, 3u, 1500u}) {
    std::uint64_t flat_total = 0, dv_total = 0;
    const EdgeSeq flat_seq = scan_sequence(flat, k, &flat_total);
    const EdgeSeq dv_seq = scan_sequence(dv, k, &dv_total);
    std::uint64_t want = 0;
    for (std::uint32_t d : kParityDegrees) want += std::min(d, k);
    EXPECT_EQ(flat_total, want) << "k=" << k;
    EXPECT_EQ(dv_total, flat_total) << "k=" << k;
    EXPECT_EQ(dv_seq, flat_seq) << "k=" << k;
  }
}

/// Scans page `p` clamped to `page_valid`, with every byte at or past the
/// clamp overwritten by 0x01: a well-formed flat record and a well-formed
/// one-byte varint, so any read past the clamp shows up as extra edges.
EdgeSeq scan_clamped(const OnDiskGraph& odg, std::uint64_t p,
                     std::uint64_t page_valid, std::uint64_t* total) {
  std::vector<std::byte> page(kPageSize);
  odg.device().read(p * kPageSize, page);
  std::fill(page.begin() + static_cast<std::ptrdiff_t>(page_valid),
            page.end(), std::byte{0x01});
  EdgeSeq seq;
  *total = scan_page(
      odg.index(), odg.page_map(), p, page.data(),
      [](vertex_t) { return true; },
      [&](vertex_t s, vertex_t d) { seq.emplace_back(s, d); }, page_valid);
  return seq;
}

TEST(PageLayoutAdversarial, DvarintFlatParityPageValid) {
  graph::Csr g = parity_graph();
  std::vector<EdgeSeq> whole_graph;
  for (auto encoding : {AdjacencyEncoding::kFlat,
                        AdjacencyEncoding::kDeltaVarint}) {
    auto odg = make_mem_graph(g, 1, encoding);
    const std::uint64_t last = odg.num_pages() - 1;
    const std::uint64_t tail =
        odg.index().total_adjacency_bytes() - last * kPageSize;
    ASSERT_GT(tail, 3u);
    ASSERT_LT(tail, kPageSize);
    // Clamped exactly at the end of the data, the last page gives the same
    // edges as unclamped: the scan stops at the last stored byte.
    std::uint64_t full_total = 0, total = 0;
    const EdgeSeq full = scan_clamped(odg, last, kPageSize, &full_total);
    EXPECT_EQ(scan_clamped(odg, last, tail, &total), full);
    EXPECT_EQ(total, full_total);
    // Any shorter clamp yields a strict prefix of the page's sequence:
    // nothing at or past the clamp is read, and a record or varint the
    // clamp cuts is dropped.
    for (std::uint64_t cut : {std::uint64_t{0}, std::uint64_t{1},
                              std::uint64_t{3}, tail / 2, tail - 1}) {
      const EdgeSeq part = scan_clamped(odg, last, cut, &total);
      EXPECT_EQ(total, part.size());
      ASSERT_LT(part.size(), full.size()) << "cut " << cut;
      EXPECT_TRUE(std::equal(part.begin(), part.end(), full.begin()))
          << "cut " << cut;
    }
    // Whole graph with the last page clamped at the data end.
    EdgeSeq seq;
    for (std::uint64_t p = 0; p <= last; ++p) {
      const EdgeSeq page_seq =
          scan_clamped(odg, p, p == last ? tail : kPageSize, &total);
      seq.insert(seq.end(), page_seq.begin(), page_seq.end());
    }
    EXPECT_EQ(seq.size(), g.num_edges());
    whole_graph.push_back(std::move(seq));
  }
  EXPECT_EQ(whole_graph[0], whole_graph[1]);
}

/// The engine must scatter exactly |E| edges from a dvarint graph too —
/// including striped across devices (page-interleaved striping is encoding
/// agnostic).
TEST(PageLayoutAdversarial, DvarintEngineEdgeCountsMatch) {
  for (std::size_t devices : {std::size_t{1}, std::size_t{3}}) {
    graph::Csr g = from_degrees({5, 13000, 0, 9, 4000, 1});
    auto odg = make_mem_graph(g, devices, AdjacencyEncoding::kDeltaVarint);
    core::Runtime rt(testutil::test_config());
    struct NopProgram {
      using value_type = std::uint32_t;
      value_type scatter(vertex_t, vertex_t) const { return 0; }
      bool cond(vertex_t) const { return true; }
      bool gather(vertex_t, value_type) { return false; }
      bool gather_atomic(vertex_t, value_type) { return false; }
    } prog;
    core::QueryStats stats;
    core::EdgeMapOptions opts;
    opts.stats = &stats;
    core::edge_map(rt, odg, core::VertexSubset::all(g.num_vertices()), prog,
                   opts);
    EXPECT_EQ(stats.edges_scattered, g.num_edges()) << devices << " devices";
    EXPECT_EQ(stats.records_binned, g.num_edges());
  }
}

/// The engine must count the same edges the raw scanner sees, on the same
/// adversarial shapes.
TEST(PageLayoutAdversarial, EngineEdgeCountsMatchScanner) {
  for (auto degrees :
       {std::vector<std::uint32_t>{kPerPage, 3, kPerPage, 5},
        std::vector<std::uint32_t>{5, 3 * kPerPage + 17, 9},
        std::vector<std::uint32_t>(2 * kPerPage, 1)}) {
    graph::Csr g = from_degrees(degrees);
    auto odg = make_mem_graph(g);
    core::Runtime rt(testutil::test_config());
    struct NopProgram {
      using value_type = std::uint32_t;
      value_type scatter(vertex_t, vertex_t) const { return 0; }
      bool cond(vertex_t) const { return true; }
      bool gather(vertex_t, value_type) { return false; }
      bool gather_atomic(vertex_t, value_type) { return false; }
    } prog;
    core::QueryStats stats;
    core::EdgeMapOptions opts;
    opts.stats = &stats;
    core::edge_map(rt, odg, core::VertexSubset::all(g.num_vertices()), prog,
                   opts);
    EXPECT_EQ(stats.edges_scattered, g.num_edges());
    EXPECT_EQ(stats.records_binned, g.num_edges());
  }
}

}  // namespace
}  // namespace blaze::format
