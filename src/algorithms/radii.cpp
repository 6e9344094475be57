#include "algorithms/radii.h"

#include "algorithms/detail/atomics.h"
#include "core/edge_map.h"
#include "util/rng.h"

namespace blaze::algorithms {

namespace {

/// Scatter the source's visitor mask; gather ORs it into the
/// destination's next-round mask. A destination activates when it
/// collects bits it has not seen. A mask with no bit outside the
/// destination's next-round mask is dropped before binning (improves):
/// next-round masks only grow during an EdgeMap.
struct RadiiProgram {
  using value_type = std::uint32_t;
  const std::vector<std::uint32_t>& visited;
  std::vector<std::uint32_t>& next_visited;

  value_type scatter(vertex_t s, vertex_t) const { return visited[s]; }
  bool cond(vertex_t) const { return true; }
  bool improves(vertex_t d, value_type v) const {
    return (v & ~detail::relaxed_load(next_visited[d])) != 0;
  }
  bool gather(vertex_t d, value_type v) {
    const std::uint32_t next = detail::relaxed_load(next_visited[d]);
    const std::uint32_t fresh = v & ~visited[d] & ~next;
    detail::relaxed_store(next_visited[d], next | v);
    return fresh != 0;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    std::atomic_ref<std::uint32_t> ref(next_visited[d]);
    std::uint32_t fresh = v & ~visited[d];
    std::uint32_t prev = ref.fetch_or(v, std::memory_order_relaxed);
    return (fresh & ~prev) != 0;
  }
};

}  // namespace

RadiiResult radii(core::Runtime& rt, const format::OnDiskGraph& g,
                  std::uint64_t seed, unsigned num_samples) {
  const vertex_t n = g.num_vertices();
  RadiiResult result;
  result.radii.assign(n, ~0u);
  std::vector<std::uint32_t> visited(n, 0), next_visited(n, 0);

  // Deterministic sample sources among non-sink vertices.
  Xoshiro256 rng(seed);
  num_samples = std::min(num_samples, 32u);
  core::VertexSubset frontier(n);
  for (unsigned i = 0; i < num_samples && i < n; ++i) {
    vertex_t v;
    unsigned attempts = 0;
    do {
      v = static_cast<vertex_t>(rng.next_below(n));
    } while (g.degree(v) == 0 && ++attempts < 64);
    if (visited[v] != 0) continue;  // duplicate draw
    visited[v] = 1u << result.sources.size();
    next_visited[v] = visited[v];
    result.radii[v] = 0;
    frontier.add(v);
    result.sources.push_back(v);
    if (result.sources.size() == num_samples) break;
  }

  RadiiProgram prog{visited, next_visited};
  core::EdgeMapOptions opts;
  opts.output = true;
  opts.stats = &result.stats;
  while (!frontier.empty()) {
    ++result.rounds;
    core::VertexSubset changed = core::edge_map(rt, g, frontier, prog, opts);
    changed.for_each([&](vertex_t v) {
      result.radii[v] = result.rounds;  // mask grew this round
    });
    // Fold next-round masks into the visited masks for every touched
    // vertex (frontier members keep scattering their full mask).
    core::VertexSubset all = core::VertexSubset::all(n);
    core::vertex_map(
        rt, all,
        [&](vertex_t v) {
          visited[v] |= next_visited[v];
          return false;
        },
        &result.stats);
    frontier = std::move(changed);
  }
  return result;
}

}  // namespace blaze::algorithms
