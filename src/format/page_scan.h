// Scanning frontier edges out of a fetched on-disk page.
//
// One kernel for every engine (push and pull EdgeMap, fused serving, the
// baselines): given one 4 kB page of the adjacency region, visit every
// out-edge (src, dst) whose source is active and whose adjacency bytes
// overlap the page. The page-to-vertex map provides the candidate vertex
// range; byte offsets are advanced incrementally so the indirection index
// is consulted once per page, not once per vertex. The record layout —
// flat 4-byte destinations, weighted 8-byte records or delta+varint runs —
// comes from the GraphIndex (and the visitor's arity) and is resolved once
// per page, so the vertex-range walk below exists exactly once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "format/graph_index.h"
#include "format/page_vertex_map.h"
#include "util/common.h"

namespace blaze::format {

namespace detail {

enum class PageLayout { kFlat, kWeighted, kDeltaVarint };

/// Calls the visitor; a `void` visitor never stops a list.
template <typename EdgeFn, typename... Args>
inline bool visit_edge(EdgeFn& edge_fn, Args... args) {
  if constexpr (std::is_void_v<std::invoke_result_t<EdgeFn&, Args...>>) {
    edge_fn(args...);
    return true;
  } else {
    return static_cast<bool>(edge_fn(args...));
  }
}

/// The vertex-range walk: clips each active source's bytes to the valid
/// part of the page, then decodes them in layout `L`.
template <PageLayout L, typename Pred, typename EdgeFn>
std::uint64_t walk_page(const GraphIndex& index, const PageVertexMap& pvmap,
                        std::uint64_t logical_page, const std::byte* page,
                        Pred& is_active, EdgeFn& edge_fn,
                        std::uint64_t page_valid) {
  // Record size of the fixed-size layouts (never split across pages).
  constexpr std::uint64_t kRec = L == PageLayout::kWeighted
                                     ? sizeof(vertex_t) + sizeof(float)
                                     : sizeof(vertex_t);
  const std::uint64_t page_base = logical_page * kPageSize;
  const auto range = pvmap.range(logical_page);
  std::uint64_t off = index.byte_offset(range.begin);
  std::uint64_t visited = 0;
  for (vertex_t v = range.begin; v < range.end; ++v) {
    const std::uint32_t deg = index.degree(v);
    const std::uint64_t len = L == PageLayout::kDeltaVarint
                                  ? index.encoded_length(v)
                                  : deg * kRec;
    const std::uint64_t vb = off;
    off += len;
    if (len == 0 || !is_active(v)) continue;
    const std::uint64_t ob = std::max(vb, page_base);
    const std::uint64_t oe = std::min(vb + len, page_base + page_valid);
    if (ob >= oe) continue;
    const std::byte* p = page + (ob - page_base);
    if constexpr (L != PageLayout::kDeltaVarint) {
      const std::byte* pe = p + (oe - ob) / kRec * kRec;
      for (; p < pe; p += kRec) {
        vertex_t dst;
        std::memcpy(&dst, p, sizeof(dst));
        ++visited;
        if constexpr (L == PageLayout::kWeighted) {
          float weight;
          std::memcpy(&weight, p + sizeof(dst), sizeof(weight));
          if (!visit_edge(edge_fn, v, dst, weight)) break;
        } else {
          if (!visit_edge(edge_fn, v, dst)) break;
        }
      }
    } else {
      // A list that started on an earlier page resumes from the page's
      // carry, including the low bits of a split varint. A uint32 varint
      // is at most 5 bytes (shift <= 28); a longer run is corrupt and
      // stops the list before the shift passes 31 bits.
      const std::byte* pe = page + (oe - page_base);
      std::uint32_t acc = 0, shift = 0, prev = 0, done = 0;
      if (vb < page_base) {
        const PageCarry& c = index.page_carry(logical_page);
        acc = c.partial_acc;
        shift = c.partial_shift;
        prev = c.prev;
        done = c.edges_done;
        if (shift > 28) continue;
      }
      while (p < pe && done < deg) {
        const auto b = static_cast<std::uint32_t>(*p++);
        acc |= (b & 0x7fu) << shift;
        shift += 7;
        if (b & 0x80u) {
          if (shift > 28) break;
          continue;
        }
        // First neighbor is absolute, the rest are gaps off the running
        // value (sorted lists; duplicates encode as gap 0).
        const vertex_t dst = (done == 0) ? acc : prev + acc;
        prev = dst;
        acc = 0;
        shift = 0;
        ++done;
        ++visited;
        if (!visit_edge(edge_fn, v, dst)) break;
      }
    }
  }
  return visited;
}

}  // namespace detail

/// Invokes `edge_fn` for every edge of every active source whose bytes lie
/// in `page` (logical page `logical_page` of the adjacency region) and
/// returns the number of edges visited.
///
/// - `is_active(v)` filters sources.
/// - `edge_fn(src, dst)` visits unweighted edges, flat or delta+varint as
///   the index says; `edge_fn(src, dst, weight)` selects the weighted
///   8-byte record layout.
/// - `edge_fn` may return `void`, or `bool` where `false` stops the current
///   source's list (pull mode's early exit). The stopping edge counts as
///   visited.
/// - `page_valid` clamps a tail-truncated final page: no byte at or past
///   it is read.
template <typename Pred, typename EdgeFn>
std::uint64_t scan_page(const GraphIndex& index, const PageVertexMap& pvmap,
                        std::uint64_t logical_page, const std::byte* page,
                        Pred&& is_active, EdgeFn&& edge_fn,
                        std::uint64_t page_valid = kPageSize) {
  using detail::PageLayout;
  if constexpr (std::is_invocable_v<EdgeFn&, vertex_t, vertex_t, float>) {
    return detail::walk_page<PageLayout::kWeighted>(
        index, pvmap, logical_page, page, is_active, edge_fn, page_valid);
  } else {
    if (index.encoding() == AdjacencyEncoding::kDeltaVarint) {
      return detail::walk_page<PageLayout::kDeltaVarint>(
          index, pvmap, logical_page, page, is_active, edge_fn, page_valid);
    }
    return detail::walk_page<PageLayout::kFlat>(
        index, pvmap, logical_page, page, is_active, edge_fn, page_valid);
  }
}

/// Former name of the delta+varint scan; perfbench/probes.cpp still calls
/// it. Identical to scan_page.
template <typename... Args>
std::uint64_t scan_page_dvarint(Args&&... args) {
  return scan_page(std::forward<Args>(args)...);
}

}  // namespace blaze::format
