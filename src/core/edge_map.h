// Out-of-core EDGEMAP / VERTEXMAP (paper Sections IV-B and IV-C).
//
// edge_map() executes a user Program over all out-edges of the frontier:
//
//   1. The frontier is transformed in parallel into a page frontier (the
//      set of on-disk pages holding the frontier vertices' adjacency).
//   2. The page frontier is submitted to the Runtime's persistent
//      io::IoPipeline: one reader thread per device streams those pages
//      into buffers from the free MPMC queue (merging up to 4 contiguous
//      pages per request) and pushes filled buffers to the handle's filled
//      queue.
//   3. Every compute worker scatters: it pops filled buffers, locates the
//      frontier vertices inside each page via the page-to-vertex map,
//      evaluates cond() and scatter() per edge, drops the updates
//      improves() rejects, and stages the rest as (dst, value) records
//      into the bins (one contiguous destination range per bin).
//   4. The same workers gather: whenever a full bin is queued, when a
//      flush is blocked on a saturated bin, or when no filled buffer is
//      ready, a worker drains a full bin and applies gather() to the
//      algorithm's vertex data — without synchronization, thanks to the
//      bins' per-destination exclusivity — setting output-frontier bits.
//      Once the input is exhausted, everyone drains the rest.
//
// A Program provides:
//   using value_type = <trivially copyable, 4 bytes>;
//   value_type scatter(vertex_t src, vertex_t dst);
//   bool cond(vertex_t dst);                      // pre-scatter filter
//   bool gather(vertex_t dst, value_type v);      // no atomics needed
//   bool gather_atomic(vertex_t dst, value_type v); // sync-variant (CAS)
//   bool improves(vertex_t dst, value_type v) const; // optional pre-bin prune
//
// gather()/gather_atomic() return true to activate dst in the output
// frontier.
//
// improves() is for monotone gathers (min, OR). It returns false only when
// gather()/gather_atomic() would leave dst unchanged and return false. Vertex
// state moves one way during an EdgeMap, so a value that cannot change dst
// when scattered cannot change it when gathered later: dropping the update
// before it is binned (or CAS'd) is exact, not a heuristic. Programs
// without the member keep every update (core/program.h).
#pragma once

#include <atomic>
#include <bit>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/core_metrics.h"
#include "core/program.h"
#include "core/query_context.h"
#include "core/runtime.h"
#include "core/stats.h"
#include "core/vertex_subset.h"
#include "device/raid0_device.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "io/io_pipeline.h"
#include "util/backoff.h"
#include "util/busy_wait.h"
#include "util/timer.h"

namespace blaze::core {

struct EdgeMapOptions {
  /// When false, no output frontier is materialized (the paper's
  /// `output = false` mode used by PageRank/WCC, which rebuild the
  /// frontier in VertexMap instead).
  bool output = true;
  /// Optional accumulator for IO/compute statistics.
  QueryStats* stats = nullptr;
  /// Prefetch hook (pull mode): when set, the candidates' pages of the
  /// *next* iteration are streamed in discard mode behind this call's
  /// demand reads, overlapping iteration i+1's IO with iteration i's
  /// gather. Pays off when the graph sits behind a device::CachedDevice;
  /// harmless (extra modeled reads) otherwise.
  const VertexSubset* prefetch_candidates = nullptr;
};

namespace detail {

/// Unwraps RAID-0 into its member devices so the engine can run one IO
/// thread per physical device (paper: "Blaze uses one thread for each SSD
/// and maintains the page frontier for each SSD").
inline std::vector<device::BlockDevice*> leaf_devices(
    device::BlockDevice& dev) {
  if (auto* raid = dynamic_cast<device::Raid0Device*>(&dev)) {
    std::vector<device::BlockDevice*> out;
    for (std::size_t i = 0; i < raid->num_children(); ++i) {
      out.push_back(&raid->child(i));
    }
    return out;
  }
  return {&dev};
}

/// Computes the page frontier of `subset` over `g` and returns per-device
/// read batches: logical page p lives on device p % D as that device's
/// page p / D (RAID-0 striping). `filter(v)` additionally gates
/// membership.
template <typename Filter>
std::vector<io::ReadBatch> page_frontier_batches(
    QueryContext& qc, const format::OnDiskGraph& g,
    const VertexSubset& subset, Filter&& filter) {
  ConcurrentBitmap page_bits(g.num_pages());
  subset.for_each_parallel(qc.pool(), [&](vertex_t v) {
    if (g.degree(v) == 0 || !filter(v)) return;
    auto [first, last] = g.page_range(v);
    for (std::uint64_t p = first; p <= last; ++p) page_bits.set(p);
  });
  auto devices = leaf_devices(g.device());
  std::vector<io::ReadBatch> batches(devices.size());
  const std::size_t num_devices = devices.size();
  for (std::size_t d = 0; d < num_devices; ++d) {
    batches[d].device = devices[d];
    batches[d].device_index = static_cast<std::uint32_t>(d);
    // Graph-level integrity gate (single-device graphs; see
    // OnDiskGraph::set_page_verifier).
    if (g.page_verifier()) batches[d].verifier = g.page_verifier();
  }
  page_bits.for_each([&](std::size_t p) {
    batches[p % num_devices].pages.push_back(p / num_devices);
  });
  return batches;
}

/// Warm-up of `candidates`' pages behind the current iteration's demand
/// reads (EdgeMapOptions::prefetch_candidates). Returns the discard-mode
/// handle (null when there is nothing to prefetch) so the caller can fold
/// its accounting into the query stats once it drains.
inline std::shared_ptr<io::ReadHandle> submit_prefetch(
    QueryContext& qc, const format::OnDiskGraph& g,
    const VertexSubset& candidates) {
  if (candidates.empty()) return nullptr;
  auto batches = page_frontier_batches(qc, g, candidates,
                                       [](vertex_t) { return true; });
  return qc.io_pipeline().prefetch(qc.io_pool(), std::move(batches),
                                   qc.config().max_inflight_io);
}

}  // namespace detail

template <typename Program>
VertexSubset edge_map(QueryContext& qc, const format::OnDiskGraph& g,
                      const VertexSubset& frontier, Program& prog,
                      const EdgeMapOptions& opts = {}) {
  static_assert(sizeof(typename Program::value_type) == sizeof(bin_value_t),
                "Program::value_type must be 4 bytes");
  using value_type = typename Program::value_type;

  Timer timer;
  const Config& cfg = qc.config();
  const vertex_t n = g.num_vertices();
  VertexSubset out(n);
  if (opts.stats) ++opts.stats->edge_map_calls;
  // Trace identity for everything this call does — including the IO jobs
  // it posts (the pipeline snapshots the id per job) — plus the iteration
  // boundary instant the Figure 2/8 idle-gap analysis keys on.
  trace::ScopedQuery trace_scope(qc.trace_id());
  trace::Span trace_span(trace::Name::kEdgeMap, frontier.universe());
  trace::instant(trace::Name::kIteration,
                 opts.stats ? opts.stats->edge_map_calls : 0);
  if (const auto* m = detail::core_metrics()) {
    m->iterations->inc();
    m->frontier->set(static_cast<double>(frontier.count()));
  }
  // Program/graph record-format compatibility, checked before any pipeline
  // work starts.
  const bool weighted_records =
      g.index().record_bytes() == sizeof(format::WeightedEdgeRecord);
  if (weighted_records) {
    BLAZE_CHECK(WeightedScatter<Program>,
                "weighted graph requires scatter(src, dst, weight)");
  } else {
    BLAZE_CHECK(UnweightedScatter<Program>,
                "unweighted graph requires scatter(src, dst)");
  }
  if (frontier.empty()) return out;

  // ---- Step 1: vertex frontier -> page frontier --------------------------
  auto batches = detail::page_frontier_batches(
      qc, g, frontier, [](vertex_t) { return true; });
  const std::size_t num_devices = batches.size();

  // ---- Step 2: hand the page frontier to the persistent IO pipeline ------
  io::IoBufferPool& io_pool = qc.io_pool();
  auto io = qc.io_pipeline().submit(io_pool, std::move(batches),
                                    cfg.max_inflight_io);

  std::atomic<std::uint64_t> edges_scattered{0};
  std::atomic<std::uint64_t> records_binned{0};
  std::atomic<std::uint64_t> io_wait_ns{0};

  const bool sync_mode = cfg.sync_mode;
  BinSet* bins = sync_mode ? nullptr : &qc.acquire_bins(n);
  if (!sync_mode) qc.scatter_buffer(0);  // materialize before workers race
  const std::size_t num_workers = qc.pool().num_threads();

  // ---- Gather helpers -----------------------------------------------------
  // Activations are counted per bin buffer and added to the output's
  // shared count once, not once per activated vertex.
  auto process_full = [&](const FullBinRef& ref) {
    std::size_t activated = 0;
    for (const BinRecord& rec : bins->records(ref)) {
      value_type v = std::bit_cast<value_type>(rec.value);
      if (prog.gather(rec.dst, v) && opts.output) {
        activated += out.add_uncounted(rec.dst);
      }
    }
    out.add_count(activated);
    bins->complete(ref);
  };
  auto help_gather_once = [&] {
    if (auto ref = bins->pop_full()) {
      process_full(*ref);
    } else {
      std::this_thread::yield();
    }
  };
  // Like help_gather_once, but backs off the CPU while the pipeline is
  // quiet (idle spinners must not starve working threads when workers
  // outnumber cores).
  auto drain_with_backoff = [&] {
    Backoff backoff;
    while (!bins->drained()) {
      if (auto ref = bins->pop_full()) {
        process_full(*ref);
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
  };

  // ---- Scatter over one filled buffer -------------------------------------
  // Per-worker counters, folded into the call's totals once at the end.
  struct Tally {
    std::uint64_t edges = 0, records = 0, io_wait_ns = 0;
    std::size_t activated = 0;  // sync mode's newly set output bits
  };
  auto apply_update = [&](ScatterBuffer* sbuf, Tally& t, vertex_t dst,
                          value_type val) {
    if (!can_improve(prog, dst, val)) return;  // exact: see the contract
    if (sync_mode) {
      if (prog.gather_atomic(dst, val) && opts.output) {
        t.activated += out.add_uncounted(dst);
      }
      busy_spin_ns(cfg.sim_atomic_contention_ns);
    } else {
      sbuf->append(*bins, dst, std::bit_cast<bin_value_t>(val),
                   help_gather_once);
      ++t.records;
    }
  };
  auto scatter_buffer = [&](std::uint32_t buf_id, ScatterBuffer* sbuf,
                            Tally& t) {
    const io::BufferMeta& meta = io_pool.meta(buf_id);
    const std::byte* data = io_pool.data(buf_id);
    auto active = [&](vertex_t v) { return frontier.contains(v); };
    for (std::uint32_t j = 0; j < meta.num_pages; ++j) {
      const std::uint64_t logical_page =
          (meta.first_page + j) * num_devices + meta.device;
      const std::byte* page = data + static_cast<std::size_t>(j) * kPageSize;
      if constexpr (WeightedScatter<Program>) {
        if (weighted_records) {
          t.edges += format::scan_page(
              g.index(), g.page_map(), logical_page, page, active,
              [&](vertex_t src, vertex_t dst, float w) {
                if (!prog.cond(dst)) return;
                apply_update(sbuf, t, dst, prog.scatter(src, dst, w));
              },
              meta.page_valid(j));
          continue;
        }
      }
      if constexpr (UnweightedScatter<Program>) {
        t.edges += format::scan_page(
            g.index(), g.page_map(), logical_page, page, active,
            [&](vertex_t src, vertex_t dst) {
              if (!prog.cond(dst)) return;
              apply_update(sbuf, t, dst, prog.scatter(src, dst));
            },
            meta.page_valid(j));
      }
    }
    io_pool.release(buf_id);
  };

  // ---- Compute workers (paper steps 5-9) ----------------------------------
  qc.pool().run_on_all([&](std::size_t worker) {
    // Pool threads carry no query identity of their own; adopt this
    // call's so worker spans land in the right per-query tree.
    trace::ScopedQuery worker_scope(qc.trace_id());
    Tally tally;
    {  // Scatter phase: every worker, gathering whenever a bin is full.
      trace::Span scatter_span(trace::Name::kScatter, worker);
      ScatterBuffer* sbuf = sync_mode ? nullptr : &qc.scatter_buffer(worker);
      Backoff backoff;
      for (;;) {
        // A queued full bin is gathered before the next page is scattered:
        // it frees that bin's buffer for everyone's flushes.
        if (!sync_mode && bins->pop_full_hint()) {
          if (auto ref = bins->pop_full()) {
            process_full(*ref);
            continue;
          }
        }
        auto buf = io->pop_filled();
        if (!buf) {
          if (io->io_done()) {
            buf = io->pop_filled();  // re-check after the release fence
            if (!buf) break;
          } else {
            // Genuine IO starvation: no filled buffer and no gather work
            // to steal. Timed so prof::StallBreakdown can attribute the
            // query's wall clock (clock reads cost only on the idle path).
            const std::uint64_t t0 = Timer::now_ns();
            backoff.pause();
            tally.io_wait_ns += Timer::now_ns() - t0;
            continue;
          }
        }
        backoff.reset();
        scatter_buffer(*buf, sbuf, tally);
      }
      if (!sync_mode) {
        sbuf->flush_all(*bins, help_gather_once);
        if (bins->scatter_done(num_workers)) bins->seal(help_gather_once);
      }
    }
    // With the input exhausted, everyone drains the bins to completion.
    if (!sync_mode) {
      trace::Span gather_span(trace::Name::kGather, worker);
      drain_with_backoff();
    }
    out.add_count(tally.activated);
    edges_scattered.fetch_add(tally.edges, std::memory_order_relaxed);
    records_binned.fetch_add(tally.records, std::memory_order_relaxed);
    io_wait_ns.fetch_add(tally.io_wait_ns, std::memory_order_relaxed);
  });

  io->wait();

  if (auto err = io->error()) {
    // A device failed mid-pipeline. The reader has already reclaimed every
    // buffer it acquired and the workers above drained the filled queue, so
    // the pool is back at full occupancy and the arenas stay valid — the
    // Runtime remains usable for the next query. Just surface the failure.
    std::rethrow_exception(err);
  }

  if (const auto* m = detail::core_metrics()) {
    m->edges->add(edges_scattered.load(std::memory_order_relaxed));
    m->records->add(records_binned.load(std::memory_order_relaxed));
  }
  if (opts.stats) {
    opts.stats->merge(io->stats());  // unified device->io accounting
    opts.stats->io_wait_ns += io_wait_ns.load(std::memory_order_relaxed);
    opts.stats->edges_scattered +=
        edges_scattered.load(std::memory_order_relaxed);
    opts.stats->records_binned +=
        records_binned.load(std::memory_order_relaxed);
    opts.stats->seconds += timer.seconds();
  }
  return out;
}

/// Single-query convenience: runs on the Runtime's default context.
template <typename Program>
VertexSubset edge_map(Runtime& rt, const format::OnDiskGraph& g,
                      const VertexSubset& frontier, Program& prog,
                      const EdgeMapOptions& opts = {}) {
  return edge_map(rt.default_context(), g, frontier, prog, opts);
}

/// VERTEXMAP (paper Section IV-B): applies `f` to every frontier member
/// fully in memory; the members where `f` returns true form the result.
template <typename Fn>
VertexSubset vertex_map(QueryContext& qc, const VertexSubset& frontier,
                        Fn&& f, QueryStats* stats = nullptr) {
  VertexSubset out = frontier.filter(qc.pool(), f);
  if (stats) ++stats->vertex_map_calls;
  return out;
}

/// Single-query convenience: runs on the Runtime's default context.
template <typename Fn>
VertexSubset vertex_map(Runtime& rt, const VertexSubset& frontier, Fn&& f,
                        QueryStats* stats = nullptr) {
  return vertex_map(rt.default_context(), frontier, std::forward<Fn>(f),
                    stats);
}

}  // namespace blaze::core
