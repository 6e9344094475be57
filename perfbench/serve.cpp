// serve-openloop: independent users hitting serve::QueryEngine.
//
// Two GraphCatalog graphs, the r2 and tw stand-ins at shift 3, each with
// its transpose for WCC, each adjacency on its own scaled-Optane
// SimulatedSsd, all sharing one page cache at 25 % of their adjacency. The
// engine runs 2 sessions x 2 workers for two tenants weighted 3:1.
//
// One generator thread submits Poisson arrivals at a fixed rate, each at
// its absolute due time, and measures every arrival's latency from that
// due time to the moment a waiter blocked on its ticket wakes. Mix: 50 %
// BFS, 20 % SSSP, 20 % PageRank (5 fixed iterations), 10 % WCC, sources
// from a seeded pool of vertices with non-zero out-degree. Results are
// checked against oracles precomputed for that pool after the run.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "baselines/inmem.h"
#include "bench.h"
#include "device/simulated_ssd.h"
#include "device/ssd_profile.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "probes.h"
#include "serve/graph_catalog.h"
#include "serve/query_engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace blaze;

constexpr unsigned kShift = 3;  // r2 and tw stand-ins: 512 K and 786 K edges
constexpr double kSsdScale = 20;
constexpr double kCacheShare = 0.25;
constexpr std::size_t kSessions = 2;
constexpr std::size_t kWorkersPerSession = 2;
constexpr unsigned kPrIterations = 5;
constexpr int kSetupReps = 9;
constexpr std::size_t kSourcePool = 64;  // per graph
/// Fixed arrival rate, about 30 % of the engine's measured capacity on
/// this mix (see METRICS.md).
constexpr double kRateQps = 10.0;

const char* const kGraphs[] = {"r2", "tw"};
enum Kind { kBfs, kSssp, kPr, kWcc };
const char* const kKindNames[] = {"bfs", "sssp", "pr", "wcc"};

struct ServeStack {
  std::vector<graph::Csr> csr;  // out-graphs, kGraphs order
  std::vector<std::shared_ptr<device::BlockDevice>> leaves;
  std::vector<std::shared_ptr<TimedDevice>> taps;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::GraphCatalog> catalog;
  double gen_s = 0, encode_s = 0, open_s = 0, runtime_s = 0, total_s = 0;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() {
    // The engine resolves graphs through the catalog, and the catalog
    // holds the engine's runtime: drain, detach, then free both.
    if (engine) {
      engine->drain();
      engine->attach_catalog(nullptr);
    }
    catalog.reset();
    engine.reset();
  }
};

std::unique_ptr<ServeStack> set_up(bool trace) {
  auto s = std::make_unique<ServeStack>();
  const double t_begin = now_s();

  double t = now_s();
  std::vector<graph::Csr> all;  // r2, tw, r2 transpose, tw transpose
  for (const char* name : kGraphs) {
    all.push_back(graph::make_dataset(name, kShift).csr);
  }
  all.push_back(graph::transpose(all[0]));
  all.push_back(graph::transpose(all[1]));
  s->gen_s = now_s() - t;

  t = now_s();
  const auto profile = device::optane_p4800x().scaled(kSsdScale);
  std::vector<std::shared_ptr<device::SimulatedSsd>> ssds;
  std::vector<format::GraphIndex> indexes;
  std::uint64_t adjacency = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::vector<std::byte> adj = format::serialize_adjacency(all[i]);
    auto ssd = std::make_shared<device::SimulatedSsd>(
        "ssd" + std::to_string(i), adj.size(), profile);
    std::memcpy(ssd->raw().data(), adj.data(), adj.size());
    ssds.push_back(std::move(ssd));
    indexes.emplace_back(degrees_of(all[i]));
    adjacency += indexes.back().total_adjacency_bytes();
  }
  s->encode_s = now_s() - t;

  t = now_s();
  core::Config cfg;
  cfg.compute_workers = kWorkersPerSession;
  cfg.cache_bytes =
      static_cast<std::size_t>(kCacheShare * static_cast<double>(adjacency));
  serve::EngineOptions eopts;
  eopts.max_inflight_queries = kSessions;
  eopts.workers_per_query = kWorkersPerSession;
  eopts.max_queue_depth = 1u << 16;  // an open loop never backs off
  s->engine = std::make_unique<serve::QueryEngine>(cfg, eopts);
  serve::TenantOptions gold, bronze;
  gold.weight = 3.0;
  bronze.weight = 1.0;
  s->engine->register_tenant("gold", gold);
  s->engine->register_tenant("bronze", bronze);
  s->runtime_s = now_s() - t;

  t = now_s();
  s->catalog = std::make_unique<serve::GraphCatalog>(s->engine->runtime());
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::shared_ptr<device::BlockDevice> dev = ssds[i];
    s->leaves.push_back(dev);
    if (trace) {
      auto tap = std::make_shared<TimedDevice>(dev);
      s->taps.push_back(tap);
      dev = tap;
    }
    const std::string name =
        std::string(kGraphs[i % 2]) + (i < 2 ? "" : ".in");
    s->catalog->open(name, format::OnDiskGraph(std::move(indexes[i]), dev));
  }
  s->engine->attach_catalog(s->catalog.get());
  s->engine->observe_cache(s->engine->runtime().page_cache().get());
  s->open_s = now_s() - t;

  all.resize(2);
  s->csr = std::move(all);
  s->total_s = now_s() - t_begin;
  return s;
}

struct GraphOracles {
  std::vector<vertex_t> sources;
  std::vector<std::vector<std::uint32_t>> bfs, sssp;
  std::vector<float> pr;
  std::vector<vertex_t> wcc;
};

/// One arrival: its schedule, the benchmark's timestamps around the
/// engine calls (steady-clock ns), and the result to check.
struct Arrival {
  Kind kind = kBfs;
  int graph = 0;
  std::size_t slot = 0;
  bool gold = true;
  std::uint64_t due = 0, submit0 = 0, submit1 = 0, exec0 = 0, exec1 = 0,
                wake = 0;
  bool refused = false;
  serve::QueryState state = serve::QueryState::kQueued;
  std::vector<vertex_t> vertices;     // BFS parents or WCC labels
  std::vector<std::uint32_t> dist;    // SSSP
  std::vector<float> rank;            // PageRank
};

bool check(const Arrival& a, const GraphOracles& o) {
  switch (a.kind) {
    case kBfs:
      return bfs_matches(a.vertices, o.bfs[a.slot], o.sources[a.slot]);
    case kSssp:
      return a.dist == o.sssp[a.slot];
    case kPr:
      return pr_matches(a.rank, o.pr);
    case kWcc:
      return a.vertices == o.wcc;
  }
  return false;
}

serve::QueryFn query_fn(Arrival& a, const GraphOracles& o,
                        serve::GraphCatalog& catalog) {
  return [&a, &o, &catalog](core::QueryContext& qc) {
    a.exec0 = Timer::now_ns();
    const format::OnDiskGraph& g = *qc.graph();
    core::QueryStats stats;
    switch (a.kind) {
      case kBfs: {
        auto r = algorithms::bfs(qc, g, o.sources[a.slot]);
        a.vertices = std::move(r.parent);
        stats = r.stats;
        break;
      }
      case kSssp: {
        auto r = algorithms::sssp(qc, g, o.sources[a.slot]);
        a.dist = std::move(r.dist);
        stats = r.stats;
        break;
      }
      case kPr: {
        algorithms::PageRankOptions po;
        po.epsilon = 0.0;
        po.max_iterations = kPrIterations;
        auto r = algorithms::pagerank(qc, g, po);
        a.rank = std::move(r.rank);
        stats = r.stats;
        break;
      }
      case kWcc: {
        auto in = catalog.lookup(std::string(kGraphs[a.graph]) + ".in");
        auto r = algorithms::wcc(qc, g, *in);
        a.vertices = std::move(r.ids);
        stats = r.stats;
        break;
      }
    }
    a.exec1 = Timer::now_ns();
    return stats;
  };
}

/// The seeded arrival schedule: due offsets (ns from the start) inside
/// `seconds`. The exponential gaps of one run are stratified: gap i comes
/// from the i-th of rate x seconds equal slices of the distribution, and
/// the seed orders them, so every run sees the same gap distribution and
/// arrival count. Kinds come in shuffled blocks of ten (5 BFS, 2 SSSP,
/// 2 PR, 1 WCC) so every run has the same mix; the arrivals of each kind
/// alternate between the two graphs, and tenants alternate.
std::vector<Arrival> schedule(std::uint64_t seed, double rate,
                              double seconds) {
  Xoshiro256 rng(mix_seed(seed, 3));
  const auto n = static_cast<std::size_t>(rate * seconds);
  std::vector<double> gaps(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.next_double()) /
                     static_cast<double>(n);
    gaps[i] = -std::log(1.0 - u) / rate;
  }
  std::shuffle(gaps.begin(), gaps.end(), rng);
  std::vector<Arrival> out;
  Kind block[10] = {kBfs,  kBfs,  kBfs, kBfs, kBfs,
                    kSssp, kSssp, kPr,  kPr,  kWcc};
  std::size_t per_kind[4] = {0, 0, 0, 0};
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps[i];
    if (t >= seconds) break;
    if (i % 10 == 0) std::shuffle(std::begin(block), std::end(block), rng);
    Arrival a;
    a.due = static_cast<std::uint64_t>(t * 1e9);
    a.kind = block[i % 10];
    a.graph = static_cast<int>(per_kind[a.kind]++ % 2);
    a.slot = rng.next_below(kSourcePool);
    a.gold = i % 2 == 0;
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace

Result run_serve(const Options& opt) {
  Result res;
  std::vector<double> setup_s, gen_s, encode_s, open_s, runtime_s;
  std::unique_ptr<ServeStack> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    s = set_up(opt.trace);
    setup_s.push_back(s->total_s);
    gen_s.push_back(s->gen_s);
    encode_s.push_back(s->encode_s);
    open_s.push_back(s->open_s);
    runtime_s.push_back(s->runtime_s);
  }

  // Oracles for each graph's seeded source pool. The first source's and
  // the PR/WCC oracles run alone and their times are the in-memory
  // ceilings; the rest run on up to 4 threads.
  std::vector<GraphOracles> oracles(2);
  std::vector<double> c_bfs, c_sssp, c_pr, c_wcc;
  for (int gi = 0; gi < 2; ++gi) {
    const graph::Csr& g = s->csr[gi];
    GraphOracles& o = oracles[gi];
    o.sources = pick_sources(g, kSourcePool, mix_seed(opt.seed, 20 + gi));
    o.bfs.resize(kSourcePool);
    o.sssp.resize(kSourcePool);
    double t = now_s();
    o.bfs[0] = baseline::inmem::bfs_dist(g, o.sources[0]);
    c_bfs.push_back(now_s() - t);
    t = now_s();
    o.sssp[0] = baseline::inmem::sssp_dist(g, o.sources[0]);
    c_sssp.push_back(now_s() - t);
    parallel_for(kSourcePool - 1, [&](std::size_t i) {
      o.bfs[i + 1] = baseline::inmem::bfs_dist(g, o.sources[i + 1]);
      o.sssp[i + 1] = baseline::inmem::sssp_dist(g, o.sources[i + 1]);
    });
    t = now_s();
    o.pr = baseline::inmem::pagerank_delta(g, 0.85, 0.0, kPrIterations);
    c_pr.push_back(now_s() - t);
    t = now_s();
    o.wcc = baseline::inmem::wcc(g);
    c_wcc.push_back(now_s() - t);
  }
  std::optional<ScanProbe> scan;
  if (opt.trace) scan = probe_page_scan({&s->csr[0], &s->csr[1]});
  s->csr.clear();

  std::vector<Arrival> arrivals = schedule(opt.seed, kRateQps, opt.seconds);
  serve::QueryEngine& engine = *s->engine;
  const auto pool = engine.runtime().page_cache();
  const device::CacheCounters cache0 = pool->cache_counters();
  std::vector<std::uint64_t> leaf0_bytes, leaf0_reads, leaf0_busy;
  for (const auto& l : s->leaves) {
    leaf0_bytes.push_back(l->stats().total_bytes());
    leaf0_reads.push_back(l->stats().total_reads());
    leaf0_busy.push_back(l->stats().busy_ns());
  }

  // ---- the open loop -------------------------------------------------------
  RssSampler rss;
  rss.start();
  const double cpu0 = process_cpu_s();
  const std::uint64_t start = Timer::now_ns() + 20'000'000;  // 20 ms lead
  // jthreads join on every exit path; the engine outlives them.
  std::vector<std::jthread> waiters;
  waiters.reserve(arrivals.size());
  double lateness_max_ms = 0;
  for (Arrival& a : arrivals) {
    a.due += start;
    // Traced runs flip decorator timing each second, so trace.overhead
    // compares arrivals due in timed and untimed seconds.
    const bool timing = opt.trace && ((a.due - start) / 1'000'000'000) % 2 == 0;
    for (auto& t : s->taps) t->set_timing(timing);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(a.due)));
    a.submit0 = Timer::now_ns();
    lateness_max_ms = std::max(
        lateness_max_ms, static_cast<double>(a.submit0 - a.due) * 1e-6);
    serve::QuerySpec spec;
    spec.graph = kGraphs[a.graph];
    spec.tenant = a.gold ? "gold" : "bronze";
    spec.label = kKindNames[a.kind];
    spec.run = query_fn(a, oracles[a.graph], *s->catalog);
    std::shared_ptr<serve::QueryTicket> ticket;
    try {
      ticket = engine.submit(std::move(spec));
    } catch (const serve::ServeError&) {
      a.refused = true;  // an open loop drops, never retries
    }
    a.submit1 = Timer::now_ns();
    if (ticket) {
      waiters.emplace_back([&a, ticket] {
        ticket->wait();
        a.wake = Timer::now_ns();
        a.state = ticket->state();
      });
    }
  }
  waiters.clear();  // joins
  const std::uint64_t end = Timer::now_ns();
  const double wall = static_cast<double>(end - start) * 1e-9;
  const double cpu = process_cpu_s() - cpu0;
  rss.stop();
  for (auto& t : s->taps) t->set_timing(false);
  const serve::EngineStats es = engine.stats();
  const device::CacheCounters cache1 = pool->cache_counters();

  // ---- checks and end-to-end ----------------------------------------------
  std::vector<double> lat_ms, by_kind[4][2], admit_us, queue_ms, exec_ms,
      notify_us, lat_timed, lat_untimed;
  double exec_total_s = 0;
  std::size_t executed = 0;
  for (Arrival& a : arrivals) {
    ++res.attempted;
    if (a.refused || a.state != serve::QueryState::kDone) {
      ++res.failed;
      continue;
    }
    if (!check(a, oracles[a.graph])) {
      ++res.mismatches;
      ++res.failed;
    }
    const double l = static_cast<double>(a.wake - a.due) * 1e-6;
    lat_ms.push_back(l);
    by_kind[a.kind][a.graph].push_back(static_cast<double>(a.exec1 - a.exec0) *
                                       1e-9);
    admit_us.push_back(static_cast<double>(a.submit1 - a.submit0) * 1e-3);
    // A session may start the query before submit() has returned, so the
    // queue wait runs from the submit call, not from its return.
    queue_ms.push_back(static_cast<double>(a.exec0 - a.submit0) * 1e-6);
    exec_ms.push_back(static_cast<double>(a.exec1 - a.exec0) * 1e-6);
    notify_us.push_back(static_cast<double>(a.wake - a.exec1) * 1e-3);
    exec_total_s += static_cast<double>(a.exec1 - a.exec0) * 1e-9;
    ++executed;
    if (opt.trace) {
      (((a.due - start) / 1'000'000'000) % 2 == 0 ? lat_timed : lat_untimed)
          .push_back(l);
    }
  }
  res.add("setup_s", median(setup_s), "s");
  // Per kind: the median execution time on each graph, combined as their
  // geometric mean, so the r2/tw split of a run's samples cannot move it.
  for (int k = 0; k < 4; ++k) {
    res.add(std::string(kKindNames[k]) + "_s",
            std::sqrt(median(by_kind[k][0]) * median(by_kind[k][1])), "s");
  }
  res.add("p95_ms", percentile(lat_ms, 0.95), "ms");
  res.add("peak_rss_mib", rss.peak_mib(), "MiB");
  res.add("failed_frac",
          res.attempted ? static_cast<double>(res.failed) /
                              static_cast<double>(res.attempted)
                        : 0,
          "ratio");
  res.add("queries", static_cast<double>(executed), "count");
  res.add("serve.p50_ms", percentile(lat_ms, 0.50), "ms");
  res.add("serve.p95_ms", percentile(lat_ms, 0.95), "ms");
  for (int k = 0; k < 4; ++k) {
    res.add(std::string("serve.samples.") + kKindNames[k],
            static_cast<double>(by_kind[k][0].size() + by_kind[k][1].size()),
            "count");
  }

  // ---- per layer ----------------------------------------------------------
  res.add("serve.rate_qps", kRateQps, "1/s");
  res.add("serve.completed_qps", static_cast<double>(executed) / wall, "1/s");
  res.add("serve.admit_us.p50", percentile(admit_us, 0.50), "us");
  res.add("serve.queue_ms.p95", percentile(queue_ms, 0.95), "ms");
  res.add("serve.exec_ms.p50", percentile(exec_ms, 0.50), "ms");
  res.add("serve.exec_ms.p95", percentile(exec_ms, 0.95), "ms");
  res.add("serve.notify_us.p50", percentile(notify_us, 0.50), "us");
  res.add("serve.cache_hit_ratio", es.cache_hit_rate, "ratio");
  res.add("serve.gen_lateness_ms.max", lateness_max_ms, "ms");
  res.add("serve.busy_frac", exec_total_s / (wall * kSessions), "ratio");

  res.add("graph.gen_s", median(gen_s), "s");
  res.add("format.encode_s", median(encode_s), "s");
  res.add("format.open_s", median(open_s), "s");
  res.add("core.runtime_build_s", median(runtime_s), "s");
  res.add("format.bytes_per_edge", 4.0, "B/edge");
  if (scan) {
    res.add("format.scan_ns_per_page.flat", scan->flat_ns_per_page, "ns");
    res.add("format.scan_ns_per_page.dvarint", scan->dvarint_ns_per_page, "ns");
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, executed));
  std::uint64_t bytes = 0, reads = 0, busy = 0;
  for (std::size_t i = 0; i < s->leaves.size(); ++i) {
    bytes += s->leaves[i]->stats().total_bytes() - leaf0_bytes[i];
    reads += s->leaves[i]->stats().total_reads() - leaf0_reads[i];
    busy += s->leaves[i]->stats().busy_ns() - leaf0_busy[i];
  }
  // One device per adjacency: no RAID-0 array, so no member imbalance.
  add_device_metrics(res, n, bytes, reads, busy, s->leaves.size(), wall, 1.0,
                     es.aggregate);
  if (opt.trace) add_tap_metrics(res, s->taps, s->leaves);
  add_cache_metrics(res, n, cache0, cache1);
  add_io_core_metrics(res, executed, es.aggregate, kWorkersPerSession, cpu,
                      wall, exec_total_s);
  res.add("ceiling.inmem.bfs_s", median(c_bfs), "s");
  res.add("ceiling.inmem.pr_s", median(c_pr), "s");
  res.add("ceiling.inmem.wcc_s", median(c_wcc), "s");
  res.add("ceiling.inmem.sssp_s", median(c_sssp), "s");

  if (opt.trace) {
    // Async vs BSP SSSP demand bytes through the engine, one source.
    const GraphOracles& o = oracles[0];
    std::uint64_t bsp_bytes = 0, async_bytes = 0;
    bool ok[2] = {false, false};
    for (int mode = 0; mode < 2; ++mode) {
      serve::QuerySpec spec;
      spec.graph = kGraphs[0];
      spec.run = [&, mode](core::QueryContext& qc) {
        core::Config c = qc.config();
        c.execution_mode =
            mode ? core::ExecutionMode::kAsync : core::ExecutionMode::kBsp;
        core::QueryContext ctx(c, qc.io_pipeline(), qc.pool());
        ctx.set_graph(qc.graph());
        auto r = algorithms::sssp(ctx, *ctx.graph(), o.sources[0]);
        ok[mode] = r.dist == o.sssp[0];
        (mode ? async_bytes : bsp_bytes) = r.stats.bytes_read;
        return r.stats;
      };
      engine.submit(std::move(spec))->wait();
      ++res.attempted;
      if (!ok[mode]) ++res.mismatches, ++res.failed;
    }
    res.add("sched.bytes_vs_bsp",
            static_cast<double>(async_bytes) /
                static_cast<double>(std::max<std::uint64_t>(1, bsp_bytes)),
            "ratio");
    const double off = median(lat_untimed);
    res.add("trace.overhead", off > 0 ? median(lat_timed) / off : 0, "ratio");

    SpanLog spans(true);
    for (const Arrival& a : arrivals) {
      if (a.refused || a.wake == 0) continue;
      const std::uint64_t q = spans.new_id();
      spans.add("serve.query", q, 0, a.due, a.wake, q);
      spans.add("serve.gen_lateness", q, q, a.due, a.submit0);
      spans.add("serve.admit", q, q, a.submit0, a.submit1);
      if (a.exec0 == 0) continue;
      spans.add("serve.queue", q, q, a.submit0, a.exec0);
      spans.add(std::string("serve.exec.") + kKindNames[a.kind], q, q,
                a.exec0, a.exec1);
      spans.add("serve.notify", q, q, a.exec1, a.wake);
    }
    finish_trace(res, spans, opt);
  }
  return res;
}

}  // namespace perfbench
