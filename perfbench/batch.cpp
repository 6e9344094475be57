// batch-file and batch-ssd: back-to-back batch analytics on the r3
// stand-in (2^19 vertices, 16 edges per vertex).
//
//   batch-file  dvarint graph files opened with load_graph_files
//               (FileDevice, warm OS page cache), no Blaze page cache.
//   batch-ssd   flat adjacency, page-interleaved RAID-0 over two
//               scaled-Optane SimulatedSsds per direction, one shared
//               S3-FIFO page cache at 25 % of the out+in adjacency; SSSP
//               runs in ExecutionMode::kAsync.
//
// A pass runs BFS and SSSP from each of six (batch-ssd: three) seeded
// sources, PageRank with 10 fixed iterations (epsilon 0) and WCC. Passes
// repeat until the run's time is up; every result is checked against
// baselines::inmem after the call returns, outside the timed region.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "baselines/inmem.h"
#include "bench.h"
#include "core/runtime.h"
#include "device/raid0_device.h"
#include "device/simulated_ssd.h"
#include "device/ssd_profile.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "probes.h"

namespace perfbench {
namespace {

using namespace blaze;

constexpr unsigned kShift = 1;        // r3 stand-in: 2^19 V, 8.4 M E
constexpr std::size_t kWorkers = 4;
constexpr double kSsdScale = 40;      // bandwidth divisor per member
constexpr std::size_t kMembers = 2;   // RAID-0 members per direction
constexpr double kCacheShare = 0.25;  // of out+in adjacency bytes
constexpr unsigned kPrIterations = 10;
constexpr int kSetupReps = 3;
constexpr std::size_t kSourcePool = 32;

const char* const kQueries[] = {"bfs", "sssp", "pr", "wcc"};

/// One set-up: graphs on their devices plus the runtime. The runtime is
/// declared after the graphs so it (and its IO readers) goes first.
struct Stack {
  graph::Csr csr, csr_t;
  format::OnDiskGraph out, in;
  std::vector<std::shared_ptr<device::BlockDevice>> leaves;
  std::vector<std::shared_ptr<TimedDevice>> taps;  // traced run only
  std::vector<std::vector<std::size_t>> arrays;    // leaf indices per array
  double member_bytes_per_s = 0;                   // modeled, batch-ssd
  double gen_s = 0, encode_s = 0, open_s = 0, runtime_s = 0, total_s = 0;
  std::unique_ptr<core::Runtime> rt;
  std::unique_ptr<core::QueryContext> async_ctx;  // batch-ssd SSSP
};

core::Config batch_config(std::size_t cache_bytes) {
  core::Config cfg;
  cfg.compute_workers = kWorkers;
  cfg.cache_bytes = cache_bytes;
  return cfg;
}

/// Records `leaf` in the stack; in the traced run returns it wrapped in a
/// TimedDevice.
std::shared_ptr<device::BlockDevice> tap(
    Stack& s, std::shared_ptr<device::BlockDevice> leaf, bool traced) {
  s.leaves.push_back(leaf);
  if (!traced) return leaf;
  auto t = std::make_shared<TimedDevice>(std::move(leaf));
  s.taps.push_back(t);
  return t;
}

/// Lays `csr` flat and page-interleaved over kMembers SimulatedSsds.
std::vector<std::shared_ptr<device::SimulatedSsd>> lay_out_flat(
    const graph::Csr& csr, const device::SsdProfile& profile,
    const std::string& name) {
  const std::vector<std::byte> adj = format::serialize_adjacency(csr);
  const std::uint64_t pages = adj.size() / kPageSize;
  const std::uint64_t per_member = (pages + kMembers - 1) / kMembers;
  std::vector<std::shared_ptr<device::SimulatedSsd>> members;
  for (std::size_t i = 0; i < kMembers; ++i) {
    members.push_back(std::make_shared<device::SimulatedSsd>(
        name + std::to_string(i), per_member * kPageSize, profile));
  }
  for (std::uint64_t p = 0; p < pages; ++p) {
    std::memcpy(members[p % kMembers]->raw().data() +
                    (p / kMembers) * kPageSize,
                adj.data() + p * kPageSize, kPageSize);
  }
  return members;
}

void sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot sync " + path);
  }
  ::close(fd);
}

std::unique_ptr<Stack> set_up(bool ssd, const Options& opt) {
  auto s = std::make_unique<Stack>();
  const double t_begin = now_s();

  double t = now_s();
  s->csr = graph::make_dataset("r3", kShift).csr;
  s->csr_t = graph::transpose(s->csr);
  s->gen_s = now_s() - t;

  if (!ssd) {
    const std::string dir = std::string(kWorkDir) + "/batch-file";
    std::filesystem::create_directories(dir);
    t = now_s();
    format::write_graph_files(s->csr, dir + "/out",
                              format::AdjacencyEncoding::kDeltaVarint);
    format::write_graph_files(s->csr_t, dir + "/in",
                              format::AdjacencyEncoding::kDeltaVarint);
    // Written means on disk: background writeback would otherwise overlap
    // the query phase.
    for (const char* f : {"/out.gr.index", "/out.gr.adj.0", "/in.gr.index",
                          "/in.gr.adj.0"}) {
      sync_file(dir + f);
    }
    s->encode_s = now_s() - t;

    t = now_s();
    s->rt = std::make_unique<core::Runtime>(batch_config(0));
    s->runtime_s = now_s() - t;

    t = now_s();
    for (const char* side : {"out", "in"}) {
      format::OnDiskGraph g = format::load_graph_files(
          dir + "/" + side + ".gr.index", dir + "/" + side + ".gr.adj.0");
      auto dev = tap(*s, g.device_ptr(), opt.trace);
      if (opt.trace) g = format::OnDiskGraph(g.index(), dev);
      s->arrays.push_back({s->leaves.size() - 1});
      (side[0] == 'o' ? s->out : s->in) = std::move(g);
    }
    s->open_s = now_s() - t;
  } else {
    const auto profile = device::optane_p4800x().scaled(kSsdScale);
    s->member_bytes_per_s = profile.seq_read_mbps * 1e6;
    t = now_s();
    auto out_members = lay_out_flat(s->csr, profile, "out");
    auto in_members = lay_out_flat(s->csr_t, profile, "in");
    format::GraphIndex out_index(degrees_of(s->csr));
    format::GraphIndex in_index(degrees_of(s->csr_t));
    s->encode_s = now_s() - t;

    t = now_s();
    const auto cache_bytes = static_cast<std::size_t>(
        kCacheShare * static_cast<double>(out_index.total_adjacency_bytes() +
                                          in_index.total_adjacency_bytes()));
    s->rt = std::make_unique<core::Runtime>(batch_config(cache_bytes));
    core::Config async_cfg = s->rt->config();
    async_cfg.execution_mode = core::ExecutionMode::kAsync;
    s->async_ctx = std::make_unique<core::QueryContext>(
        async_cfg, s->rt->io_pipeline(), s->rt->pool());
    s->runtime_s = now_s() - t;

    t = now_s();
    auto open = [&](auto& members, format::GraphIndex index) {
      std::vector<std::shared_ptr<device::BlockDevice>> children;
      std::vector<std::size_t> array;
      for (auto& m : members) {
        children.push_back(tap(*s, m, opt.trace));
        array.push_back(s->leaves.size() - 1);
      }
      s->arrays.push_back(array);
      auto raid = std::make_shared<device::Raid0Device>(std::move(children));
      return format::OnDiskGraph(std::move(index),
                                 s->rt->wrap_cached(std::move(raid)));
    };
    s->out = open(out_members, std::move(out_index));
    s->in = open(in_members, std::move(in_index));
    s->open_s = now_s() - t;
  }
  s->total_s = now_s() - t_begin;
  return s;
}

// ---- oracles ---------------------------------------------------------------

struct Oracles {
  std::vector<vertex_t> sources;
  std::vector<std::vector<std::uint32_t>> bfs, sssp;
  std::vector<float> pr;
  std::vector<vertex_t> wcc;
  double bfs_s = 0, sssp_s = 0, pr_s = 0, wcc_s = 0;
};

/// The oracles of every source run on up to 4 threads; the first
/// source's and the PR/WCC oracles run alone first, and their times are
/// the single-threaded in-memory ceilings.
Oracles compute_oracles(const graph::Csr& g, std::uint64_t seed) {
  Oracles o;
  o.sources = pick_sources(g, kSourcePool, mix_seed(seed, 2));
  o.bfs.resize(kSourcePool);
  o.sssp.resize(kSourcePool);
  double t = now_s();
  o.bfs[0] = baseline::inmem::bfs_dist(g, o.sources[0]);
  o.bfs_s = now_s() - t;
  t = now_s();
  o.sssp[0] = baseline::inmem::sssp_dist(g, o.sources[0]);
  o.sssp_s = now_s() - t;
  t = now_s();
  o.pr = baseline::inmem::pagerank_delta(g, 0.85, 0.0, kPrIterations);
  o.pr_s = now_s() - t;
  t = now_s();
  o.wcc = baseline::inmem::wcc(g);
  o.wcc_s = now_s() - t;
  parallel_for(kSourcePool - 1, [&](std::size_t i) {
    o.bfs[i + 1] = baseline::inmem::bfs_dist(g, o.sources[i + 1]);
    o.sssp[i + 1] = baseline::inmem::sssp_dist(g, o.sources[i + 1]);
  });
  return o;
}

// ---- the query phase -----------------------------------------------------

struct LeafSnap {
  std::vector<std::uint64_t> bytes, reads, busy_ns;
};

LeafSnap snap(const Stack& s) {
  LeafSnap l;
  for (const auto& d : s.leaves) {
    l.bytes.push_back(d->stats().total_bytes());
    l.reads.push_back(d->stats().total_reads());
    l.busy_ns.push_back(d->stats().busy_ns());
  }
  return l;
}

struct QueryRecord {
  std::string type;
  double wall_s = 0;
  core::QueryStats stats;
  bool ran = false;      // returned instead of throwing
  bool correct = false;  // and matched the oracle
};

/// Runs one query; `check` compares its result with the oracle and is
/// called after the timed region.
struct Outcome {
  core::QueryStats stats;
  std::function<bool()> check;
};

Outcome run_query(Stack& s, bool ssd, const std::string& type, vertex_t src,
                  const Oracles& o, std::size_t slot) {
  if (type == "bfs") {
    auto r = std::make_shared<algorithms::BfsResult>(
        algorithms::bfs(*s.rt, s.out, src));
    return {r->stats, [r, &o, slot, src] {
              return bfs_matches(r->parent, o.bfs[slot], src);
            }};
  }
  if (type == "sssp") {
    auto r = std::make_shared<algorithms::SsspResult>(
        ssd ? algorithms::sssp(*s.async_ctx, s.out, src)
            : algorithms::sssp(*s.rt, s.out, src));
    return {r->stats, [r, &o, slot] { return r->dist == o.sssp[slot]; }};
  }
  if (type == "pr") {
    algorithms::PageRankOptions po;
    po.epsilon = 0.0;
    po.max_iterations = kPrIterations;
    auto r = std::make_shared<algorithms::PageRankResult>(
        algorithms::pagerank(*s.rt, s.out, po));
    return {r->stats, [r, &o] { return pr_matches(r->rank, o.pr); }};
  }
  auto r = std::make_shared<algorithms::WccResult>(
      algorithms::wcc(*s.rt, s.out, s.in));
  return {r->stats, [r, &o] { return r->ids == o.wcc; }};
}

}  // namespace

Result run_batch(const Options& opt) {
  const bool ssd = opt.workload == "batch-ssd";
  // BFS and SSSP sources per pass, sized so a run holds at least four
  // PR and WCC samples next to a dozen or more source samples.
  const std::size_t per_pass = ssd ? 3 : 6;
  Result res;

  // Set up several times; report the median and keep the last stack.
  std::vector<double> setup_s, gen_s, encode_s, open_s, runtime_s;
  std::unique_ptr<Stack> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    s = set_up(ssd, opt);
    setup_s.push_back(s->total_s);
    gen_s.push_back(s->gen_s);
    encode_s.push_back(s->encode_s);
    open_s.push_back(s->open_s);
    runtime_s.push_back(s->runtime_s);
  }
  const double bytes_per_edge = s->out.bytes_per_edge();

  const Oracles o = compute_oracles(s->csr, opt.seed);
  std::optional<ScanProbe> scan;
  if (opt.trace) scan = probe_page_scan({&s->csr});
  // The query phase holds only what the program needs.
  s->csr = graph::Csr();
  s->csr_t = graph::Csr();

  SpanLog spans(opt.trace);
  std::vector<QueryRecord> records;
  std::vector<double> pass_walls[2];      // [timing on]
  std::vector<double> pass_io_floor_s;    // batch-ssd
  const auto cache = s->rt->page_cache();
  const device::CacheCounters cache0 =
      cache ? cache->cache_counters() : device::CacheCounters{};
  const LeafSnap leaf0 = snap(*s);

  RssSampler rss;
  rss.start();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  for (int pass = 0; pass == 0 || now_s() - t0 < opt.seconds; ++pass) {
    // The traced run alternates decorator timing on and off by pass, so
    // trace.overhead compares the two within one process.
    const bool timing = opt.trace && pass % 2 == 0;
    for (auto& t : s->taps) t->set_timing(timing);
    // Pass p takes the p-th group of per_pass sources; traced runs
    // give each group one timed and one untimed pass.
    const std::size_t group =
        static_cast<std::size_t>(opt.trace ? pass / 2 : pass) %
        (kSourcePool / per_pass);
    const LeafSnap pass0 = snap(*s);
    const std::uint64_t pass_id = spans.new_id();
    const std::uint64_t p_t0 = Timer::now_ns();
    std::vector<std::pair<const char*, std::size_t>> plan;  // (kind, slot)
    for (std::size_t i = 0; i < per_pass; ++i) {
      plan.push_back({"bfs", group * per_pass + i});
      plan.push_back({"sssp", group * per_pass + i});
    }
    plan.push_back({"pr", 0});
    plan.push_back({"wcc", 0});
    for (const auto& [type, slot] : plan) {
      QueryRecord r;
      r.type = type;
      const std::uint64_t q_t0 = Timer::now_ns();
      Outcome out;
      try {
        out = run_query(*s, ssd, type, o.sources[slot], o, slot);
        r.ran = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s query failed: %s\n", type,
                     e.what());
      }
      const std::uint64_t q_t1 = Timer::now_ns();
      r.stats = out.stats;
      r.correct = r.ran && out.check();
      r.wall_s = static_cast<double>(q_t1 - q_t0) * 1e-9;
      spans.add(std::string("algorithms::") + type, spans.new_id(), pass_id,
                q_t0, q_t1);
      records.push_back(r);
    }
    const std::uint64_t p_t1 = Timer::now_ns();
    spans.add("pass", pass_id, 0, p_t0, p_t1, pass_id);
    pass_walls[timing].push_back(static_cast<double>(p_t1 - p_t0) * 1e-9);
    if (ssd) {
      const LeafSnap pass1 = snap(*s);
      std::uint64_t worst = 0;
      for (std::size_t i = 0; i < pass1.bytes.size(); ++i) {
        worst = std::max(worst, pass1.bytes[i] - pass0.bytes[i]);
      }
      pass_io_floor_s.push_back(static_cast<double>(worst) /
                                s->member_bytes_per_s);
    }
  }
  const double wall = now_s() - t0;
  const double cpu = process_cpu_s() - cpu0;
  rss.stop();
  const LeafSnap leaf1 = snap(*s);
  const device::CacheCounters cache1 =
      cache ? cache->cache_counters() : device::CacheCounters{};

  // ---- end-to-end ----------------------------------------------------------
  std::vector<double> all_ms;
  for (const auto& r : records) {
    ++res.attempted;
    if (!r.ran) {
      ++res.failed;
      continue;
    }
    if (!r.correct) ++res.mismatches, ++res.failed;
    all_ms.push_back(r.wall_s * 1e3);
  }
  res.add("setup_s", median(setup_s), "s");
  for (const char* type : kQueries) {
    std::vector<double> w;
    for (const auto& r : records) {
      if (r.ran && r.type == type) w.push_back(r.wall_s);
    }
    res.add(std::string(type) + "_s", median(w), "s");
  }
  res.add("p95_ms", percentile(all_ms, 0.95), "ms");
  res.add("peak_rss_mib", rss.peak_mib(), "MiB");
  res.add("failed_frac",
          static_cast<double>(res.failed) / static_cast<double>(res.attempted),
          "ratio");
  res.add("queries", static_cast<double>(records.size()), "count");

  // ---- per layer ------------------------------------------------------------
  const double n = static_cast<double>(records.size());
  res.add("graph.gen_s", median(gen_s), "s");
  res.add("format.encode_s", median(encode_s), "s");
  res.add("format.open_s", median(open_s), "s");
  res.add("core.runtime_build_s", median(runtime_s), "s");
  res.add("format.bytes_per_edge", bytes_per_edge, "B/edge");
  if (scan) {
    res.add("format.scan_ns_per_page.flat", scan->flat_ns_per_page, "ns");
    res.add("format.scan_ns_per_page.dvarint", scan->dvarint_ns_per_page, "ns");
  }

  core::QueryStats total;
  for (const auto& r : records) total.merge(r.stats);
  std::uint64_t leaf_bytes = 0, leaf_reads = 0, leaf_busy = 0;
  for (std::size_t i = 0; i < leaf1.bytes.size(); ++i) {
    leaf_bytes += leaf1.bytes[i] - leaf0.bytes[i];
    leaf_reads += leaf1.reads[i] - leaf0.reads[i];
    leaf_busy += leaf1.busy_ns[i] - leaf0.busy_ns[i];
  }
  double imbalance = 1.0;
  for (const auto& array : s->arrays) {
    std::uint64_t mx = 0, sum = 0;
    for (std::size_t i : array) {
      const std::uint64_t b = leaf1.bytes[i] - leaf0.bytes[i];
      mx = std::max(mx, b);
      sum += b;
    }
    if (sum > 0) {
      imbalance = std::max(imbalance, static_cast<double>(mx) *
                                          static_cast<double>(array.size()) /
                                          static_cast<double>(sum));
    }
  }
  add_device_metrics(res, n, leaf_bytes, leaf_reads, leaf_busy,
                     s->leaves.size(), wall, imbalance, total);
  if (opt.trace) add_tap_metrics(res, s->taps, s->leaves);
  add_cache_metrics(res, n, cache0, cache1);
  add_io_core_metrics(res, records.size(), total, kWorkers, cpu, wall,
                      [&] {
                        double sum = 0;
                        for (const auto& r : records) sum += r.wall_s;
                        return sum;
                      }());
  if (ssd) res.add("ceiling.io_s", median(pass_io_floor_s), "s");
  res.add("ceiling.pass_s", median(pass_walls[0].empty() ? pass_walls[1]
                                                         : pass_walls[0]),
          "s");
  res.add("ceiling.inmem.bfs_s", o.bfs_s, "s");
  res.add("ceiling.inmem.pr_s", o.pr_s, "s");
  res.add("ceiling.inmem.wcc_s", o.wcc_s, "s");
  res.add("ceiling.inmem.sssp_s", o.sssp_s, "s");

  if (opt.trace) {
    // Async vs BSP SSSP demand bytes from one source, outside the timed
    // passes; both results are checked too.
    for (auto& t : s->taps) t->set_timing(false);
    core::Config async_cfg = s->rt->config();
    async_cfg.execution_mode = core::ExecutionMode::kAsync;
    core::QueryContext async_ctx(async_cfg, s->rt->io_pipeline(),
                                 s->rt->pool());
    auto bsp = algorithms::sssp(*s->rt, s->out, o.sources[0]);
    auto asy = algorithms::sssp(async_ctx, s->out, o.sources[0]);
    res.attempted += 2;
    if (bsp.dist != o.sssp[0]) ++res.mismatches, ++res.failed;
    if (asy.dist != o.sssp[0]) ++res.mismatches, ++res.failed;
    res.add("sched.bytes_vs_bsp",
            static_cast<double>(asy.stats.bytes_read) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, bsp.stats.bytes_read)),
            "ratio");
    const double on = median(pass_walls[1]), off = median(pass_walls[0]);
    res.add("trace.overhead", off > 0 ? on / off : 0, "ratio");
    finish_trace(res, spans, opt);
  }
  std::error_code ec;
  std::filesystem::remove_all(std::string(kWorkDir) + "/batch-file", ec);
  return res;
}

}  // namespace perfbench
