// blaze::metrics tests: registry identity and concurrency, callback
// lifecycle, sampler ring semantics, exporter formats (Prometheus text +
// JSON), the device-bandwidth reconciliation the Figure 2 pipeline relies
// on, the embedded HTTP scrape endpoint, and the serve-layer series a
// QueryEngine publishes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/stats.h"
#include "device/io_stats.h"
#include "metrics/export.h"
#include "metrics/http_export.h"
#include "metrics/metrics.h"
#include "metrics/sampler.h"
#include "serve/query_engine.h"
#include "test_helpers.h"

namespace blaze {
namespace {

using metrics::Kind;
using metrics::Labels;
using metrics::Registry;
using metrics::SampleRow;

const SampleRow* find_row(const std::vector<SampleRow>& rows,
                          const std::string& name,
                          const Labels& labels = {}) {
  for (const SampleRow& r : rows) {
    if (r.name == name && r.labels == labels) return &r;
  }
  return nullptr;
}

// ----------------------------------------------------------------- Registry

TEST(MetricsRegistry, SameNameSameHandle) {
  Registry reg;
  metrics::Counter* a = reg.counter("requests");
  metrics::Counter* b = reg.counter("requests");
  EXPECT_EQ(a, b);
  a->add(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(reg.num_series(), 1u);
}

TEST(MetricsRegistry, LabelsDistinguishSeries) {
  Registry reg;
  metrics::Counter* nvme0 =
      reg.counter("bytes", {{"device", "nvme0"}});
  metrics::Counter* nvme1 =
      reg.counter("bytes", {{"device", "nvme1"}});
  EXPECT_NE(nvme0, nvme1);
  // Label order must not matter for identity.
  metrics::Counter* ab =
      reg.counter("multi", {{"a", "1"}, {"b", "2"}});
  metrics::Counter* ba =
      reg.counter("multi", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(reg.num_series(), 3u);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  Registry reg;
  metrics::Gauge* g = reg.gauge("depth");
  g->set(4.0);
  g->add(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 6.5);
  const auto rows = reg.snapshot();
  const SampleRow* row = find_row(rows, "depth");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->kind, Kind::kGauge);
  EXPECT_DOUBLE_EQ(row->value, 6.5);
}

TEST(MetricsRegistry, HistogramSnapshotMatchesObservations) {
  Registry reg;
  metrics::Histogram* h = reg.histogram("latency");
  h->observe(1);
  h->observe(5);
  h->observe(5);
  h->observe(1000);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 1011u);
  Log2Histogram snap = h->snapshot();
  EXPECT_EQ(snap.count(), 4u);
  EXPECT_EQ(snap.bucket(Log2Histogram::bucket_of(5)), 2u);
  const auto rows = reg.snapshot();
  const SampleRow* row = find_row(rows, "latency");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->kind, Kind::kHistogram);
  EXPECT_EQ(row->count, 4u);
  EXPECT_EQ(row->sum, 1011u);
  std::uint64_t total =
      std::accumulate(row->buckets.begin(), row->buckets.end(), 0ull);
  EXPECT_EQ(total, 4u);
}

// Many threads hammering one counter while others mint fresh series: the
// final count must be exact and every series must exist. Run under TSan in
// CI — this is the registry's concurrency contract.
TEST(MetricsRegistry, ConcurrentUpdatesAndRegistration) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 20000;
  metrics::Counter* shared = reg.counter("shared_total");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread also repeatedly resolves its own series and a shared
      // one, exercising the registry lock against the lock-free hot path.
      metrics::Counter* mine =
          reg.counter("per_thread_total",
                      {{"thread", std::to_string(t)}});
      for (int i = 0; i < kIncsPerThread; ++i) {
        shared->inc();
        mine->inc();
        if (i % 4096 == 0) {
          EXPECT_EQ(reg.counter("shared_total"), shared);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared->value(),
            static_cast<std::uint64_t>(kThreads) * kIncsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const metrics::Counter* mine =
        reg.counter("per_thread_total", {{"thread", std::to_string(t)}});
    EXPECT_EQ(mine->value(), static_cast<std::uint64_t>(kIncsPerThread));
  }
}

TEST(MetricsRegistry, CallbackLifecycle) {
  Registry reg;
  std::atomic<double> depth{7.0};
  metrics::CallbackId id = reg.callback(
      "queue_depth", {}, Kind::kGauge,
      [&] { return depth.load(std::memory_order_relaxed); });
  auto rows = reg.snapshot();
  const SampleRow* row = find_row(rows, "queue_depth");
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->value, 7.0);

  depth.store(9.0);
  rows = reg.snapshot();
  EXPECT_DOUBLE_EQ(find_row(rows, "queue_depth")->value, 9.0);

  reg.unregister(id);
  rows = reg.snapshot();
  EXPECT_EQ(find_row(rows, "queue_depth"), nullptr);
}

// Snapshots racing callback unregistration must never fire a dead
// callback; the atomic flag would trip (and TSan would flag a use after
// free of the lambda captures).
TEST(MetricsRegistry, UnregisterRacesSnapshot) {
  Registry reg;
  for (int round = 0; round < 20; ++round) {
    auto alive = std::make_shared<std::atomic<bool>>(true);
    metrics::CallbackId id = reg.callback(
        "transient", {}, Kind::kGauge, [alive] {
          EXPECT_TRUE(alive->load());
          return 1.0;
        });
    std::thread snapshotter([&] {
      for (int i = 0; i < 50; ++i) (void)reg.snapshot();
    });
    reg.unregister(id);
    alive->store(false);
    snapshotter.join();
  }
}

TEST(MetricsRegistry, BindingSetClearsOnDestruction) {
  // BindingSet talks to the process-wide instance; use unique names.
  Registry& reg = Registry::instance();
  const std::size_t before = reg.num_series();
  {
    metrics::BindingSet bindings;
    bindings.add(reg.callback("test_bindingset_a", {}, Kind::kGauge,
                              [] { return 1.0; }));
    bindings.add(reg.callback("test_bindingset_b", {}, Kind::kGauge,
                              [] { return 2.0; }));
    EXPECT_FALSE(bindings.empty());
    EXPECT_EQ(reg.num_series(), before + 2);
  }
  EXPECT_EQ(reg.num_series(), before);
  EXPECT_EQ(find_row(reg.snapshot(), "test_bindingset_a"), nullptr);
}

// ------------------------------------------------------------------ Sampler

TEST(MetricsSampler, RingBoundEvictsOldest) {
  Registry reg;
  metrics::Counter* c = reg.counter("ticks");
  metrics::Sampler::Options opts;
  opts.capacity = 8;
  metrics::Sampler sampler(reg, opts);
  for (int i = 0; i < 20; ++i) {
    c->inc();
    sampler.sample_once();
  }
  EXPECT_EQ(sampler.num_points(), 8u);
  auto ts = sampler.snapshot();
  EXPECT_EQ(ts.points.size(), 8u);
  EXPECT_EQ(ts.evicted_points, 12u);
  ASSERT_EQ(ts.series.size(), 1u);
  EXPECT_EQ(ts.series[0].name, "ticks");
  // Oldest-first: the surviving window is ticks 13..20.
  for (std::size_t i = 0; i < ts.points.size(); ++i) {
    ASSERT_EQ(ts.points[i].values.size(), 1u);
    EXPECT_DOUBLE_EQ(ts.points[i].values[0], 13.0 + i);
    if (i > 0) {
      EXPECT_GE(ts.points[i].ts_ns, ts.points[i - 1].ts_ns);
    }
  }
}

TEST(MetricsSampler, LateSeriesAlignWithTable) {
  Registry reg;
  reg.counter("first")->add(1);
  metrics::Sampler sampler(reg);
  sampler.sample_once();
  reg.counter("second")->add(2);
  sampler.sample_once();
  auto ts = sampler.snapshot();
  ASSERT_EQ(ts.series.size(), 2u);
  ASSERT_EQ(ts.points.size(), 2u);
  // The first point predates "second": it only carries "first"'s value.
  EXPECT_EQ(ts.points[0].values.size(), 1u);
  EXPECT_EQ(ts.points[1].values.size(), 2u);
  std::size_t second_idx = ts.series[0].name == "second" ? 0 : 1;
  EXPECT_EQ(ts.series[second_idx].name, "second");
  EXPECT_DOUBLE_EQ(ts.points[1].values[second_idx], 2.0);
}

TEST(MetricsSampler, ThreadedStartStop) {
  Registry reg;
  std::atomic<std::uint64_t> polls{0};
  metrics::CallbackId id = reg.callback(
      "polled", {}, Kind::kGauge, [&] {
        return static_cast<double>(
            polls.fetch_add(1, std::memory_order_relaxed));
      });
  metrics::Sampler::Options opts;
  opts.interval_ms = 1;
  metrics::Sampler sampler(reg, opts);
  EXPECT_FALSE(sampler.running());
  sampler.start();
  sampler.start();  // idempotent
  EXPECT_TRUE(sampler.running());
  while (sampler.num_points() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  sampler.stop();  // idempotent
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.num_points(), 3u);
  EXPECT_GT(polls.load(), 0u);
  const std::size_t after_stop = sampler.num_points();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(sampler.num_points(), after_stop);  // thread really stopped
  reg.unregister(id);
}

TEST(MetricsSampler, OnSampleObserverSeesFreshPoint) {
  Registry reg;
  metrics::Counter* c = reg.counter("obs");
  c->add(41);
  std::atomic<int> calls{0};
  double seen = -1;
  metrics::Sampler sampler(reg);
  sampler.set_on_sample(
      [&](const metrics::Sampler::Point& p,
          const std::vector<metrics::Sampler::Series>& series) {
        ASSERT_EQ(series.size(), 1u);
        ASSERT_EQ(p.values.size(), 1u);
        seen = p.values[0];
        calls.fetch_add(1);
      });
  c->inc();
  sampler.sample_once();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

// ---------------------------------------------------------------- Exporters

TEST(MetricsExport, PrometheusText) {
  Registry reg;
  reg.counter("blaze_reads_total", {{"device", "nvme0"}})->add(17);
  reg.gauge("blaze_depth")->set(3.5);
  metrics::Histogram* h = reg.histogram("blaze_lat_us");
  h->observe(1);
  h->observe(3);  // bucket [2,4)
  const std::string text = metrics::to_prometheus(reg);

  EXPECT_NE(text.find("# TYPE blaze_reads_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("blaze_reads_total{device=\"nvme0\"} 17"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE blaze_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("blaze_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE blaze_lat_us histogram"), std::string::npos);
  // Cumulative buckets: bucket 0 ({0,1}, le="1") sees the observe(1);
  // bucket 1 ([2,4), le="3") sees both; +Inf always equals count.
  EXPECT_NE(text.find("blaze_lat_us_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("blaze_lat_us_bucket{le=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("blaze_lat_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("blaze_lat_us_sum 4"), std::string::npos);
  EXPECT_NE(text.find("blaze_lat_us_count 2"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(MetricsExport, PrometheusEscapesLabelValues) {
  Registry reg;
  reg.counter("esc_total", {{"path", "a\"b\\c\nd"}})->add(1);
  const std::string text = metrics::to_prometheus(reg);
  EXPECT_NE(text.find("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(MetricsExport, SnapshotJsonShape) {
  Registry reg;
  reg.counter("c_total", {{"k", "v"}})->add(2);
  reg.histogram("h_us")->observe(10);
  const std::string json = metrics::snapshot_json(reg.snapshot());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsExport, TimeseriesAndDumpJson) {
  Registry reg;
  metrics::Counter* c = reg.counter("ts_total");
  metrics::Sampler sampler(reg);
  c->inc();
  sampler.sample_once();
  c->inc();
  sampler.sample_once();
  const std::string ts_json = metrics::timeseries_json(sampler.snapshot());
  EXPECT_EQ(ts_json.front(), '{');
  EXPECT_NE(ts_json.find("\"interval_ms\""), std::string::npos);
  EXPECT_NE(ts_json.find("\"evicted_points\":0"), std::string::npos);
  EXPECT_NE(ts_json.find("\"ts_total\""), std::string::npos);
  EXPECT_NE(ts_json.find("\"points\":["), std::string::npos);
  EXPECT_NE(ts_json.find("\"values\":[1]"), std::string::npos);
  EXPECT_NE(ts_json.find("\"values\":[2]"), std::string::npos);

  const std::string dump =
      metrics::metrics_dump_json(reg.snapshot(), sampler.snapshot());
  EXPECT_NE(dump.find("\"snapshot\":["), std::string::npos);
  EXPECT_NE(dump.find("\"timeseries\":{"), std::string::npos);
}

// -------------------------------------------- Device timeline reconciliation

// The acceptance bar for the Figure 2 machinery: the sampled
// blaze_device_bytes_total series must land on the same total as the
// device's own timeline — two independent accountings of the same reads.
TEST(MetricsDevice, SampledBytesReconcileWithIoStatsTimeline) {
  metrics::set_enabled(true);
  device::IoStats stats(1'000'000);  // 1 ms buckets
  const std::string label = "test_reconcile_dev";
  stats.bind_metrics(label);
  stats.bind_metrics(label);  // idempotent

  Registry& reg = Registry::instance();
  metrics::Sampler sampler(reg);
  std::uint64_t expected = 0;
  for (int i = 1; i <= 10; ++i) {
    const std::uint64_t bytes = 4096ull * i;
    stats.record_read(bytes, 100);
    expected += bytes;
    sampler.sample_once();
  }

  const auto tl = stats.timeline_bytes();
  const std::uint64_t timeline_total =
      std::accumulate(tl.begin(), tl.end(), 0ull);
  EXPECT_EQ(timeline_total, expected);
  EXPECT_EQ(stats.total_bytes(), expected);

  // Registry snapshot agrees.
  const Labels labels{{"device", label}};
  const auto rows = reg.snapshot();
  const SampleRow* row = find_row(rows, "blaze_device_bytes_total", labels);
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->value, static_cast<double>(expected));
  EXPECT_DOUBLE_EQ(
      find_row(rows, "blaze_device_reads_total", labels)->value, 10.0);
  EXPECT_DOUBLE_EQ(
      find_row(rows, "blaze_device_busy_ns_total", labels)->value, 1000.0);

  // The sampler's final point carries the same cumulative total, and the
  // per-tick deltas sum to it (the bandwidth-timeline identity).
  const auto ts = sampler.snapshot();
  std::size_t idx = ts.series.size();
  for (std::size_t i = 0; i < ts.series.size(); ++i) {
    if (ts.series[i].name == "blaze_device_bytes_total" &&
        ts.series[i].labels == labels) {
      idx = i;
    }
  }
  ASSERT_LT(idx, ts.series.size());
  ASSERT_FALSE(ts.points.empty());
  const auto& last = ts.points.back();
  ASSERT_GT(last.values.size(), idx);
  EXPECT_DOUBLE_EQ(last.values[idx], static_cast<double>(expected));
  double delta_sum = 0, prev = 0;
  for (const auto& p : ts.points) {
    if (p.values.size() <= idx) continue;
    delta_sum += p.values[idx] - prev;
    prev = p.values[idx];
  }
  EXPECT_DOUBLE_EQ(delta_sum, static_cast<double>(expected));
}

// ------------------------------------------------------------ HTTP endpoint

/// Minimal blocking HTTP client: one request, reads to EOF.
std::string http_get(std::uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: close\r\n\r\n";
  const char* p = req.data();
  std::size_t left = req.size();
  while (left > 0) {
    ssize_t n = ::send(fd, p, left, 0);
    if (n <= 0) break;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(MetricsHttp, ScrapeEndpointServesPrometheusAndJson) {
  Registry reg;
  reg.counter("http_scrape_total")->add(5);
  metrics::Sampler sampler(reg);
  sampler.sample_once();
  metrics::MetricsHttpServer server(reg, &sampler);
  ASSERT_TRUE(server.start(0));  // ephemeral port
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string prom = http_get(server.port(), "/metrics");
  EXPECT_NE(prom.find("200"), std::string::npos);
  EXPECT_NE(prom.find("text/plain"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE http_scrape_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("http_scrape_total 5"), std::string::npos);

  const std::string json = http_get(server.port(), "/metrics.json");
  EXPECT_NE(json.find("200"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"http_scrape_total\""), std::string::npos);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
}

// ------------------------------------------------------------- QueryEngine

// The serve layer publishes its admission counters, latency histogram, and
// queue gauges without needing a graph: a trivial QueryFn exercises the
// whole submit -> execute -> terminal path.
TEST(MetricsServe, EnginePublishesServeSeries) {
  Registry& reg = Registry::instance();
  serve::EngineOptions opts;
  opts.max_inflight_queries = 2;
  opts.metrics_port = 0;  // ephemeral scrape endpoint

  const auto before = reg.snapshot();
  const SampleRow* b = find_row(before, "blaze_serve_completed_total");
  const double completed_before = b ? b->value : 0;

  {
    serve::QueryEngine engine(testutil::test_config(), opts);
    EXPECT_TRUE(metrics::enabled());
    EXPECT_NE(engine.metrics_port(), 0);  // endpoint really bound
    EXPECT_TRUE(engine.sampler().running());

    auto t1 = engine.submit({[](core::QueryContext&) {
                               return core::QueryStats{};
                             },
                             "noop-1"});
    auto t2 = engine.submit({[](core::QueryContext&) {
                               return core::QueryStats{};
                             },
                             "noop-2"});
    t1->wait();
    t2->wait();
    EXPECT_EQ(t1->state(), serve::QueryState::kDone);

    const auto rows = reg.snapshot();
    const SampleRow* admitted =
        find_row(rows, "blaze_serve_admitted_total");
    ASSERT_NE(admitted, nullptr);
    EXPECT_GE(admitted->value, 2.0);
    const SampleRow* completed =
        find_row(rows, "blaze_serve_completed_total");
    ASSERT_NE(completed, nullptr);
    EXPECT_GE(completed->value - completed_before, 2.0);
    const SampleRow* lat = find_row(rows, "blaze_serve_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->kind, Kind::kHistogram);
    EXPECT_GE(lat->count, 2u);
    ASSERT_NE(find_row(rows, "blaze_serve_queue_depth"), nullptr);
    ASSERT_NE(find_row(rows, "blaze_serve_running"), nullptr);

    // The embedded endpoint serves the serve-layer series mid-run.
    const std::string prom = http_get(engine.metrics_port(), "/metrics");
    EXPECT_NE(prom.find("blaze_serve_admitted_total"), std::string::npos);
    EXPECT_NE(
        prom.find("# TYPE blaze_serve_latency_us histogram"),
        std::string::npos);
  }

  // Engine gone: its queue-depth callbacks must be unregistered (a
  // snapshot after destruction would otherwise poll freed state).
  const auto after = reg.snapshot();
  EXPECT_EQ(find_row(after, "blaze_serve_queue_depth"), nullptr);
  EXPECT_EQ(find_row(after, "blaze_serve_running"), nullptr);
}

}  // namespace
}  // namespace blaze
