// Shared pieces of the end-to-end benchmark: options, the metric report,
// statistics helpers, the benchmark's own span log, the leaf-device timing
// decorator, and the resident-memory sampler.
//
// Everything here measures Blaze from outside: spans wrap calls into the
// program's public functions, and the decorator wraps a leaf BlockDevice.
// Nothing turns on the program's own trace gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "device/block_device.h"
#include "graph/csr.h"
#include "util/timer.h"

namespace perfbench {

using blaze::vertex_t;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Where the traced run writes its span file and batch-file its graph
/// files, relative to the working directory (the repository root).
inline constexpr const char* kWorkDir = ".bench_build/perfbench-work";

/// Everything one workload run reports.
struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     ///< failed, refused, expired or wrong
  std::uint64_t mismatches = 0; ///< outputs that disagreed with the oracle

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

Result run_batch(const Options& opt);  // batch-file and batch-ssd
Result run_serve(const Options& opt);  // serve-openloop

// ---- statistics ---------------------------------------------------------

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 for no samples.
double percentile(std::vector<double> v, double q);

inline double now_s() {
  return static_cast<double>(blaze::Timer::now_ns()) * 1e-9;
}
/// Process CPU seconds (all threads).
double process_cpu_s();

/// Seed mixer for deriving independent streams from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Out-degree of every vertex: the flat GraphIndex input.
std::vector<std::uint32_t> degrees_of(const blaze::graph::Csr& g);

/// `count` distinct vertices with non-zero out-degree, drawn from `seed`.
std::vector<vertex_t> pick_sources(const blaze::graph::Csr& g,
                                   std::size_t count, std::uint64_t seed);

/// Runs fn(0) .. fn(n - 1) on up to 4 threads.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

// ---- spans --------------------------------------------------------------

/// In-memory span log of the traced run, written as a Chrome trace at
/// exit. Spans of one query share its query id; `parent` links a span to
/// the span that caused it. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::uint64_t new_id() { return next_id_.fetch_add(1); }

  /// Records a finished span under `id` (a fresh id when 0) and returns
  /// the id. A parent that ends after its children takes its id from
  /// new_id() before they start.
  std::uint64_t add(const std::string& name, std::uint64_t query,
                    std::uint64_t parent, std::uint64_t t0_ns,
                    std::uint64_t t1_ns, std::uint64_t id = 0);

  /// Writes every span as Chrome trace-event JSON; returns false on an IO
  /// error.
  bool write(const std::string& path) const;

  /// Per span name: total duration and self time (duration minus the
  /// part of it that child spans cover), in seconds.
  struct Totals {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::vector<Totals> totals() const;

  std::size_t size() const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id, query, parent, t0, t1;
  };
  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---- leaf-device decorator ---------------------------------------------

/// Wraps a leaf device. Always counts the bytes and reads passing through;
/// while timing is on, also records each synchronous read's duration and
/// each async read's interval from channel submit to reaped completion.
/// stats() forwards to the leaf, so every layer above still sees the
/// leaf's own IoStats.
class TimedDevice : public blaze::device::BlockDevice {
 public:
  explicit TimedDevice(std::shared_ptr<blaze::device::BlockDevice> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  std::uint64_t size() const override { return inner_->size(); }
  void read(std::uint64_t offset, std::span<std::byte> out) override;
  std::unique_ptr<blaze::device::AsyncChannel> open_channel() override;
  blaze::device::IoStats& stats() override { return inner_->stats(); }

  void set_timing(bool on) { timing_.store(on); }
  bool timing() const { return timing_.load(std::memory_order_relaxed); }

  std::uint64_t bytes() const { return bytes_.load(); }
  std::uint64_t reads() const { return reads_.load(); }
  /// Service intervals (ns) recorded so far.
  std::vector<std::uint64_t> service_ns() const;

  void count(std::uint64_t len) {
    bytes_.fetch_add(len, std::memory_order_relaxed);
    reads_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(std::uint64_t ns) {
    std::lock_guard lock(mu_);
    service_ns_.push_back(ns);
  }

 private:
  std::shared_ptr<blaze::device::BlockDevice> inner_;
  std::atomic<bool> timing_{false};
  std::atomic<std::uint64_t> bytes_{0}, reads_{0};
  mutable std::mutex mu_;
  std::vector<std::uint64_t> service_ns_;  // guarded by mu_
};

// ---- resident memory ----------------------------------------------------

/// Samples the process's resident set every few milliseconds between
/// start() and stop(); peak_mib() is the largest sample.
class RssSampler {
 public:
  RssSampler() = default;
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  ~RssSampler() { stop(); }

  void start();
  void stop();
  double peak_mib() const {
    return static_cast<double>(peak_.load()) / (1024.0 * 1024.0);
  }

 private:
  std::atomic<bool> run_{false};
  std::atomic<std::uint64_t> peak_{0};
  std::thread thread_;
};

std::uint64_t current_rss_bytes();

}  // namespace perfbench
