#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <exception>
#include <map>
#include <unordered_map>
#include <unistd.h>

#include "util/rng.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return blaze::hash64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

std::vector<std::uint32_t> degrees_of(const blaze::graph::Csr& g) {
  std::vector<std::uint32_t> d(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) d[v] = g.degree(v);
  return d;
}

std::vector<vertex_t> pick_sources(const blaze::graph::Csr& g,
                                   std::size_t count, std::uint64_t seed) {
  blaze::Xoshiro256 rng(seed);
  std::vector<vertex_t> out;
  while (out.size() < count) {
    const auto v = static_cast<vertex_t>(rng.next_below(g.num_vertices()));
    if (g.degree(v) == 0) continue;
    if (std::find(out.begin(), out.end(), v) != out.end()) continue;
    out.push_back(v);
  }
  return out;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;  // the first one thrown, rethrown after join
  {
    std::vector<std::jthread> threads;
    const std::size_t k = std::min<std::size_t>(
        {n, 4, std::max(1u, std::thread::hardware_concurrency())});
    for (std::size_t t = 0; t < k; ++t) {
      threads.emplace_back([&] {
        try {
          for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
        } catch (...) {
          std::lock_guard lock(mu);
          if (!error) error = std::current_exception();
          next = n;
        }
      });
    }
  }
  if (error) std::rethrow_exception(error);
}

// ---- SpanLog ------------------------------------------------------------

std::uint64_t SpanLog::add(const std::string& name, std::uint64_t query,
                           std::uint64_t parent, std::uint64_t t0_ns,
                           std::uint64_t t1_ns, std::uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = new_id();
  std::lock_guard lock(mu_);
  spans_.push_back({name, id, query, parent, t0_ns, t1_ns});
  return id;
}

std::size_t SpanLog::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  const std::uint64_t base = spans_.empty() ? 0 : std::min_element(
      spans_.begin(), spans_.end(),
      [](const Span& a, const Span& b) { return a.t0 < b.t0; })->t0;
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                  "\"query\":%llu,\"parent\":%llu}}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.query),
                  static_cast<double>(s.t0 - base) / 1e3,
                  static_cast<double>(s.t1 - s.t0) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.query),
                  static_cast<unsigned long long>(s.parent),
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

std::vector<SpanLog::Totals> SpanLog::totals() const {
  std::lock_guard lock(mu_);
  // Children of each span, to subtract the part of its interval they
  // cover (children of one parent may overlap; merge their intervals).
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t,
                                                          std::uint64_t>>>
      kids;
  for (const Span& s : spans_) {
    if (s.parent) kids[s.parent].push_back({s.t0, s.t1});
  }
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans_) {
    std::uint64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_b = 0, cur_e = 0;
      for (auto [b, e] : iv) {
        b = std::max(b, s.t0);
        e = std::min(e, s.t1);
        if (b >= e) continue;
        if (b > cur_e) {
          covered += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      covered += cur_e - cur_b;
    }
    Totals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += static_cast<double>(s.t1 - s.t0) * 1e-9;
    t.self_s += static_cast<double>(s.t1 - s.t0 - covered) * 1e-9;
  }
  std::vector<Totals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

// ---- TimedDevice --------------------------------------------------------

namespace {

class TimedChannel : public blaze::device::AsyncChannel {
 public:
  TimedChannel(TimedDevice& dev,
               std::unique_ptr<blaze::device::AsyncChannel> inner)
      : dev_(dev), inner_(std::move(inner)) {}

  void submit(const blaze::device::AsyncRead& read) override {
    const bool timed = dev_.timing();
    const std::uint64_t t0 = timed ? blaze::Timer::now_ns() : 0;
    inner_->submit(read);  // a throwing submit never took the read
    dev_.count(read.length);
    if (timed) submitted_[read.user] = t0;
  }

  std::size_t pending() const override { return inner_->pending(); }

  void wait(std::size_t min_completions,
            std::vector<std::uint64_t>& completed) override {
    const std::size_t first = completed.size();
    inner_->wait(min_completions, completed);
    if (submitted_.empty()) return;
    const std::uint64_t now = blaze::Timer::now_ns();
    for (std::size_t i = first; i < completed.size(); ++i) {
      auto it = submitted_.find(completed[i]);
      if (it == submitted_.end()) continue;
      dev_.record(now - it->second);
      submitted_.erase(it);
    }
  }

 private:
  TimedDevice& dev_;
  std::unique_ptr<blaze::device::AsyncChannel> inner_;
  std::unordered_map<std::uint64_t, std::uint64_t> submitted_;
};

}  // namespace

void TimedDevice::read(std::uint64_t offset, std::span<std::byte> out) {
  if (!timing()) {
    inner_->read(offset, out);
    count(out.size());
    return;
  }
  const std::uint64_t t0 = blaze::Timer::now_ns();
  inner_->read(offset, out);
  record(blaze::Timer::now_ns() - t0);
  count(out.size());
}

std::unique_ptr<blaze::device::AsyncChannel> TimedDevice::open_channel() {
  return std::make_unique<TimedChannel>(*this, inner_->open_channel());
}

std::vector<std::uint64_t> TimedDevice::service_ns() const {
  std::lock_guard lock(mu_);
  return service_ns_;
}

// ---- RssSampler ---------------------------------------------------------

std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

void RssSampler::start() {
  stop();
  peak_ = current_rss_bytes();
  run_ = true;
  thread_ = std::thread([this] {
    while (run_.load()) {
      const std::uint64_t rss = current_rss_bytes();
      std::uint64_t cur = peak_.load();
      while (rss > cur && !peak_.compare_exchange_weak(cur, rss)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

void RssSampler::stop() {
  run_ = false;
  if (thread_.joinable()) thread_.join();
  const std::uint64_t rss = current_rss_bytes();
  if (rss > peak_.load()) peak_ = rss;
}

}  // namespace perfbench
