#include "metrics/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace blaze::metrics {

namespace {

/// Escapes a Prometheus label value / JSON string body (the escape set is
/// the same: backslash, double quote, newline).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape(v) + "\"";
  }
  out += "}";
  return out;
}

std::string format_value(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

/// Highest non-empty bucket index + 1 (so the exposition stops at the data).
std::size_t buckets_used(const std::vector<std::uint64_t>& buckets) {
  std::size_t used = 0;
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k] != 0) used = k + 1;
  }
  return used;
}

void append_histogram_prom(std::string& out, const SampleRow& row) {
  const std::string labels_body =
      row.labels.empty() ? "" : prom_labels(row.labels);
  // le bound of log2 bucket k: bucket 0 covers {0,1} (le="1"), bucket k
  // covers [2^k, 2^(k+1)) (le = 2^(k+1)-1). Cumulative, ending at +Inf.
  std::uint64_t cum = 0;
  const std::size_t used = buckets_used(row.buckets);
  for (std::size_t k = 0; k < used; ++k) {
    cum += row.buckets[k];
    const std::uint64_t le =
        k == 0 ? 1 : (k >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (k + 1)) - 1);
    std::string lbl = "{";
    for (const auto& [lk, lv] : row.labels) {
      lbl += lk + "=\"" + escape(lv) + "\",";
    }
    lbl += "le=\"" + std::to_string(le) + "\"}";
    out += row.name + "_bucket" + lbl + " " + std::to_string(cum) + "\n";
  }
  std::string inf_lbl = "{";
  for (const auto& [lk, lv] : row.labels) {
    inf_lbl += lk + "=\"" + escape(lv) + "\",";
  }
  inf_lbl += "le=\"+Inf\"}";
  out += row.name + "_bucket" + inf_lbl + " " + std::to_string(row.count) +
         "\n";
  out += row.name + "_sum" + labels_body + " " + std::to_string(row.sum) +
         "\n";
  out += row.name + "_count" + labels_body + " " +
         std::to_string(row.count) + "\n";
}

void append_json_labels(std::string& out, const Labels& labels) {
  out += "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += escape(k);
    out += "\":\"";
    out += escape(v);
    out += '"';
  }
  out += "}";
}

}  // namespace

std::string to_prometheus(const std::vector<SampleRow>& rows) {
  std::string out;
  std::string last_family;
  for (const SampleRow& row : rows) {
    if (row.name != last_family) {
      out += "# TYPE " + row.name + " " + to_string(row.kind) + "\n";
      last_family = row.name;
    }
    if (row.kind == Kind::kHistogram && !row.buckets.empty()) {
      append_histogram_prom(out, row);
    } else {
      out += row.name + prom_labels(row.labels) + " " +
             format_value(row.value) + "\n";
    }
  }
  return out;
}

std::string to_prometheus(const Registry& registry) {
  return to_prometheus(registry.snapshot());
}

std::string snapshot_json(const std::vector<SampleRow>& rows) {
  std::string out = "[";
  bool first_row = true;
  for (const SampleRow& row : rows) {
    if (!first_row) out += ",";
    first_row = false;
    out += "{\"name\":\"" + escape(row.name) + "\",";
    append_json_labels(out, row.labels);
    out += ",\"kind\":\"" + std::string(to_string(row.kind)) + "\"";
    if (row.kind == Kind::kHistogram && !row.buckets.empty()) {
      out += ",\"count\":" + std::to_string(row.count);
      out += ",\"sum\":" + std::to_string(row.sum);
      out += ",\"buckets\":[";
      std::uint64_t cum = 0;
      bool first_b = true;
      const std::size_t used = buckets_used(row.buckets);
      for (std::size_t k = 0; k < used; ++k) {
        cum += row.buckets[k];
        const std::uint64_t le =
            k == 0 ? 1
                   : (k >= 63 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (k + 1)) - 1);
        if (!first_b) out += ",";
        first_b = false;
        out += '[';
        out += std::to_string(le);
        out += ',';
        out += std::to_string(cum);
        out += ']';
      }
      out += "]";
    } else {
      out += ",\"value\":" + format_value(row.value);
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string timeseries_json(const Sampler::TimeSeries& ts) {
  std::string out = "{";
  out += "\"interval_ms\":" + std::to_string(ts.interval_ms);
  out += ",\"evicted_points\":" + std::to_string(ts.evicted_points);
  out += ",\"series\":[";
  bool first = true;
  for (const auto& s : ts.series) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + escape(s.name) + "\",";
    append_json_labels(out, s.labels);
    out += ",\"kind\":\"" + std::string(to_string(s.kind)) + "\"}";
  }
  out += "],\"points\":[";
  first = true;
  for (const auto& p : ts.points) {
    if (!first) out += ",";
    first = false;
    out += "{\"ts_ns\":" + std::to_string(p.ts_ns) + ",\"values\":[";
    bool first_v = true;
    for (double v : p.values) {
      if (!first_v) out += ",";
      first_v = false;
      out += format_value(v);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string metrics_dump_json(const std::vector<SampleRow>& rows,
                              const Sampler::TimeSeries& ts) {
  return "{\"snapshot\":" + snapshot_json(rows) +
         ",\"timeseries\":" + timeseries_json(ts) + "}";
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written != content.size()) std::fclose(f);
  return ok;
}

}  // namespace blaze::metrics
