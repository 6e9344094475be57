// perfbench: Blaze's end-to-end benchmark program.
//
//   perfbench --workload batch-file|batch-ssd|serve-openloop --seed N
//             --seconds S --trace 0|1
//
// Prints one line per metric ("name value unit") and, as its last line, a
// JSON object holding every metric the run measured; perfbench/run.py
// selects the ones BENCHMARK.json names. perfbench/METRICS.md describes
// each metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch-file|batch-ssd|"
               "serve-openloop --seed N --seconds S --trace 0|1\n");
  return 2;
}

void print_json(const perfbench::Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.mismatches == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      opt.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  perfbench::Result r;
  try {
    if (opt.workload == "batch-file" || opt.workload == "batch-ssd") {
      r = perfbench::run_batch(opt);
    } else if (opt.workload == "serve-openloop") {
      r = perfbench::run_serve(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const auto& m : r.metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  print_json(r);
  return 0;
}
