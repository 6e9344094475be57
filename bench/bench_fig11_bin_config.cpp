// Figure 11: impact of binning configurations on the rmat27 stand-in.
//
// Left plot: processing time of every query while doubling the bin count
// from 4 to 16384 at fixed bin space. The paper's shape: flat across a
// wide middle range, rising at both extremes (too few bins = rotation
// contention; too many = tiny buffers and cache-unfriendly gathers).
//
// Right plot: the paper sweeps scatter:gather thread ratios at a fixed
// total (a flat valley around 1:1). Here every compute worker both
// scatters and gathers, so there is no ratio to sweep; the right plot is a
// measured worker sweep {1, 2, 4} over in-memory devices instead, where
// compute, not the modeled device, bounds the run.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  const auto profile = bench_optane();
  const auto& ds = dataset("r2");
  auto out_g = format::make_simulated_graph(ds.csr, profile);
  auto in_g = format::make_simulated_graph(ds.transpose, profile);
  const unsigned pr_iters = 5;

  std::printf("# Figure 11a: processing time vs bin count (bin space "
              "fixed)\n");
  std::printf("query,bin_count,seconds\n");
  for (const auto& query : queries5()) {
    for (std::size_t bins = 4; bins <= 16384; bins *= 4) {
      auto cfg = bench_config(out_g);
      cfg.bin_count = bins;
      core::Runtime rt(cfg);
      // Median of three runs: single-run jitter on a shared 1-core host
      // is comparable to the effect size in the flat region.
      double t[3];
      for (auto& x : t) {
        x = run_blaze_query(rt, out_g, in_g, query, pr_iters).seconds;
      }
      std::sort(t, t + 3);
      std::printf("%s,%zu,%.3f\n", query.c_str(), bins, t[1]);
      std::fflush(stdout);
    }
  }

  std::printf("# Figure 11b: processing time vs compute workers "
              "(in-memory devices, measured)\n");
  std::printf("query,workers,seconds\n");
  auto mem_out = format::make_mem_graph(ds.csr);
  auto mem_in = format::make_mem_graph(ds.transpose);
  for (const auto& query : queries5()) {
    for (std::size_t workers : {1, 2, 4}) {
      auto cfg = bench_config(mem_out);
      cfg.compute_workers = workers;
      core::Runtime rt(cfg);
      double t[3];
      for (auto& x : t) {
        x = run_blaze_query(rt, mem_out, mem_in, query, pr_iters).seconds;
      }
      std::sort(t, t + 3);
      std::printf("%s,%zu,%.3f\n", query.c_str(), workers, t[1]);
      std::fflush(stdout);
    }
  }
  return 0;
}
