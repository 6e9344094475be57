// Property tests on the shared EdgeMap programs (algorithms/programs.h):
// the invariants each Program's gather must satisfy regardless of record
// order, and the equivalence of gather and gather_atomic (bins vs CAS)
// under arbitrary interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "algorithms/programs.h"
#include "util/rng.h"

namespace blaze::algorithms {
namespace {

/// Shuffled copies of a record stream applied through gather() must agree
/// with the unshuffled stream for order-insensitive programs.
template <typename Setup, typename Apply, typename State>
void check_order_insensitive(Setup&& setup, Apply&& apply,
                             const std::vector<State>& expected_states,
                             int permutations = 5) {
  (void)setup;
  (void)apply;
  (void)expected_states;
  (void)permutations;
}

// ------------------------------------------------------------- BfsProgram

TEST(BfsProgramProperty, FirstWriterWinsAndActivatesOnce) {
  std::vector<vertex_t> parent(10, kInvalidVertex);
  BfsProgram prog{parent};
  EXPECT_TRUE(prog.cond(3));
  EXPECT_TRUE(prog.gather(3, 7));   // claims
  EXPECT_FALSE(prog.gather(3, 8));  // second writer rejected
  EXPECT_EQ(parent[3], 7u);
  EXPECT_FALSE(prog.cond(3));  // no further scatters to 3
}

TEST(BfsProgramProperty, AtomicVariantClaimsExactlyOnceUnderRaces) {
  const int kThreads = 4, kVertices = 512;
  std::vector<vertex_t> parent(kVertices, kInvalidVertex);
  BfsProgram prog{parent};
  std::atomic<int> claims{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (vertex_t v = 0; v < kVertices; ++v) {
        if (prog.gather_atomic(v, static_cast<vertex_t>(t + 100))) {
          claims.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(claims.load(), kVertices);  // every vertex claimed exactly once
  for (vertex_t v = 0; v < kVertices; ++v) {
    EXPECT_GE(parent[v], 100u);
    EXPECT_LT(parent[v], 104u);
  }
}

// ------------------------------------------------------------- WccProgram

TEST(WccProgramProperty, GatherKeepsMinimumUnderAnyOrder) {
  Xoshiro256 rng(1);
  std::vector<vertex_t> values(100);
  for (auto& v : values) v = static_cast<vertex_t>(rng.next_below(1000));
  vertex_t expected = *std::min_element(values.begin(), values.end());

  for (int perm = 0; perm < 8; ++perm) {
    std::vector<vertex_t> ids(1, 5000);
    WccProgram prog{ids};
    std::shuffle(values.begin(), values.end(), rng);
    for (auto v : values) prog.gather(0, v);
    EXPECT_EQ(ids[0], std::min<vertex_t>(5000, expected));
  }
}

TEST(WccProgramProperty, AtomicMinMatchesSequentialMin) {
  std::vector<vertex_t> ids(1, kInvalidVertex);
  WccProgram prog{ids};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t + 10);
      for (int i = 0; i < 10000; ++i) {
        prog.gather_atomic(0, static_cast<vertex_t>(rng.next_below(100000) +
                                                    17));
      }
    });
  }
  for (auto& th : threads) th.join();
  // min over all streams is deterministic given the seeds; recompute.
  vertex_t want = kInvalidVertex;
  for (int t = 0; t < 4; ++t) {
    Xoshiro256 rng(t + 10);
    for (int i = 0; i < 10000; ++i) {
      want = std::min(want,
                      static_cast<vertex_t>(rng.next_below(100000) + 17));
    }
  }
  EXPECT_EQ(ids[0], want);
}

// ----------------------------------------------------- accumulation family

TEST(AccumulationProperty, PrGatherIsOrderInsensitiveToPermutation) {
  Xoshiro256 rng(2);
  std::vector<float> contributions(64);
  for (auto& c : contributions) {
    c = static_cast<float>(rng.next_double()) * 0.01f;
  }
  // Reference sum in one order.
  format::GraphIndex dummy_index(std::vector<std::uint32_t>(1, 1));
  std::vector<float> delta(1, 0.0f);
  float reference = 0.0f;
  {
    std::vector<float> ngh(1, 0.0f);
    PrProgram prog{dummy_index, delta, ngh};
    for (float c : contributions) prog.gather(0, c);
    reference = ngh[0];
  }
  for (int perm = 0; perm < 6; ++perm) {
    std::shuffle(contributions.begin(), contributions.end(), rng);
    std::vector<float> ngh(1, 0.0f);
    PrProgram prog{dummy_index, delta, ngh};
    for (float c : contributions) prog.gather(0, c);
    EXPECT_NEAR(ngh[0], reference, 1e-5f);
  }
}

TEST(AccumulationProperty, AtomicAddMatchesSerialSum) {
  std::vector<float> y(1, 0.0f);
  std::vector<float> x;  // unused by gather paths
  SpmvProgram prog{x, y};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) prog.gather_atomic(0, 0.5f);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FLOAT_EQ(y[0], 4 * 20000 * 0.5f);
}

// ------------------------------------------------------------ SsspProgram

TEST(SsspProgramProperty, WeightsDeterministicAndBounded) {
  for (vertex_t s = 0; s < 50; ++s) {
    for (vertex_t d = 0; d < 50; ++d) {
      auto w1 = sssp_weight(s, d);
      auto w2 = sssp_weight(s, d);
      EXPECT_EQ(w1, w2);
      EXPECT_GE(w1, 1u);
      EXPECT_LE(w1, 16u);
    }
  }
}

TEST(SsspProgramProperty, GatherRelaxesMonotonically) {
  std::vector<std::uint32_t> dist(1, 100);
  SsspProgram prog{dist};
  EXPECT_FALSE(prog.gather(0, 150));  // worse: rejected
  EXPECT_EQ(dist[0], 100u);
  EXPECT_TRUE(prog.gather(0, 40));
  EXPECT_EQ(dist[0], 40u);
  EXPECT_FALSE(prog.gather(0, 40));  // equal: no activation
}

// ------------------------------------------------------------ improves()

/// improves(d, v) is false exactly when gather(d, v) and gather_atomic(d, v)
/// would return false and leave d unchanged (the engines drop such updates
/// before binning, so a false negative would lose an update).
template <typename Program>
void check_improves_is_exact(std::vector<std::uint32_t>& state,
                             Program& prog) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.next_below(1000));
    const std::uint32_t before = state[0];
    const bool improves = prog.improves(0, v);
    EXPECT_EQ(improves, prog.gather(0, v)) << before << " <- " << v;
    EXPECT_EQ(improves, state[0] != before) << before << " <- " << v;
    state[0] = before;
    EXPECT_EQ(improves, prog.gather_atomic(0, v)) << before << " <- " << v;
    // Reset now and then so the state does not sit at the minimum.
    if (rng.next_below(8) == 0) {
      state[0] = static_cast<std::uint32_t>(rng.next_below(1000));
    }
  }
}

TEST(ImprovesProperty, WccFalseOnlyWhenGatherIsNoop) {
  std::vector<vertex_t> ids(1, 500);
  WccProgram prog{ids};
  check_improves_is_exact(ids, prog);
}

TEST(ImprovesProperty, SsspFalseOnlyWhenGatherIsNoop) {
  std::vector<std::uint32_t> dist(1, 500);
  SsspProgram prog{dist};
  check_improves_is_exact(dist, prog);
}

// ------------------------------------------------------------ PeelProgram

TEST(PeelProgramProperty, ResidualNeverUnderflows) {
  std::vector<std::uint32_t> residual(1, 2);
  std::vector<std::uint32_t> coreness(1, PeelProgram::kAlive);
  PeelProgram prog{residual, coreness};
  prog.gather(0, 1);
  prog.gather(0, 1);
  prog.gather(0, 1);  // already zero: clamps
  EXPECT_EQ(residual[0], 0u);
}

TEST(PeelProgramProperty, CondFiltersPeeledVertices) {
  std::vector<std::uint32_t> residual(2, 5);
  std::vector<std::uint32_t> coreness = {PeelProgram::kAlive, 3};
  PeelProgram prog{residual, coreness};
  EXPECT_TRUE(prog.cond(0));
  EXPECT_FALSE(prog.cond(1));  // already peeled at k=3
}

// ------------------------------------------------------------- BcPrograms

TEST(BcProgramProperty, ForwardOnlyTargetsUnvisited) {
  std::vector<float> sigma = {1.0f, 0.0f};
  std::vector<float> sigma_next(2, 0.0f);
  std::vector<std::uint32_t> level = {0, BcForwardProgram::kUnvisited};
  BcForwardProgram prog{sigma, sigma_next, level};
  EXPECT_FALSE(prog.cond(0));  // already leveled
  EXPECT_TRUE(prog.cond(1));
  prog.gather(1, 1.0f);
  prog.gather(1, 2.0f);
  EXPECT_FLOAT_EQ(sigma_next[1], 3.0f);  // contributions accumulate
}

TEST(BcProgramProperty, BackwardTargetsExactLevel) {
  std::vector<float> sigma = {1.0f, 2.0f, 4.0f};
  std::vector<float> dependency(3, 0.0f);
  std::vector<float> acc(3, 0.0f);
  std::vector<std::uint32_t> level = {0, 1, 2};
  BcBackwardProgram prog{sigma, dependency, acc, level, 1};
  EXPECT_FALSE(prog.cond(0));
  EXPECT_TRUE(prog.cond(1));
  EXPECT_FALSE(prog.cond(2));
  // scatter from w=2: (1 + dep) / sigma_w
  EXPECT_FLOAT_EQ(prog.scatter(2, 1), 0.25f);
}

}  // namespace
}  // namespace blaze::algorithms
