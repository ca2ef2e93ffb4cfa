// Golden values for the G(d) walk (d >= 3): state trajectories and crawl
// accounting recorded from the merge-and-write enumerator that drew a
// uniform neighbor by materializing every neighbor state. The other
// bit-identity suites compare two current kernels with each other (scalar
// against batched, full against crawl access); these pin both against the
// recorded behaviour, so a change to how a neighbor is drawn must keep
// the same draws, the same states and the same access calls.
//
// Integers only: trajectory hashes (FNV-1a over every state's ids and its
// G(d) degree, step by step), per-chain CrawlStats counters, rounds and
// merged sample counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "engine/engine.h"
#include "graph/adjacency.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

struct Fnv1a {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
};

// Heavy-tailed: a few hubs of degree in the hundreds sit in many states,
// so most steps evict or keep a vertex with a long list.
Graph HubGraph() {
  Rng rng(2024);
  return LargestConnectedComponent(HolmeKim(2000, 3, 0.3, rng));
}

uint64_t TrajectoryHash(const Graph& g, int d, bool nb, uint64_t seed,
                        int steps) {
  SubgraphWalk walk(g, d, nb);
  Rng rng(seed);
  walk.Reset(rng);
  Fnv1a hash;
  for (int s = 0; s < steps; ++s) {
    for (const VertexId v : walk.Nodes()) hash.Add(v);
    hash.Add(walk.StateDegree());
    walk.Step(rng);
  }
  for (const VertexId v : walk.Nodes()) hash.Add(v);
  return hash.h;
}

TEST(GdGoldenTest, SubgraphWalkTrajectories) {
  const Graph plain = HubGraph();
  // The same graph with an index whose rows reach down to degree 8, so
  // the hubs of most states have rows: the trajectories must not depend
  // on how base-list membership is answered.
  const Graph indexed = [&plain] {
    Graph copy = plain;
    AdjacencyIndexOptions options;
    options.min_hub_degree = 8;
    copy.BuildAdjacencyIndex(options);
    return copy;
  }();
  ASSERT_GT(indexed.adjacency_index()->num_hubs(), 0u);
  struct Case {
    int d;
    bool nb;
    int steps;
    uint64_t golden;
  };
  const Case cases[] = {
      {3, false, 10000, 3564831682620298760ull},
      {3, true, 10000, 13406747892550017244ull},
      {4, false, 3000, 15693677966613479984ull},
      {4, true, 3000, 16358569751406108898ull},
      {5, false, 1000, 4241196011816202186ull},
      {5, true, 1000, 12175137193344590629ull},
  };
  for (const Graph* g : {&plain, &indexed}) {
    SCOPED_TRACE(g == &plain ? "no index" : "indexed");
    for (const Case& c : cases) {
      SCOPED_TRACE("d=" + std::to_string(c.d) + " nb=" + std::to_string(c.nb));
      const uint64_t seed = 1000 + 10 * c.d + (c.nb ? 1 : 0);
      EXPECT_EQ(TrajectoryHash(*g, c.d, c.nb, seed, c.steps), c.golden);
    }
  }
}

struct CrawlGolden {
  std::vector<uint64_t> fetches;
  std::vector<uint64_t> distinct_fetches;
  std::vector<uint64_t> cache_hits;
  int rounds;
  std::vector<uint64_t> samples;
};

void ExpectCrawlGolden(const EngineResult& result, const CrawlGolden& want) {
  ASSERT_EQ(result.per_chain_access.size(), want.fetches.size());
  for (size_t c = 0; c < want.fetches.size(); ++c) {
    SCOPED_TRACE("chain " + std::to_string(c));
    EXPECT_EQ(result.per_chain_access[c].fetches, want.fetches[c]);
    EXPECT_EQ(result.per_chain_access[c].distinct_fetches,
              want.distinct_fetches[c]);
    EXPECT_EQ(result.per_chain_access[c].cache_hits, want.cache_hits[c]);
  }
  EXPECT_EQ(result.rounds, want.rounds);
  EXPECT_EQ(result.merged.samples, want.samples);
}

// The test graph of tests/batched_walk_test.cpp.
Graph CrawlGraph() {
  Rng rng(7);
  return LargestConnectedComponent(HolmeKim(1500, 4, 0.4, rng));
}

TEST(GdGoldenTest, CrawlBudgetStopAccounting) {
  // The configuration of
  // BatchedEngineTest.CrawlBudgetStopBitIdenticalToScalar.
  const Graph g = CrawlGraph();
  EstimatorConfig config;
  config.k = 5;
  config.d = 3;
  EngineOptions options;
  options.chains = 4;
  options.max_steps = 2000;
  options.base_seed = 913;
  options.round_steps = 256;
  options.crawl.enabled = true;
  options.crawl.budget_queries = 800;

  const CrawlGolden want = {
      {200, 200, 200, 200},
      {200, 200, 200, 200},
      {3235, 3044, 3425, 3144},
      2,
      {560, 293, 27, 91, 34, 5, 11, 1, 1, 0, 5, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0}};
  ExpectCrawlGolden(EstimationEngine(g, config, options).Run(), want);
}

TEST(GdGoldenTest, CrawlCacheOfOneAccounting) {
  // A one-entry cache: every list switch of the enumeration is a fetch,
  // so the access order itself is pinned, not just the set of lists.
  const Graph g = CrawlGraph();
  EstimatorConfig config;
  config.k = 4;
  config.d = 3;
  EngineOptions options;
  options.chains = 2;
  options.max_steps = 600;
  options.base_seed = 77;
  options.round_steps = 200;
  options.crawl.enabled = true;
  options.crawl.cache_entries = 1;

  const CrawlGolden want = {{5873, 5900},
                            {382, 373},
                            {1346, 1319},
                            3,
                            {863, 251, 76, 8, 2, 0}};
  ExpectCrawlGolden(EstimationEngine(g, config, options).Run(), want);
}

}  // namespace
}  // namespace grw
