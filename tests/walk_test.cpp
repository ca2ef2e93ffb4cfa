// Tests for the random-walk substrate: stationary distributions, neighbor
// enumeration on G(d), count-and-select against the reference enumerator,
// and non-backtracking behavior.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/access.h"
#include "graph/adjacency.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/sharded_access.h"
#include "graph/sharding.h"
#include "util/rng.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"

namespace grw {
namespace {

// Chi-square-ish check: empirical visit frequency vs expected stationary
// probability within rel_tol.
void ExpectStationary(const std::map<std::vector<VertexId>, uint64_t>& visits,
                      const std::map<std::vector<VertexId>, double>& expected,
                      uint64_t total, double rel_tol) {
  for (const auto& [state, pi] : expected) {
    const auto it = visits.find(state);
    const double freq =
        it == visits.end()
            ? 0.0
            : static_cast<double>(it->second) / static_cast<double>(total);
    EXPECT_NEAR(freq, pi, rel_tol * pi + 0.003)
        << "state size " << state.size();
  }
}

TEST(NodeWalkTest, StationaryDistributionIsDegreeProportional) {
  // pi(v) = d_v / 2|E| (paper Section 2.2).
  const Graph g = KarateClub();
  NodeWalk walk(g);
  Rng rng(100);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, uint64_t> visits;
  const uint64_t steps = 400000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    visits[{walk.Current()}]++;
  }
  std::map<std::vector<VertexId>, double> expected;
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    expected[{v}] = static_cast<double>(g.Degree(v)) /
                    static_cast<double>(2 * g.NumEdges());
  }
  ExpectStationary(visits, expected, steps, 0.10);
}

TEST(NodeWalkTest, NonBacktrackingPreservesStationaryDistribution) {
  // Paper Section 4.2: NB-SRW has the same stationary distribution.
  const Graph g = KarateClub();
  NodeWalk walk(g, /*non_backtracking=*/true);
  Rng rng(101);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, uint64_t> visits;
  const uint64_t steps = 400000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    visits[{walk.Current()}]++;
  }
  std::map<std::vector<VertexId>, double> expected;
  for (VertexId v = 0; v < g.NumNodes(); ++v) {
    expected[{v}] = static_cast<double>(g.Degree(v)) /
                    static_cast<double>(2 * g.NumEdges());
  }
  ExpectStationary(visits, expected, steps, 0.10);
}

TEST(NodeWalkTest, NonBacktrackingNeverBacktracksUnlessForced) {
  // On a star, every move from a leaf *must* return to the hub; from the
  // hub (degree > 1 with NB) the walk must not return to the previous
  // leaf.
  const Graph g = Star(6);
  NodeWalk walk(g, true);
  Rng rng(7);
  walk.Reset(rng);
  VertexId prev = walk.Current();
  walk.Step(rng);
  for (int s = 0; s < 2000; ++s) {
    const VertexId here = walk.Current();
    walk.Step(rng);
    const VertexId next = walk.Current();
    if (here == 0) {
      EXPECT_NE(next, prev) << "hub must avoid backtracking";
    } else {
      EXPECT_EQ(next, 0u) << "leaf has one neighbor";
    }
    prev = here;
  }
}

TEST(EdgeWalkTest, StationaryDistributionIsUniformOverEdges) {
  // States of G(2) have pi(e) = d_e / 2|R(2)|... but the walk itself is a
  // simple random walk whose stationary distribution is degree-
  // proportional in G(2): deg(e_uv) = d_u + d_v - 2.
  const Graph g = KarateClub();
  EdgeWalk walk(g);
  Rng rng(55);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, uint64_t> visits;
  const uint64_t steps = 600000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    const auto nodes = walk.Nodes();
    visits[{nodes[0], nodes[1]}]++;
  }
  const double two_r2 = 2.0 * static_cast<double>(g.WedgeCount());
  std::map<std::vector<VertexId>, double> expected;
  for (VertexId u = 0; u < g.NumNodes(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) {
        expected[{u, v}] =
            static_cast<double>(g.Degree(u) + g.Degree(v) - 2) / two_r2;
      }
    }
  }
  ExpectStationary(visits, expected, steps, 0.12);
}

TEST(EdgeWalkTest, StateDegreeClosedForm) {
  const Graph g = KarateClub();
  EdgeWalk walk(g);
  Rng rng(1);
  walk.Reset(rng);
  for (int s = 0; s < 500; ++s) {
    const auto nodes = walk.Nodes();
    EXPECT_EQ(walk.StateDegree(),
              static_cast<uint64_t>(g.Degree(nodes[0])) +
                  g.Degree(nodes[1]) - 2);
    EXPECT_TRUE(g.HasEdge(nodes[0], nodes[1]))
        << "state must always be an edge";
    walk.Step(rng);
  }
}

TEST(SubgraphWalkTest, StatesAreConnectedInducedSubgraphs) {
  Rng rng(9);
  const Graph g = LargestConnectedComponent(HolmeKim(120, 3, 0.5, rng));
  for (int d = 3; d <= 4; ++d) {
    SubgraphWalk walk(g, d);
    walk.Reset(rng);
    for (int s = 0; s < 300; ++s) {
      const auto nodes = walk.Nodes();
      ASSERT_EQ(static_cast<int>(nodes.size()), d);
      std::vector<VertexId> sorted(nodes.begin(), nodes.end());
      EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
      EXPECT_TRUE(InducedSubgraphConnected(g, sorted));
      walk.Step(rng);
    }
  }
}

TEST(SubgraphWalkTest, ConsecutiveStatesShareDMinusOneNodes) {
  Rng rng(15);
  const Graph g = LargestConnectedComponent(HolmeKim(100, 3, 0.4, rng));
  SubgraphWalk walk(g, 3);
  walk.Reset(rng);
  std::vector<VertexId> prev(walk.Nodes().begin(), walk.Nodes().end());
  for (int s = 0; s < 300; ++s) {
    walk.Step(rng);
    std::vector<VertexId> cur(walk.Nodes().begin(), walk.Nodes().end());
    std::vector<VertexId> shared;
    std::set_intersection(prev.begin(), prev.end(), cur.begin(), cur.end(),
                          std::back_inserter(shared));
    EXPECT_EQ(shared.size(), 2u);
    prev = std::move(cur);
  }
}

TEST(SubgraphWalkTest, NeighborEnumerationMatchesDefinitionOnFixture) {
  // Path 0-1-2-3-4: connected 3-sets are {0,1,2},{1,2,3},{2,3,4};
  // {0,1,2} and {1,2,3} share 2 nodes -> adjacent; {0,1,2} vs {2,3,4}
  // share 1 -> not adjacent.
  const Graph g = Path(5);
  std::vector<VertexId> out;
  const std::vector<VertexId> state = {0, 1, 2};
  EnumerateGdNeighbors(g, state, &out);
  ASSERT_EQ(out.size(), 3u);  // exactly one neighbor
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 3u);
  EXPECT_EQ(SubgraphStateDegree(g, state), 1u);

  // Middle state has two neighbors.
  const std::vector<VertexId> mid = {1, 2, 3};
  EXPECT_EQ(SubgraphStateDegree(g, mid), 2u);
}

TEST(SubgraphWalkTest, StateDegreeOnClique) {
  // In K5, a 3-subset's neighbors: drop any of 3 nodes, add either of the
  // 2 outside nodes -> 6 neighbors.
  const Graph g = Complete(5);
  const std::vector<VertexId> state = {0, 1, 2};
  EXPECT_EQ(SubgraphStateDegree(g, state), 6u);
}

TEST(SubgraphWalkTest, StationaryDistributionOnSmallGraph) {
  // Empirical check of pi(s) = deg(s) / 2|R(3)| on a small fixture.
  const Graph g = Lollipop(4, 2);
  SubgraphWalk walk(g, 3);
  Rng rng(77);
  walk.Reset(rng);
  std::map<std::vector<VertexId>, uint64_t> visits;
  std::map<std::vector<VertexId>, double> expected;
  const uint64_t steps = 200000;
  for (uint64_t s = 0; s < steps; ++s) {
    walk.Step(rng);
    visits[std::vector<VertexId>(walk.Nodes().begin(),
                                 walk.Nodes().end())]++;
  }
  // Enumerate all connected 3-subgraphs and their degrees.
  double degree_sum = 0.0;
  std::vector<std::pair<std::vector<VertexId>, double>> states;
  for (VertexId a = 0; a < g.NumNodes(); ++a) {
    for (VertexId b = a + 1; b < g.NumNodes(); ++b) {
      for (VertexId c = b + 1; c < g.NumNodes(); ++c) {
        const std::vector<VertexId> nodes = {a, b, c};
        if (!InducedSubgraphConnected(g, nodes)) continue;
        const double deg =
            static_cast<double>(SubgraphStateDegree(g, nodes));
        states.emplace_back(nodes, deg);
        degree_sum += deg;
      }
    }
  }
  for (const auto& [nodes, deg] : states) expected[nodes] = deg / degree_sum;
  ExpectStationary(visits, expected, steps, 0.12);
}

// Count-and-select must rank exactly the sequence the reference
// enumerator emits: CountGdNeighbors is its length, SelectGdNeighbor(i) its
// i-th state, GdNeighborRank inverts SelectGdNeighbor, and the count-only
// SubgraphStateDegree agrees.
template <class A>
void ExpectSelectMatchesReference(const A& access, const Graph& g,
                                  std::span<const VertexId> state,
                                  GdScratch& scratch) {
  std::vector<VertexId> reference;
  EnumerateGdNeighborsReference(g, state, &reference);
  const size_t d = state.size();
  const uint64_t count = CountGdNeighbors(access, state, scratch);
  ASSERT_EQ(count, reference.size() / d);
  std::vector<VertexId> picked(d);
  for (uint64_t i = 0; i < count; ++i) {
    SelectGdNeighbor(scratch, i, picked.data());
    ASSERT_TRUE(std::equal(picked.begin(), picked.end(),
                           reference.begin() + static_cast<long>(i * d)))
        << "rank " << i;
    ASSERT_EQ(GdNeighborRank(scratch, picked), i);
  }
  // A set that is not a neighbor has no rank.
  EXPECT_EQ(GdNeighborRank(scratch, state), count);
  GdScratch fresh;
  EXPECT_EQ(SubgraphStateDegree(access, state, fresh), count);
}

// g with an index built by `options` attached to a copy.
Graph WithIndex(const Graph& g, const AdjacencyIndexOptions& options) {
  Graph copy = g;
  copy.BuildAdjacencyIndex(options);
  return copy;
}

// Runs check(access) through full access to g, full access with an index
// that gives every list a hub row and with one that gives none, a crawler
// with a one-entry cache, and a four-shard store held to a one-shard
// budget.
template <class Check>
void ForEachAccess(const Graph& g, const Check& check) {
  {
    SCOPED_TRACE("Graph");
    check(g);
  }
  {
    SCOPED_TRACE("Graph, a hub row for every list");
    AdjacencyIndexOptions options;
    options.min_hub_degree = 1;
    const Graph indexed = WithIndex(g, options);
    ASSERT_EQ(indexed.adjacency_index()->num_hubs(), g.NumNodes());
    check(indexed);
  }
  {
    SCOPED_TRACE("Graph, an index without hub rows");
    AdjacencyIndexOptions options;
    options.hub_memory_budget = 0;
    const Graph indexed = WithIndex(g, options);
    ASSERT_EQ(indexed.adjacency_index()->num_hubs(), 0u);
    check(indexed);
  }
  {
    SCOPED_TRACE("CrawlAccess cache 1");
    CrawlAccess::Options options;
    options.cache_entries = 1;
    const CrawlAccess crawl(g, options);
    check(crawl);
  }
  {
    SCOPED_TRACE("ShardedAccess one-shard budget");
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("walk_test_shards." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    ShardingOptions sharding;
    sharding.num_shards = 4;
    WriteShardedGraph(g, dir.string(), sharding);
    {
      ShardStore::Options options;
      options.resident_budget_bytes = 1;
      const ShardStore store(LoadShardManifest(dir.string()), options);
      const ShardedAccess sharded(store);
      check(sharded);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(GdCountSelectTest, SelectMatchesReferenceOnWalkedStates) {
  Rng gen(91);
  const Graph hk = LargestConnectedComponent(HolmeKim(600, 3, 0.3, gen));
  const Graph ba = LargestConnectedComponent(BarabasiAlbert(600, 3, gen));
  for (const Graph* g : {&hk, &ba}) {
    ForEachAccess(*g, [&](const auto& access) {
      using A = std::decay_t<decltype(access)>;
      GdScratch scratch;  // reused across states: catches stale parts
      for (const int d : {3, 4, 5}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        SubgraphWalkT<A> walk(access, d);
        Rng rng(500 + d);
        walk.Reset(rng);
        for (int s = 0; s < 90 / d; ++s) {
          ExpectSelectMatchesReference(access, *g, walk.Nodes(), scratch);
          if (testing::Test::HasFatalFailure()) return;
          walk.Step(rng);
        }
      }
    });
  }
}

TEST(GdCountSelectTest, SelectMatchesReferenceOnEveryStateOfSmallGraphs) {
  // Every connected 3- and 4-set of small graphs that force the corner
  // cases of the closed-form count:
  //  * hub: path state {0,1,2} with 0 a hub — evicting 1 leaves the base
  //    {0,2} disconnected, so only common neighbors of 0 and 2 count and
  //    the hub's own list contributes nothing alone;
  //  * complete and cycle graphs: every base list ties for the largest;
  //  * every graph: state members inside the largest list.
  std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 1}, {1, 2}, {2, 11}, {2, 12}, {11, 0}};
  for (VertexId v = 3; v <= 10; ++v) edges.emplace_back(0, v);
  const Graph hub = FromEdges(13, edges);
  {
    const std::vector<VertexId> path = {0, 1, 2};
    std::vector<VertexId> out;
    EnumerateGdNeighbors(hub, path, &out);
    // Evict 0: {1,2,11}, {1,2,12}. Evict 1: {0,2,11} only (base
    // disconnected). Evict 2: {0,1,v} for the hub's 9 other neighbors.
    EXPECT_EQ(out.size() / 3, 12u);
    EXPECT_EQ(SubgraphStateDegree(hub, path), 12u);
  }
  const Graph complete = Complete(6);
  const Graph cycle = Cycle(7);
  const Graph lollipop = Lollipop(5, 3);
  for (const Graph* g : {&hub, &complete, &cycle, &lollipop}) {
    ForEachAccess(*g, [&](const auto& access) {
      GdScratch scratch;
      const VertexId n = g->NumNodes();
      for (const int d : {3, 4}) {
        // All d-subsets in lexicographic order, kept when connected.
        std::vector<VertexId> set(d);
        for (int i = 0; i < d; ++i) set[i] = static_cast<VertexId>(i);
        while (true) {
          if (InducedSubgraphConnected(*g, std::span<const VertexId>(set))) {
            ExpectSelectMatchesReference(access, *g, set, scratch);
            if (testing::Test::HasFatalFailure()) return;
          }
          int i = d - 1;
          while (i >= 0 && set[i] == n - d + i) --i;
          if (i < 0) break;
          ++set[i];
          for (int j = i + 1; j < d; ++j) set[j] = set[j - 1] + 1;
        }
      }
    });
  }
}

TEST(WalkGuardsTest, TooSmallGraphsAreRejected) {
  const Graph tiny = FromEdges(2, {{0, 1}});
  EXPECT_THROW(EdgeWalk walk(tiny), std::invalid_argument);
  EXPECT_THROW(SubgraphWalk walk(tiny, 3), std::invalid_argument);
  EXPECT_THROW(SubgraphWalk walk(KarateClub(), 2), std::invalid_argument);
}

}  // namespace
}  // namespace grw
