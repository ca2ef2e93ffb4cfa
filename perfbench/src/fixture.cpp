// The benchmark fixture: one seeded Holme-Kim graph, stored both as a
// monolithic `.grwb` snapshot and as an 8-shard set, with its exact k=3
// and k=4 concentrations as the ground truth of the correctness check.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "exact/exact.h"
#include "graph/builder.h"
#include "graph/format.h"
#include "graph/generators.h"
#include "graph/sharding.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr uint64_t kFixtureStream = 0x66697874;  // "fixt"

std::string ExactPath(const std::string& dir) { return dir + "/exact.txt"; }

}  // namespace

void WriteFixture(uint64_t seed, const std::string& dir) {
  grw::Rng rng(grw::DeriveSeed(seed, kFixtureStream));
  grw::Graph g = grw::HolmeKim(kFixtureNodes, kFixtureEdgesPerNode,
                               kFixtureTriadProb, rng);
  // The walk theory needs a connected graph; Holme-Kim growth attaches
  // every new node, so this is a safety net, not a resize.
  if (!g.IsConnected()) g = grw::LargestConnectedComponent(g);
  grw::SaveGraphBinary(g, dir + "/graph.grwb");
  grw::ShardingOptions sharding;
  sharding.num_shards = kFixtureShards;
  grw::WriteShardedGraph(g, dir + "/shards", sharding);

  std::ofstream out(ExactPath(dir));
  for (int k : {3, 4}) {
    out << k;
    char buf[64];
    for (double c : grw::ExactConcentrations(g, k)) {
      std::snprintf(buf, sizeof(buf), " %.17g", c);
      out << buf;
    }
    out << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + ExactPath(dir));
  std::fprintf(stderr, "[fixture] seed %llu: %s\n",
               static_cast<unsigned long long>(seed), g.Summary().c_str());
}

Fixture LoadFixture(const std::string& dir) {
  Fixture fx;
  fx.dir = dir;
  fx.grwb = dir + "/graph.grwb";
  fx.shards = dir + "/shards";
  std::ifstream in(ExactPath(dir));
  if (!in) throw std::runtime_error("fixture: cannot open " + ExactPath(dir));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    int k = 0;
    fields >> k;
    std::vector<double> values;
    double v = 0.0;
    while (fields >> v) values.push_back(v);
    fx.exact[k] = values;
  }
  if (fx.exact.count(3) == 0 || fx.exact.count(4) == 0) {
    throw std::runtime_error("fixture: " + ExactPath(dir) + " is incomplete");
  }
  return fx;
}

uint64_t HalfShardBudget(const std::string& shard_dir) {
  return grw::LoadShardManifest(shard_dir).TotalShardBytes() / 2;
}

}  // namespace perfbench
