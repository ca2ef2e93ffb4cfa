// Random walk on G(d) for d >= 3: states are connected induced d-node
// subgraphs, whose neighborhoods are counted on the fly.
//
// This is the walk behind SRW3 and SRW4 — i.e. PSRW (Wang et al.) when
// d = k-1 — kept as the paper's main comparison method. A neighbor of a
// state s is every t = (V(s) \ {v_out}) ∪ {v_in} with v_in adjacent to the
// remainder (the "base") and t connected. Section 5 of the paper draws a
// uniform neighbor by generating all of them, at O(d^2 |E|/|V|) per step.
// This walk counts them instead and draws one by rank.
//
// Count and select: the neighbors are ranked out_idx-major (the index of
// v_out in the sorted state), then by ascending v_in. For each evicted
// vertex the base's longest neighbor list L is never merged. The other
// d-2 lists go through a sorted merge that yields each distinct v_in with
// its base-adjacency mask, and membership of v_in in L adds L's bit: one
// bit test in the dense hub row of L's owner when the graph is full access
// with an AdjacencyIndex that gave it a row, otherwise a monotone
// galloping cursor over L. The base's connected components (from the
// state's internal adjacency: C(d,2) edge queries, built once per state)
// are found once per part, and v_in is valid iff its mask meets every
// component — so with a connected base every candidate is. Vertices that
// appear only in L attach to the base through one vertex, so they are all
// valid iff the base is connected. A part therefore records only the ids
// the closed form does not cover: with a connected base the merged
// candidates not in L, whose neighbors are those ids plus L without its
// state members; otherwise the valid merged candidates. Select(rank) takes
// ids[r] for a disconnected base, and for a connected one the r-th
// smallest of the two disjoint sorted sets by a binary search over how
// many come from the ids; Rank inverts it with one lower_bound in L. Only
// the chosen state is ever written. A step costs
// O(sum of the non-largest base degrees) per evicted vertex, times a bit
// test when L has a row and a galloping search otherwise, plus
// O(log Δ) for the select — the hubs that dominate the merge cost are
// exactly the lists never merged. The pre-optimization enumerator is kept
// as EnumerateGdNeighborsReference, the oracle of the equivalence tests
// and the micro-bench baseline.
//
// Everything here is templated on the graph access policy (graph/access.h)
// with explicit instantiations for Graph, CrawlAccess and ShardedAccess in
// subgraph_walk.cpp. Each edge query and neighbor-list read goes through
// the policy — the C(d,2) state probes, then Neighbors() of each base
// vertex per evicted vertex, in that order — so a crawl simulation charges
// the enumeration its true API cost. Crawl and sharded access answer L's
// membership by searching spans already fetched, never from extra queries
// or hub rows.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/access.h"
#include "walk/walker.h"

namespace grw {

/// The counted G(d) neighborhood of one state: what CountGdNeighbors
/// records so that SelectGdNeighbor and GdNeighborRank need no further
/// access calls. The `large` spans point into the access object's
/// neighbor lists, so a record is valid while that object lives. One
/// instance per walker/chain/lane; reuse keeps the hot path
/// allocation-free once `ids` reaches its high-water size.
struct GdScratch {
  /// The neighbors that evict state[out_idx], ranks
  /// [first_rank, first_rank + count). With a connected base they are the
  /// recorded ids and the ids of L outside the state, merged in ascending
  /// order; otherwise they are the recorded ids alone.
  struct Part {
    uint64_t first_rank = 0;
    uint64_t count = 0;
    std::span<const VertexId> large;  // L: the longest base list
    int large_vertex = 0;   // state index of L's owner
    bool base_connected = false;
    uint32_t ids_begin = 0;  // this part's slice of `ids`
    uint32_t ids_end = 0;
  };

  int d = 0;
  uint64_t count = 0;  // neighbors of `state`
  std::array<VertexId, 32> state = {};       // sorted
  std::array<uint32_t, 32> state_rows = {};  // state internal adjacency
  std::array<Part, 32> parts = {};
  /// Per part, ascending, in [ids_begin, ids_end): the merged candidates
  /// (not in the state) that the closed form does not cover — those not
  /// in L when the base is connected, the valid ones when it is not.
  /// Grows to its high-water size and is never shrunk.
  std::vector<VertexId> ids;
};

/// Counts the G(d)-neighbors of `state` (sorted node ids, 1 <= d =
/// state.size() <= 32) and records them in `scratch` for SelectGdNeighbor
/// and GdNeighborRank. A neighbor is any connected induced d-node subgraph
/// sharing exactly d-1 nodes with `state`. Probes the C(d,2) state rows
/// first. Defined in subgraph_walk.cpp for Graph, CrawlAccess and
/// ShardedAccess.
template <class G>
uint64_t CountGdNeighbors(const G& g, std::span<const VertexId> state,
                          GdScratch& scratch);

/// As CountGdNeighbors, with scratch.state_rows (bit j of row i = edge
/// state[i]~state[j]) already filled by the caller instead of probed here.
/// The batched walk kernel builds the rows for a whole lane batch at once
/// (vectorized signature rejection); the result is identical given correct
/// rows.
template <class G>
uint64_t CountGdNeighborsFromRows(const G& g,
                                  std::span<const VertexId> state,
                                  GdScratch& scratch);

/// Writes the neighbor of rank `rank` (< scratch.count) as d sorted ids to
/// out[0..d): the rank-th state EnumerateGdNeighbors would emit. No access
/// calls. `out` may alias nothing in `scratch`.
void SelectGdNeighbor(const GdScratch& scratch, uint64_t rank,
                      VertexId* out);

/// The rank of `neighbor` (d sorted ids) among the recorded neighbors, or
/// scratch.count if it is not one. No access calls.
uint64_t GdNeighborRank(const GdScratch& scratch,
                        std::span<const VertexId> neighbor);

/// Appends to *out_neighbors every G(d)-neighbor of `state` in rank
/// order, flattened d sorted ids per neighbor; returns the neighbor count.
/// CountGdNeighbors followed by SelectGdNeighbor of every rank (tests;
/// the walk itself never materializes).
template <class G>
uint64_t EnumerateGdNeighbors(const G& g, std::span<const VertexId> state,
                              std::vector<VertexId>* out_neighbors,
                              GdScratch& scratch);

/// Convenience overload with a throwaway scratch (tests, one-off calls).
template <class G>
inline void EnumerateGdNeighbors(const G& g,
                                 std::span<const VertexId> state,
                                 std::vector<VertexId>* out_neighbors) {
  GdScratch scratch;
  EnumerateGdNeighbors(g, state, out_neighbors, scratch);
}

/// The pre-acceleration enumerator: per-call vector allocations and a full
/// adjacency-probing BFS per candidate. Kept verbatim as the behavioral
/// reference — tests assert the count-and-select core ranks the identical
/// flattened neighbor sequence, and bench_micro_hasedge uses it as the
/// end-to-end SRW baseline. Full access only.
void EnumerateGdNeighborsReference(const Graph& g,
                                   std::span<const VertexId> state,
                                   std::vector<VertexId>* out_neighbors);

/// Degree of `state` in G(d): the number of neighbors above, counted
/// without recording anything for selection.
template <class G>
uint64_t SubgraphStateDegree(const G& g, std::span<const VertexId> state,
                             GdScratch& scratch);

/// Convenience overload with a throwaway scratch.
template <class G>
inline uint64_t SubgraphStateDegree(const G& g,
                                    std::span<const VertexId> state) {
  GdScratch scratch;
  return SubgraphStateDegree(g, state, scratch);
}

/// True iff the subgraph induced by `nodes` (<= 32 of them) is connected.
/// Costs C(|nodes|, 2) edge queries and one bitmask BFS.
template <class G>
bool InducedSubgraphConnected(const G& g, std::span<const VertexId> nodes);

/// Random walk on connected induced d-node subgraphs of G, d >= 3,
/// through access policy G.
template <class G = Graph>
class SubgraphWalkT final : public StateWalker {
 public:
  SubgraphWalkT(const G& g, int d, bool non_backtracking = false)
      : g_(&g), d_(d), nb_(non_backtracking) {
    if (d < 3) {
      throw std::invalid_argument("SubgraphWalk: use NodeWalk/EdgeWalk");
    }
    if (g.NumNodes() < static_cast<VertexId>(d + 1)) {
      throw std::invalid_argument("SubgraphWalk: graph too small");
    }
    nodes_.reserve(d);
    prev_.reserve(d);
  }

  int d() const override { return d_; }

  void Reset(Rng& rng) override;

  void ResetInRange(Rng& rng, VertexId lo, VertexId hi) override;

  void Step(Rng& rng) override;

  std::span<const VertexId> Nodes() const override {
    return {nodes_.data(), nodes_.size()};
  }

  /// Number of neighbor states; counts (once per state) the neighborhood
  /// that Step then selects from.
  uint64_t StateDegree() const override {
    EnsureCounted();
    return gd_.count;
  }

  bool non_backtracking() const override { return nb_; }

 private:
  void EnsureCounted() const {
    if (!counted_) {
      CountGdNeighbors(*g_, Nodes(), gd_);
      counted_ = true;
    }
  }

  const G* g_;
  int d_;
  bool nb_;
  std::vector<VertexId> nodes_;  // sorted
  std::vector<VertexId> prev_;   // sorted; empty until first Step
  mutable GdScratch gd_;         // the current state's neighborhood
  mutable bool counted_ = false;
};

/// The full-access walk every pre-policy call site uses.
using SubgraphWalk = SubgraphWalkT<Graph>;

}  // namespace grw
