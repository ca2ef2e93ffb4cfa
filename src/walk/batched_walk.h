// Batched walk kernel: W independent G(d) chains advanced in lockstep.
//
// The scalar walkers (node_walk.h, edge_walk.h, subgraph_walk.h) advance
// one chain at a time, so every cache miss on a CSR row stalls the whole
// pipeline. This kernel keeps W chains ("lanes") in structure-of-arrays
// layout — one flat array per walk field (current nodes, previous nodes,
// backtracking flags, counted neighborhoods) instead of an array of walker
// objects — and advances all lanes per step round:
//
//   * PrepareLanes() does the RNG-free heavy lifting for every lane at
//     once: for d >= 3 it counts each stale lane's G(d) neighborhood
//     while software-prefetching the next lane's CSR rows, overlapping
//     one lane's memory latency with another lane's compute; for d <= 2
//     it prefetches each lane's current adjacency row.
//   * With full access and an AdjacencyIndex attached, the per-lane
//     state-adjacency rows are built with one *vectorized* pass of
//     Bloom-signature rejection over the whole lane batch
//     (AdjacencyIndex::PairProbeBatch, AVX2 with scalar fallback): the
//     W * C(d,2) probes of a step round become a handful of vector ops
//     plus exact confirmation of the few admitted pairs.
//   * StepLane() then spends each lane's RNG draws exactly as the scalar
//     walker would.
//
// Lane <-> chain equivalence contract: lane j driven by an Rng seeded s_j
// reproduces, bit for bit, the state sequence of the corresponding scalar
// walker driven by an Rng seeded s_j — same RNG draw order, same
// tie-breaking, same non-backtracking rejection loops. The batching
// only reorders *memory traffic*, never randomness. This is what lets the
// engine swap batched kernels in behind EngineOptions::batch while
// keeping estimates and stopping points bit-identical at any thread
// count (tests/batched_walk_test.cpp holds the contract down to every
// transition).
//
// Crawl lanes (G = CrawlAccess): each lane reads through its own private
// access object, and the kernel makes exactly the same access calls in
// exactly the same per-lane order as the scalar walker — no signature
// shortcuts, no prefetch-driven fetches — so per-lane cache hit rates,
// query accounting and budget verdicts match the scalar chains they
// replace.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/access.h"
#include "walk/subgraph_walk.h"

namespace grw {

/// W-lane batched random walk on G(d) through access policy G.
/// Instantiated for Graph and CrawlAccess in batched_walk.cpp.
template <class G = Graph>
class BatchedWalkT {
 public:
  /// All lanes share one access object (full-access engine, benches).
  /// Validation matches the scalar walkers: throws std::invalid_argument
  /// when the graph is too small for a d-walk or lanes < 1.
  BatchedWalkT(const G& g, int d, int lanes, bool non_backtracking = false);

  /// Lane j reads through *lane_access[j] (crawl engine: one private
  /// crawler per lane). lanes() == lane_access.size().
  BatchedWalkT(std::span<const G* const> lane_access, int d,
               bool non_backtracking = false);

  int d() const { return d_; }
  int lanes() const { return lanes_; }
  bool non_backtracking() const { return nb_; }

  /// Re-initializes lane `lane` at a random starting state — the same
  /// draws, from `rng`, as the scalar walker's Reset.
  void ResetLane(int lane, Rng& rng);

  /// RNG-free preparation of one step round for the lanes with
  /// active[lane] != 0 (pass an empty span for "all lanes"): neighborhood
  /// counting (d >= 3, with cross-lane prefetch and batched signature
  /// rejection where the access allows) or adjacency-row prefetch
  /// (d <= 2). Optional — StepLane falls back to per-lane preparation —
  /// but this is where the batching wins its throughput.
  void PrepareLanes(std::span<const uint8_t> active = {});

  /// One transition of lane `lane`, spending draws from `rng` exactly as
  /// the scalar walker's Step would.
  void StepLane(int lane, Rng& rng);

  /// The d nodes of lane `lane`'s current state (sorted for d != 2;
  /// canonical (min, max) for d = 2). Valid until the lane next steps.
  std::span<const VertexId> LaneNodes(int lane) const {
    return {nodes_.data() + static_cast<size_t>(lane) * d_,
            static_cast<size_t>(d_)};
  }

  /// Degree of lane `lane`'s state in G(d); for d >= 3 this counts (and
  /// keeps) the lane's neighborhood like the scalar walker.
  uint64_t LaneStateDegree(int lane) const;

 private:
  const G& Access(int lane) const { return *access_[lane]; }
  void ValidateShape();
  void EnsureLane(int lane) const;
  void PrefetchLaneRows(int lane) const;
  void BuildStateRowsBatch(std::span<const int> lanes_todo) const;

  std::vector<const G*> access_;  // per lane (may all alias one object)
  bool shared_access_;  // one object behind every lane: cross-lane probe
                        // batches may mix lanes (one signature array)
  int d_;
  int lanes_;
  bool nb_;

  std::vector<VertexId> nodes_;    // lanes * d, current states
  std::vector<VertexId> prev_;     // lanes * d, previous states
  std::vector<uint8_t> has_prev_;  // per lane

  // d >= 3 only: per-lane counted neighborhoods (each with its state
  // rows, which BuildStateRowsBatch may fill ahead of the count) and
  // whether they are current. All mutable: caches behind the const
  // StateDegree path, like the scalar walker.
  mutable std::vector<GdScratch> gd_;
  mutable std::vector<uint8_t> counted_;
  mutable std::vector<uint8_t> rows_ready_;  // per lane: gd_ rows filled
  mutable std::vector<int> todo_;  // PrepareLanes work list
  std::vector<VertexId> grow_;     // ResetLane's partial state
};

/// The full-access kernel.
using BatchedWalk = BatchedWalkT<Graph>;

}  // namespace grw
