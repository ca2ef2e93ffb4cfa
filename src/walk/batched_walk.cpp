#include "walk/batched_walk.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <type_traits>

#include "graph/adjacency.h"

namespace grw {

namespace {

// Whether the access policy exposes the raw CSR (Graph does; CrawlAccess
// deliberately does not — a crawler may only touch what it fetched, and
// even an advisory prefetch of unfetched rows would be out of character).
template <class G>
constexpr bool kHasRawCsr = requires(const G& g) {
  g.RawOffsets();
  g.RawNeighbors();
};

}  // namespace

template <class G>
BatchedWalkT<G>::BatchedWalkT(const G& g, int d, int lanes,
                              bool non_backtracking)
    : access_(static_cast<size_t>(lanes < 0 ? 0 : lanes), &g),
      shared_access_(true),
      d_(d),
      lanes_(lanes),
      nb_(non_backtracking) {
  ValidateShape();
}

template <class G>
BatchedWalkT<G>::BatchedWalkT(std::span<const G* const> lane_access, int d,
                              bool non_backtracking)
    : access_(lane_access.begin(), lane_access.end()),
      shared_access_(false),
      d_(d),
      lanes_(static_cast<int>(lane_access.size())),
      nb_(non_backtracking) {
  ValidateShape();
}

template <class G>
void BatchedWalkT<G>::ValidateShape() {
  if (lanes_ < 1) {
    throw std::invalid_argument("BatchedWalk: need at least one lane");
  }
  if (d_ < 1 || d_ > 32) {
    throw std::invalid_argument("BatchedWalk: need 1 <= d <= 32");
  }
  const G& g = *access_[0];
  if ((d_ == 1 && g.NumNodes() < 2) ||
      (d_ == 2 && (g.NumNodes() < 3 || g.NumEdges() < 2)) ||
      (d_ >= 3 && g.NumNodes() < static_cast<VertexId>(d_ + 1))) {
    throw std::invalid_argument("BatchedWalk: graph too small for d-walk");
  }

  const size_t slots = static_cast<size_t>(lanes_) * d_;
  nodes_.assign(slots, 0);
  prev_.assign(slots, 0);
  has_prev_.assign(lanes_, 0);
  if (d_ >= 3) {
    gd_.resize(lanes_);
    counted_.assign(lanes_, 0);
    rows_ready_.assign(lanes_, 0);
    grow_.reserve(d_);
  }
}

template <class G>
void BatchedWalkT<G>::ResetLane(int lane, Rng& rng) {
  const G& g = Access(lane);
  VertexId* nodes = nodes_.data() + static_cast<size_t>(lane) * d_;
  has_prev_[lane] = 0;

  if (d_ == 1) {
    // NodeWalkT::Reset, verbatim.
    nodes[0] = static_cast<VertexId>(rng.UniformInt(g.NumNodes()));
    return;
  }
  if (d_ == 2) {
    // EdgeWalkT::Reset, verbatim: a random endpoint's random incident
    // edge, canonicalized (min, max).
    const VertexId u =
        static_cast<VertexId>(rng.UniformInt(g.NumNodes()));
    const VertexId w = g.Neighbor(
        u, static_cast<uint32_t>(rng.UniformInt(g.Degree(u))));
    nodes[0] = u < w ? u : w;
    nodes[1] = u < w ? w : u;
    return;
  }

  // SubgraphWalkT::Reset, verbatim: grow a connected d-set from a random
  // start node; retry from scratch on pathological luck.
  while (true) {
    grow_.clear();
    grow_.push_back(static_cast<VertexId>(rng.UniformInt(g.NumNodes())));
    int guard = 0;
    while (static_cast<int>(grow_.size()) < d_ && guard++ < 16 * d_) {
      const VertexId anchor = grow_[rng.UniformInt(grow_.size())];
      const uint32_t deg = g.Degree(anchor);
      if (deg == 0) break;
      const VertexId w =
          g.Neighbor(anchor, static_cast<uint32_t>(rng.UniformInt(deg)));
      if (std::find(grow_.begin(), grow_.end(), w) == grow_.end()) {
        grow_.push_back(w);
      }
    }
    if (static_cast<int>(grow_.size()) == d_) break;
  }
  std::sort(grow_.begin(), grow_.end());
  std::copy(grow_.begin(), grow_.end(), nodes);
  counted_[lane] = 0;
  rows_ready_[lane] = 0;
}

template <class G>
void BatchedWalkT<G>::PrefetchLaneRows(int lane) const {
  if constexpr (kHasRawCsr<G>) {
    const G& g = Access(lane);
    const auto offsets = g.RawOffsets();
    const auto neighbors = g.RawNeighbors();
    const std::span<const VertexId> state = LaneNodes(lane);
    for (const VertexId u : state) {
      __builtin_prefetch(neighbors.data() + offsets[u]);
    }
  } else {
    (void)lane;
  }
}

template <class G>
void BatchedWalkT<G>::BuildStateRowsBatch(
    std::span<const int> lanes_todo) const {
  // Full access with an index only: W * C(d,2) internal-adjacency probes
  // for the whole batch, vectorized signature rejection first, exact
  // HasEdge confirmation only for the admitted few. Identical rows to
  // probing pairwise — the signature has no false negatives.
  if constexpr (std::is_same_v<G, Graph>) {
    const AdjacencyIndex* index = access_[0]->adjacency_index();
    assert(shared_access_ && index != nullptr);
    const int pairs_per_lane = d_ * (d_ - 1) / 2;
    const int group = std::max(1, 64 / pairs_per_lane);
    VertexId us[64];
    VertexId vs[64];
    for (size_t first = 0; first < lanes_todo.size();
         first += static_cast<size_t>(group)) {
      const size_t last =
          std::min(lanes_todo.size(), first + static_cast<size_t>(group));
      int count = 0;
      for (size_t t = first; t < last; ++t) {
        const VertexId* state =
            nodes_.data() + static_cast<size_t>(lanes_todo[t]) * d_;
        for (int i = 0; i < d_; ++i) {
          for (int j = i + 1; j < d_; ++j) {
            us[count] = state[i];
            vs[count] = state[j];
            ++count;
          }
        }
      }
      uint64_t admitted = index->PairProbeBatch(us, vs, count);
      int p = 0;
      for (size_t t = first; t < last; ++t) {
        const int lane = lanes_todo[t];
        const VertexId* state =
            nodes_.data() + static_cast<size_t>(lane) * d_;
        uint32_t* rows = gd_[lane].state_rows.data();
        for (int i = 0; i < d_; ++i) rows[i] = 0;
        for (int i = 0; i < d_; ++i) {
          for (int j = i + 1; j < d_; ++j, ++p) {
            if (((admitted >> p) & 1u) != 0 &&
                access_[0]->HasEdge(state[i], state[j])) {
              rows[i] |= 1u << j;
              rows[j] |= 1u << i;
            }
          }
        }
        rows_ready_[lane] = 1;
      }
    }
  } else {
    (void)lanes_todo;
    assert(false && "row batching is a full-access-only shortcut");
  }
}

template <class G>
void BatchedWalkT<G>::PrepareLanes(std::span<const uint8_t> active) {
  const auto lane_active = [&](int lane) {
    return active.empty() || active[lane] != 0;
  };
  if (d_ <= 2) {
    // One pass of advisory prefetches: each lane's current rows are in
    // flight before the per-lane RNG work touches them.
    for (int lane = 0; lane < lanes_; ++lane) {
      if (lane_active(lane)) PrefetchLaneRows(lane);
    }
    return;
  }

  todo_.clear();
  for (int lane = 0; lane < lanes_; ++lane) {
    if (lane_active(lane) && counted_[lane] == 0) {
      todo_.push_back(lane);
    }
  }
  if (todo_.empty()) return;

  if constexpr (std::is_same_v<G, Graph>) {
    if (shared_access_ && access_[0]->adjacency_index() != nullptr) {
      BuildStateRowsBatch(todo_);
    }
  }

  // Count stale lanes, each overlapping the next lane's row fetch.
  PrefetchLaneRows(todo_[0]);
  for (size_t t = 0; t < todo_.size(); ++t) {
    if (t + 1 < todo_.size()) PrefetchLaneRows(todo_[t + 1]);
    EnsureLane(todo_[t]);
  }
}

template <class G>
void BatchedWalkT<G>::EnsureLane(int lane) const {
  if (counted_[lane] != 0) return;
  if (rows_ready_[lane] != 0) {
    CountGdNeighborsFromRows(Access(lane), LaneNodes(lane), gd_[lane]);
  } else {
    CountGdNeighbors(Access(lane), LaneNodes(lane), gd_[lane]);
  }
  counted_[lane] = 1;
  rows_ready_[lane] = 0;  // consumed; stale after the next transition
}

template <class G>
uint64_t BatchedWalkT<G>::LaneStateDegree(int lane) const {
  const G& g = Access(lane);
  const VertexId* nodes = nodes_.data() + static_cast<size_t>(lane) * d_;
  if (d_ == 1) return g.Degree(nodes[0]);
  if (d_ == 2) {
    return static_cast<uint64_t>(g.Degree(nodes[0])) + g.Degree(nodes[1]) -
           2;
  }
  EnsureLane(lane);
  return gd_[lane].count;
}

template <class G>
void BatchedWalkT<G>::StepLane(int lane, Rng& rng) {
  const G& g = Access(lane);
  VertexId* nodes = nodes_.data() + static_cast<size_t>(lane) * d_;
  VertexId* prev = prev_.data() + static_cast<size_t>(lane) * d_;

  if (d_ == 1) {
    // NodeWalkT::Step, verbatim.
    const uint32_t deg = g.Degree(nodes[0]);
    VertexId next =
        g.Neighbor(nodes[0], static_cast<uint32_t>(rng.UniformInt(deg)));
    if (nb_ && has_prev_[lane] != 0 && deg >= 2) {
      while (next == prev[0]) {
        next = g.Neighbor(nodes[0],
                          static_cast<uint32_t>(rng.UniformInt(deg)));
      }
    }
    prev[0] = nodes[0];
    has_prev_[lane] = 1;
    nodes[0] = next;
    return;
  }

  if (d_ == 2) {
    // EdgeWalkT::Step + SampleNeighborState, verbatim (same draw order).
    const VertexId u = nodes[0];
    const VertexId v = nodes[1];
    const uint64_t deg =
        static_cast<uint64_t>(g.Degree(u)) + g.Degree(v) - 2;
    VertexId a;
    VertexId b;
    while (true) {
      const uint64_t du = g.Degree(u);
      const uint64_t dv = g.Degree(v);
      while (true) {
        const bool pick_u = rng.UniformInt(du + dv) < du;
        const VertexId base = pick_u ? u : v;
        const VertexId other = pick_u ? v : u;
        const VertexId w = g.Neighbor(
            base, static_cast<uint32_t>(rng.UniformInt(g.Degree(base))));
        if (w == other) continue;
        a = base < w ? base : w;
        b = base < w ? w : base;
        break;
      }
      if (nb_ && has_prev_[lane] != 0 && deg >= 2 && a == prev[0] &&
          b == prev[1]) {
        continue;
      }
      break;
    }
    prev[0] = u;
    prev[1] = v;
    has_prev_[lane] = 1;
    nodes[0] = a;
    nodes[1] = b;
    return;
  }

  // SubgraphWalkT::Step, verbatim over the lane's counted neighborhood.
  EnsureLane(lane);
  const GdScratch& gd = gd_[lane];
  const uint64_t count = gd.count;
  assert(count > 0 && "state with no G(d) neighbors in a connected graph");

  uint64_t pick = rng.UniformInt(count);
  if (nb_ && has_prev_[lane] != 0 && count >= 2) {
    const uint64_t prev_rank =
        GdNeighborRank(gd, {prev, static_cast<size_t>(d_)});
    while (pick == prev_rank) pick = rng.UniformInt(count);
  }

  std::copy(nodes, nodes + d_, prev);
  has_prev_[lane] = 1;
  SelectGdNeighbor(gd, pick, nodes);
  counted_[lane] = 0;
  rows_ready_[lane] = 0;
}

// Closed policy family (graph/access.h): full access + crawl access.
template class BatchedWalkT<Graph>;
template class BatchedWalkT<CrawlAccess>;

}  // namespace grw
