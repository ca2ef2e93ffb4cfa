#include "walk/subgraph_walk.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <type_traits>

#include "graph/access.h"
#include "graph/adjacency.h"
#include "graph/sharded_access.h"

namespace grw {

namespace {

// Connected components of an n-node (n <= 32) graph given as per-node
// neighbor bitmasks: one bitset BFS per component, no edge queries.
// Writes each component's node mask to comps[] and returns their number.
int MaskRowsComponents(const uint32_t* rows, int n, uint32_t* comps) {
  uint32_t unseen = n >= 32 ? ~0u : (1u << n) - 1u;
  int count = 0;
  while (unseen != 0) {
    uint32_t visited = unseen & (~unseen + 1u);  // lowest unseen node
    uint32_t frontier = visited;
    while (frontier != 0) {
      uint32_t reach = 0;
      while (frontier != 0) {
        reach |= rows[std::countr_zero(frontier)];
        frontier &= frontier - 1;
      }
      frontier = reach & ~visited;
      visited |= frontier;
    }
    comps[count++] = visited;
    unseen &= ~visited;
  }
  return count;
}

}  // namespace

template <class G>
bool InducedSubgraphConnected(const G& g, std::span<const VertexId> nodes) {
  const int n = static_cast<int>(nodes.size());
  if (n <= 1) return true;
  assert(n <= 32);
  uint32_t rows[32] = {};
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (g.HasEdge(nodes[i], nodes[j])) {
        rows[i] |= 1u << j;
        rows[j] |= 1u << i;
      }
    }
  }
  uint32_t comps[32];
  return MaskRowsComponents(rows, n, comps) == 1;
}

namespace {

// First index of sorted a[0..n) whose element is not below w, searching
// from `from` (everything before it is below w). Galloping, so a run of
// ascending queries costs O(log gap) each instead of O(log n).
size_t GallopLowerBound(const VertexId* a, size_t n, size_t from,
                        VertexId w) {
  size_t lo = from;
  size_t hi = from;
  size_t step = 1;
  while (hi < n && a[hi] < w) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  return static_cast<size_t>(
      std::lower_bound(a + lo, a + std::min(hi, n), w) - a);
}

// Membership in the base's largest list L by one bit test in its owner's
// dense hub row (full access with an index only).
struct RowMembership {
  const uint64_t* row;
  bool operator()(VertexId w) const { return (row[w >> 6] >> (w & 63)) & 1u; }
};

// Membership in L by a monotone galloping cursor over L's span: the
// queries must ascend. Searches only the list already fetched.
struct CursorMembership {
  std::span<const VertexId> list;
  size_t cursor = 0;
  bool operator()(VertexId w) {
    cursor = GallopLowerBound(list.data(), list.size(), cursor, w);
    return cursor < list.size() && list[cursor] == w;
  }
};

// Copies the sorted state into the scratch and resets its count.
void LoadState(std::span<const VertexId> state, GdScratch& s) {
  s.d = static_cast<int>(state.size());
  assert(s.d >= 1 && s.d <= 32);
  std::copy(state.begin(), state.end(), s.state.begin());
  s.count = 0;
}

// Internal adjacency of the state: C(d,2) edge queries that every part
// reuses.
template <class G>
void ProbeStateRows(const G& g, GdScratch& s) {
  const int d = s.d;
  uint32_t* srows = s.state_rows.data();
  for (int i = 0; i < d; ++i) srows[i] = 0;
  for (int i = 0; i < d; ++i) {
    for (int j = i + 1; j < d; ++j) {
      if (g.HasEdge(s.state[i], s.state[j])) {
        srows[i] |= 1u << j;
        srows[j] |= 1u << i;
      }
    }
  }
}

// Counts every part of the loaded state (rows filled); with kRecord, also
// records the ids that selection reads.
template <bool kRecord, class G>
uint64_t CountParts(const G& g, GdScratch& s) {
  const int d = s.d;
  const uint32_t* srows = s.state_rows.data();
  uint32_t used = 0;  // ids recorded so far
  uint64_t total = 0;

  for (int out_idx = 0; out_idx < d; ++out_idx) {
    GdScratch::Part& part = s.parts[out_idx];
    part = GdScratch::Part{};
    part.first_rank = total;
    part.ids_begin = used;
    part.ids_end = used;
    if (d == 1) continue;  // empty base: no neighbors

    // base = state minus the out_idx-th node, kept sorted; its internal
    // adjacency is the state's with row/column out_idx spliced out.
    // owner[j] is base[j]'s index in the state.
    uint32_t brows[32];
    int owner[32];
    std::span<const VertexId> lists[32];
    const uint32_t low_mask = (1u << out_idx) - 1u;
    for (int i = 0, j = 0; i < d; ++i) {
      if (i == out_idx) continue;
      owner[j] = i;
      const uint64_t row = srows[i];  // 64-bit so >> (out_idx + 1) is
                                      // defined even when out_idx == 31
      brows[j] = static_cast<uint32_t>((row & low_mask) |
                                       ((row >> (out_idx + 1)) << out_idx));
      ++j;
    }
    const int nb = d - 1;
    for (int j = 0; j < nb; ++j) lists[j] = g.Neighbors(s.state[owner[j]]);
    int large = 0;
    for (int j = 1; j < nb; ++j) {
      if (lists[j].size() > lists[large].size()) large = j;
    }
    const std::span<const VertexId> big = lists[large];
    // base + {w} is connected iff w is adjacent to every component of the
    // base, so with a connected base every candidate is valid.
    uint32_t comps[32];
    const int num_comps = MaskRowsComponents(brows, nb, comps);
    const bool connected = num_comps == 1;

    // Candidate incoming nodes are exactly the neighbors of the base
    // outside the state. A sorted merge of the non-largest lists yields
    // each distinct candidate w in ascending order together with its
    // adjacency to those base vertices (w is adjacent to base[j] iff it
    // surfaced from list j); in_large(w) adds L's bit. Returns how many
    // candidates are kept: with a connected base those not in L (the
    // L-only and L-shared ones are counted in closed form below),
    // otherwise the valid ones.
    const auto merge = [&](auto in_large) {
      const VertexId* heads[32];
      const VertexId* ends[32];
      uint32_t bits[32];
      int lists_merged = 0;
      size_t bound = 0;  // at most this many candidates
      for (int j = 0; j < nb; ++j) {
        if (j == large) continue;
        heads[lists_merged] = lists[j].data();
        ends[lists_merged] = lists[j].data() + lists[j].size();
        bits[lists_merged] = 1u << j;
        bound += lists[j].size();
        ++lists_merged;
      }
      VertexId* out = nullptr;
      if constexpr (kRecord) {
        if (s.ids.size() < used + bound) s.ids.resize(used + bound);
        out = s.ids.data() + used;
      }
      int state_pos = 0;  // into the (sorted) state, for skipping
      uint64_t kept = 0;
      const auto visit = [&](VertexId w, uint32_t wmask) {
        while (state_pos < d && s.state[state_pos] < w) ++state_pos;
        if (state_pos < d && s.state[state_pos] == w) return;
        bool keep;
        if (connected) {
          keep = !in_large(w);
        } else {
          wmask |= static_cast<uint32_t>(in_large(w)) << large;
          keep = true;
          for (int c = 0; c < num_comps; ++c) {
            keep = keep && (wmask & comps[c]) != 0;
          }
        }
        if constexpr (kRecord) out[kept] = w;  // kept only if counted
        kept += keep ? 1 : 0;
      };
      while (true) {
        VertexId w = ~static_cast<VertexId>(0);
        uint32_t wmask = 0;
        for (int t = 0; t < lists_merged; ++t) {
          if (heads[t] == ends[t]) continue;
          const VertexId head = *heads[t];
          if (head < w) {
            w = head;
            wmask = bits[t];
          } else if (head == w) {
            wmask |= bits[t];
          }
        }
        if (wmask == 0) break;  // all lists exhausted
        for (int t = 0; t < lists_merged; ++t) {
          heads[t] += (wmask & bits[t]) != 0 ? 1 : 0;
        }
        visit(w, wmask);
      }
      return kept;
    };
    uint64_t kept;
    if constexpr (std::is_same_v<G, Graph>) {
      const AdjacencyIndex* index = g.adjacency_index();
      const uint64_t* row =
          index != nullptr ? index->HubRow(s.state[owner[large]]) : nullptr;
      kept = row != nullptr ? merge(RowMembership{row})
                            : merge(CursorMembership{big});
    } else {
      kept = merge(CursorMembership{big});
    }

    // With a connected base every vertex of L outside the state is a
    // neighbor too: the kept ids plus |L| minus the state members in L
    // (the state row of L's owner).
    part.count = kept;
    if (connected) {
      part.count += big.size() -
                    static_cast<uint64_t>(std::popcount(srows[owner[large]]));
    }
    part.large = big;
    part.large_vertex = owner[large];
    part.base_connected = connected;
    if constexpr (kRecord) used += static_cast<uint32_t>(kept);
    part.ids_end = used;
    total += part.count;
  }
  return total;
}

// The j-th id of L that is not a state member; `members` (bit i = state[i]
// is in L) lists them in ascending id order, since the state is sorted.
VertexId NonMemberAt(const GdScratch& s, std::span<const VertexId> large,
                     uint32_t members, size_t j) {
  size_t p = j;
  for (; members != 0; members &= members - 1) {
    if (s.state[std::countr_zero(members)] > large[p]) break;
    ++p;
  }
  return large[p];
}

// Writes sorted(state minus state[out_idx], plus w) to out.
void WriteNeighbor(const GdScratch& s, int out_idx, VertexId w,
                   VertexId* out) {
  bool placed = false;
  for (int i = 0; i < s.d; ++i) {
    if (i == out_idx) continue;
    if (!placed && w < s.state[i]) {
      *out++ = w;
      placed = true;
    }
    *out++ = s.state[i];
  }
  if (!placed) *out = w;
}

}  // namespace

template <class G>
uint64_t CountGdNeighbors(const G& g, std::span<const VertexId> state,
                          GdScratch& scratch) {
  LoadState(state, scratch);
  ProbeStateRows(g, scratch);
  return scratch.count = CountParts<true>(g, scratch);
}

template <class G>
uint64_t CountGdNeighborsFromRows(const G& g,
                                  std::span<const VertexId> state,
                                  GdScratch& scratch) {
  LoadState(state, scratch);
  return scratch.count = CountParts<true>(g, scratch);
}

void SelectGdNeighbor(const GdScratch& s, uint64_t rank, VertexId* out) {
  assert(rank < s.count);
  int out_idx = 0;
  while (rank >= s.parts[out_idx].first_rank + s.parts[out_idx].count) {
    ++out_idx;
  }
  const GdScratch::Part& part = s.parts[out_idx];
  const VertexId* ids = s.ids.data() + part.ids_begin;
  const size_t num_ids = part.ids_end - part.ids_begin;
  const size_t r = rank - part.first_rank;
  if (!part.base_connected) {
    WriteNeighbor(s, out_idx, ids[r], out);
    return;
  }
  // The r-th smallest of two disjoint sorted sets: the recorded ids and
  // L' = L without its state members. Find i, the number of recorded ids
  // ranked before it: the largest i with ids[i-1] < L'[r-i] (the
  // predicate holds for small i and fails for large i).
  const uint32_t members = s.state_rows[part.large_vertex];
  const size_t num_large =
      part.large.size() - static_cast<size_t>(std::popcount(members));
  const auto large_at = [&](size_t j) {
    return NonMemberAt(s, part.large, members, j);
  };
  size_t lo = r > num_large ? r - num_large : 0;  // predicate holds here
  size_t hi = std::min(r, num_ids);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo + 1) / 2;
    if (ids[mid - 1] < large_at(r - mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  // The answer is ids[lo] or L'[r - lo], whichever is smaller.
  VertexId chosen = lo < num_ids ? ids[lo] : ~static_cast<VertexId>(0);
  if (r - lo < num_large) chosen = std::min(chosen, large_at(r - lo));
  WriteNeighbor(s, out_idx, chosen, out);
}

uint64_t GdNeighborRank(const GdScratch& s,
                        std::span<const VertexId> neighbor) {
  // The neighbor differs from the state in one evicted member
  // (state[out_idx]) and one incoming vertex w.
  const int d = s.d;
  if (static_cast<int>(neighbor.size()) != d) return s.count;
  int out_idx = -1;
  int in_idx = -1;
  int below = 0;  // state members with ids below w
  for (int i = 0, j = 0; i < d || j < d;) {
    if (i < d && j < d && s.state[i] == neighbor[j]) {
      ++i;
      ++j;
    } else if (j == d || (i < d && s.state[i] < neighbor[j])) {
      if (out_idx >= 0) return s.count;
      out_idx = i++;
    } else {
      if (in_idx >= 0) return s.count;
      in_idx = j++;
      below = i;
    }
  }
  if (out_idx < 0 || in_idx < 0) return s.count;
  const VertexId w = neighbor[in_idx];
  const GdScratch::Part& part = s.parts[out_idx];
  const VertexId* ids = s.ids.data() + part.ids_begin;
  const VertexId* ids_end = s.ids.data() + part.ids_end;
  const VertexId* id = std::lower_bound(ids, ids_end, w);
  const bool in_ids = id != ids_end && *id == w;
  uint64_t rank = part.first_rank + static_cast<uint64_t>(id - ids);
  if (!part.base_connected) return in_ids ? rank : s.count;

  // Connected base: add L's ids below w, less the state members among
  // them (the members of L with a state index below `below`).
  const VertexId* big = part.large.data();
  const size_t n = part.large.size();
  const size_t pos =
      static_cast<size_t>(std::lower_bound(big, big + n, w) - big);
  if (!in_ids && (pos == n || big[pos] != w)) return s.count;
  const uint64_t below_mask = (uint64_t{1} << below) - 1u;
  rank += pos - static_cast<uint64_t>(std::popcount(
                    s.state_rows[part.large_vertex] & below_mask));
  return rank;
}

template <class G>
uint64_t EnumerateGdNeighbors(const G& g, std::span<const VertexId> state,
                              std::vector<VertexId>* out_neighbors,
                              GdScratch& scratch) {
  const uint64_t count = CountGdNeighbors(g, state, scratch);
  const size_t d = static_cast<size_t>(scratch.d);
  const size_t at = out_neighbors->size();
  out_neighbors->resize(at + count * d);
  for (uint64_t rank = 0; rank < count; ++rank) {
    SelectGdNeighbor(scratch, rank, out_neighbors->data() + at + rank * d);
  }
  return count;
}

void EnumerateGdNeighborsReference(const Graph& g,
                                   std::span<const VertexId> state,
                                   std::vector<VertexId>* out_neighbors) {
  // The PR 3 implementation, verbatim: three scratch vectors allocated per
  // call, full adjacency-probing connectivity BFS per candidate.
  const auto connected = [&g](std::span<const VertexId> nodes) {
    const int n = static_cast<int>(nodes.size());
    if (n <= 1) return true;
    uint32_t visited = 1u;
    uint32_t frontier = 1u;
    while (frontier != 0) {
      uint32_t next = 0;
      for (int i = 0; i < n; ++i) {
        if (!((frontier >> i) & 1u)) continue;
        for (int j = 0; j < n; ++j) {
          if (!((visited >> j) & 1u) && g.HasEdge(nodes[i], nodes[j])) {
            next |= 1u << j;
          }
        }
      }
      visited |= next;
      frontier = next;
    }
    return visited == (1u << n) - 1u;
  };

  const int d = static_cast<int>(state.size());
  std::vector<VertexId> base(d - 1);
  std::vector<VertexId> candidate(d);
  std::vector<VertexId> additions;  // distinct v_in candidates per v_out

  for (int out_idx = 0; out_idx < d; ++out_idx) {
    for (int i = 0, j = 0; i < d; ++i) {
      if (i != out_idx) base[j++] = state[i];
    }
    additions.clear();
    for (VertexId v : base) {
      for (VertexId w : g.Neighbors(v)) {
        if (std::find(state.begin(), state.end(), w) == state.end()) {
          additions.push_back(w);
        }
      }
    }
    std::sort(additions.begin(), additions.end());
    additions.erase(std::unique(additions.begin(), additions.end()),
                    additions.end());

    for (VertexId w : additions) {
      std::merge(base.begin(), base.end(), &w, &w + 1, candidate.begin());
      if (connected(candidate)) {
        out_neighbors->insert(out_neighbors->end(), candidate.begin(),
                              candidate.end());
      }
    }
  }
}

template <class G>
uint64_t SubgraphStateDegree(const G& g, std::span<const VertexId> state,
                             GdScratch& scratch) {
  LoadState(state, scratch);
  ProbeStateRows(g, scratch);
  // Not recorded: the scratch cannot serve SelectGdNeighbor afterwards.
  return scratch.count = CountParts<false>(g, scratch);
}

template <class G>
void SubgraphWalkT<G>::Reset(Rng& rng) {
  ResetInRange(rng, 0, g_->NumNodes());
}

template <class G>
void SubgraphWalkT<G>::ResetInRange(Rng& rng, VertexId lo, VertexId hi) {
  // Grow a connected d-set from a random start node in [lo, hi) by
  // repeatedly adding a random neighbor of a random member (the grown set
  // may leave the range — the range only anchors the start). Retry from
  // scratch if the region around the start is too small (cannot happen in
  // a connected graph with n > d, but the loop also guards against
  // pathological RNG luck).
  while (true) {
    nodes_.clear();
    nodes_.push_back(lo + static_cast<VertexId>(rng.UniformInt(hi - lo)));
    int guard = 0;
    while (static_cast<int>(nodes_.size()) < d_ && guard++ < 16 * d_) {
      const VertexId anchor = nodes_[rng.UniformInt(nodes_.size())];
      const uint32_t deg = g_->Degree(anchor);
      if (deg == 0) break;
      const VertexId w =
          g_->Neighbor(anchor, static_cast<uint32_t>(rng.UniformInt(deg)));
      if (std::find(nodes_.begin(), nodes_.end(), w) == nodes_.end()) {
        nodes_.push_back(w);
      }
    }
    if (static_cast<int>(nodes_.size()) == d_) break;
  }
  std::sort(nodes_.begin(), nodes_.end());
  prev_.clear();
  counted_ = false;
}

template <class G>
void SubgraphWalkT<G>::Step(Rng& rng) {
  EnsureCounted();
  const uint64_t count = gd_.count;
  assert(count > 0 && "state with no G(d) neighbors in a connected graph");

  uint64_t pick = rng.UniformInt(count);
  if (nb_ && !prev_.empty() && count >= 2) {
    // Uniform over neighbors excluding the previous state, which is the
    // neighbor of rank prev_rank.
    const uint64_t prev_rank = GdNeighborRank(gd_, prev_);
    while (pick == prev_rank) pick = rng.UniformInt(count);
  }

  prev_ = nodes_;
  SelectGdNeighbor(gd_, pick, nodes_.data());
  counted_ = false;
}

// The policy family is closed (graph/access.h): full, crawl and sharded
// access. Instantiating here keeps the hot path out of every includer
// while still compiling each policy with full optimization context.
#define GRW_INSTANTIATE_GD(G)                                              \
  template bool InducedSubgraphConnected<G>(const G&,                      \
                                            std::span<const VertexId>);    \
  template uint64_t CountGdNeighbors<G>(const G&, std::span<const VertexId>, \
                                        GdScratch&);                       \
  template uint64_t CountGdNeighborsFromRows<G>(                           \
      const G&, std::span<const VertexId>, GdScratch&);                    \
  template uint64_t EnumerateGdNeighbors<G>(                               \
      const G&, std::span<const VertexId>, std::vector<VertexId>*,         \
      GdScratch&);                                                         \
  template uint64_t SubgraphStateDegree<G>(                                \
      const G&, std::span<const VertexId>, GdScratch&);                    \
  template class SubgraphWalkT<G>;

GRW_INSTANTIATE_GD(Graph)
GRW_INSTANTIATE_GD(CrawlAccess)
GRW_INSTANTIATE_GD(ShardedAccess)

#undef GRW_INSTANTIATE_GD

}  // namespace grw
