#include "walk/subgraph_walk.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "graph/access.h"
#include "graph/sharded_access.h"

namespace grw {

namespace {

// Connectivity over an n-node (n <= 32) adjacency given as per-node
// neighbor bitmasks: bitset BFS from node 0, no edge queries.
bool MaskRowsConnected(const uint32_t* rows, int n) {
  const uint32_t all = n >= 32 ? ~0u : (1u << n) - 1u;
  uint32_t visited = 1u;
  uint32_t frontier = 1u;
  while (frontier != 0 && visited != all) {
    uint32_t reach = 0;
    while (frontier != 0) {
      reach |= rows[std::countr_zero(frontier)];
      frontier &= frontier - 1;
    }
    frontier = reach & ~visited;
    visited |= frontier;
  }
  return visited == all;
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
  return MaskRowsConnected(rows, n);
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
// records the merged entries that selection walks.
template <bool kRecord, class G>
uint64_t CountParts(const G& g, GdScratch& s) {
  const int d = s.d;
  const uint32_t* srows = s.state_rows.data();
  if constexpr (kRecord) s.entries.clear();
  uint64_t total = 0;

  for (int out_idx = 0; out_idx < d; ++out_idx) {
    GdScratch::Part& part = s.parts[out_idx];
    part = GdScratch::Part{};
    part.first_rank = total;
    part.entries_begin = static_cast<uint32_t>(s.entries.size());
    part.entries_end = part.entries_begin;
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

    // Candidate incoming nodes are exactly the neighbors of the base
    // outside the state. A sorted merge of the non-largest lists yields
    // each distinct candidate w in ascending order together with its
    // adjacency to those base vertices (w is adjacent to base[j] iff it
    // surfaced from list j); a galloping cursor over L adds L's bit.
    const VertexId* heads[32];
    const VertexId* ends[32];
    uint32_t bits[32];
    int lists_merged = 0;
    for (int j = 0; j < nb; ++j) {
      if (j == large) continue;
      heads[lists_merged] = lists[j].data();
      ends[lists_merged] = lists[j].data() + lists[j].size();
      bits[lists_merged] = 1u << j;
      ++lists_merged;
    }
    size_t cursor = 0;     // into L
    int state_pos = 0;     // into the (sorted) state, for skipping
    uint64_t valid = 0;
    uint64_t merged_in_large = 0;
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
      while (state_pos < d && s.state[state_pos] < w) ++state_pos;
      if (state_pos < d && s.state[state_pos] == w) continue;

      cursor = GallopLowerBound(big.data(), big.size(), cursor, w);
      const bool in_large = cursor < big.size() && big[cursor] == w;
      wmask |= static_cast<uint32_t>(in_large) << large;
      uint32_t rows[32];
      for (int j = 0; j < nb; ++j) {
        rows[j] = brows[j] | (((wmask >> j) & 1u) << nb);
      }
      rows[nb] = wmask;
      const bool ok = MaskRowsConnected(rows, d);
      valid += ok ? 1 : 0;
      merged_in_large += in_large ? 1 : 0;
      if constexpr (kRecord) {
        s.entries.push_back({w, static_cast<uint32_t>(cursor), in_large, ok});
      }
    }

    // Vertices only in L attach to the base through L's owner alone: all
    // valid iff the base is connected. Their number: |L| minus the merged
    // candidates found in L minus the state members in L (the owner's
    // state row).
    part.count = valid;
    part.large = big;
    part.large_vertex = owner[large];
    part.base_connected = MaskRowsConnected(brows, nb);
    if (part.base_connected) {
      part.count += big.size() - merged_in_large -
                    static_cast<uint64_t>(std::popcount(srows[owner[large]]));
    }
    part.entries_end = static_cast<uint32_t>(s.entries.size());
    total += part.count;
  }
  return total;
}

// Walks one recorded part in rank order. on_run(lo, hi, states) gets each
// stretch [lo, hi) of L's positions that holds only L-only candidates and
// the positions `states` (ascending) of state members; on_entry(w) gets
// each valid merged candidate. Runs come only when the base is connected.
// Either callback returns true to stop the walk.
template <class OnRun, class OnEntry>
void WalkPart(const GdScratch& s, const GdScratch::Part& part,
              OnRun&& on_run, OnEntry&& on_entry) {
  const VertexId* big = part.large.data();
  const size_t n = part.large.size();
  // Positions of the state members in L: d log Δ.
  std::array<uint32_t, 32> state_pos;
  int states = 0;
  if (part.base_connected) {
    for (uint32_t m = s.state_rows[part.large_vertex]; m != 0; m &= m - 1) {
      const VertexId v = s.state[std::countr_zero(m)];
      state_pos[states++] =
          static_cast<uint32_t>(std::lower_bound(big, big + n, v) - big);
    }
  }
  int si = 0;
  size_t lo = 0;
  const auto run = [&](size_t hi) {
    const int first = si;
    while (si < states && state_pos[si] < hi) ++si;
    return on_run(lo, hi,
                  std::span<const uint32_t>(state_pos.data() + first,
                                            static_cast<size_t>(si - first)));
  };
  for (uint32_t e = part.entries_begin; e < part.entries_end; ++e) {
    const GdScratch::Entry& entry = s.entries[e];
    if (part.base_connected && run(entry.large_pos)) return;
    lo = entry.large_pos + (entry.in_large ? 1 : 0);
    if (entry.valid && on_entry(entry.w)) return;
  }
  if (part.base_connected) run(n);
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
  const VertexId* big = part.large.data();
  uint64_t r = rank - part.first_rank;
  VertexId chosen = 0;
  WalkPart(
      s, part,
      [&](size_t lo, size_t hi, std::span<const uint32_t> states) {
        const uint64_t run = hi - lo - states.size();
        if (r >= run) {
          r -= run;
          return false;
        }
        size_t p = lo + r;  // the r-th position of the run, skipping states
        for (const uint32_t sp : states) {
          if (sp > p) break;
          ++p;
        }
        chosen = big[p];
        return true;
      },
      [&](VertexId w) {
        if (r == 0) {
          chosen = w;
          return true;
        }
        --r;
        return false;
      });
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
    }
  }
  if (out_idx < 0 || in_idx < 0) return s.count;
  const VertexId w = neighbor[in_idx];
  const GdScratch::Part& part = s.parts[out_idx];
  const VertexId* big = part.large.data();
  const size_t n = part.large.size();
  size_t w_pos = static_cast<size_t>(std::lower_bound(big, big + n, w) - big);
  if (w_pos == n || big[w_pos] != w) w_pos = n;  // not in L

  uint64_t rank = part.first_rank;
  bool found = false;
  WalkPart(
      s, part,
      [&](size_t lo, size_t hi, std::span<const uint32_t> states) {
        if (w_pos >= lo && w_pos < hi) {
          // w is L-only here: count the run's positions below it.
          rank += w_pos - lo;
          for (const uint32_t sp : states) rank -= sp < w_pos ? 1 : 0;
          found = true;
          return true;
        }
        rank += hi - lo - states.size();
        return false;
      },
      [&](VertexId v) {
        if (v == w) {
          found = true;
          return true;
        }
        ++rank;
        return false;
      });
  return found ? rank : s.count;
}

template <class G>
uint64_t EnumerateGdNeighbors(const G& g, std::span<const VertexId> state,
                              std::vector<VertexId>* out_neighbors,
                              GdScratch& scratch) {
  const uint64_t count = CountGdNeighbors(g, state, scratch);
  const int d = scratch.d;
  for (int out_idx = 0; out_idx < d; ++out_idx) {
    const GdScratch::Part& part = scratch.parts[out_idx];
    const VertexId* big = part.large.data();
    const auto emit = [&](VertexId w) {
      const size_t at = out_neighbors->size();
      out_neighbors->resize(at + d);
      WriteNeighbor(scratch, out_idx, w, out_neighbors->data() + at);
      return false;
    };
    WalkPart(
        scratch, part,
        [&](size_t lo, size_t hi, std::span<const uint32_t> states) {
          size_t next_state = 0;
          for (size_t p = lo; p < hi; ++p) {
            if (next_state < states.size() && states[next_state] == p) {
              ++next_state;
            } else {
              emit(big[p]);
            }
          }
          return false;
        },
        emit);
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
  scratch.entries.clear();
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
