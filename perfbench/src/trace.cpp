// The traced pass: per-layer metrics of one estimate configuration.
//
// GraphletEstimatorT::Run is rebuilt here from the library's public
// pieces — the walkers, SampleWindowT, GraphletClassifier,
// WindowSampleWeight (AlphaTable / CssTable::For behind it) — with a span
// around every call into a layer. The pass is single-threaded: the
// request's chains advance one after another, round by round, and each
// round ends with the engine's merge (MergeResults plus the batch-means
// update). Spans (name, start, end, parent) are kept in memory and written
// out at the end; a layer's self time is its spans' duration minus the
// part their child spans cover.
//
// Self-checks: every traced chain must equal, bit for bit,
// GraphletEstimatorT::Estimate with the same seed and steps (otherwise
// the per-layer numbers describe some other computation and the result is
// marked incorrect); trace.coverage is the layers' summed self time over
// the traced loop's wall time; trace.overhead is untraced over traced
// single-thread steps/s.
//
// Around the traced loop, the graph and shard layers are timed by replay:
// the window-union vertex pairs the trace captured go through
// Graph::HasEdge and ShardedAccess::HasEdge, and a shard sequence goes
// through ShardStore::Acquire on a fresh store. That sequence is
// modelled, not captured: ShardedAccess's reads cannot be observed from
// outside the library, so the capture pass runs the shards of each
// step's window-union vertices through a copy of its 4-slot MRU pin
// cache. The capture pass reads the graph through real ShardedAccess
// chains, and the modelled Acquire count is printed beside the count
// the store saw.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common.h"
#include "core/alpha.h"
#include "core/batch_means.h"
#include "core/css.h"
#include "core/sample_window.h"
#include "graph/sharded_access.h"
#include "graph/source.h"
#include "graphlet/classifier.h"
#include "util/rng.h"
#include "util/timer.h"
#include "walk/edge_walk.h"
#include "walk/node_walk.h"
#include "walk/subgraph_walk.h"

namespace perfbench {

namespace {

// ---------------------------------------------------------------- spans --

enum SpanName : uint8_t {
  kRound,        // engine: one lockstep round of every chain, then merge
  kChainRun,     // engine: one chain's share of a round
  kStateDegree,  // walk: StateWalker::StateDegree (G(d) enumeration, d>=3)
  kStep,         // walk: StateWalker::Step
  kWindow,       // core: SampleWindowT::Push + Valid + Mask
  kClassify,     // graphlet: GraphletClassifier::Info
  kWeight,       // core: WindowSampleWeight (CSS table / alpha product)
  kMerge,        // core: MergeResults + BatchMeansAccumulator
  kNumSpanNames
};

constexpr std::array<const char*, kNumSpanNames> kSpanNames = {
    "engine.round", "engine.chain_run", "walk.state_degree", "walk.step",
    "core.window",  "graphlet.classify", "core.weight",      "core.merge"};

// Spans whose self time counts as layer time for trace.coverage (the two
// engine spans are containers: their self time is the loop itself).
constexpr std::array<bool, kNumSpanNames> kLayerSpan = {
    false, false, true, true, true, true, true, true};

struct Span {
  uint64_t start = 0;  // clock ticks (Tracer::Finish calibrates them)
  uint64_t end = 0;
  uint32_t parent = 0;  // kNoParent for roots
  uint8_t name = 0;
};

constexpr uint32_t kNoParent = 0xFFFFFFFFu;

// Spans are stamped with a raw cycle counter where one exists (a few ns a
// read, against ~20 ns for steady_clock) and converted to ns at the end,
// calibrated against steady_clock over the tracer's lifetime.
class Tracer {
 public:
  explicit Tracer(size_t expected)
      : clock_start_(std::chrono::steady_clock::now()), tick_start_(Now()) {
    spans_.reserve(expected);
  }

  uint32_t Begin(SpanName name) {
    const auto id = static_cast<uint32_t>(spans_.size());
    spans_.push_back({Now(), 0, current_, name});
    current_ = id;
    return id;
  }
  void End(uint32_t id) {
    spans_[id].end = Now();
    current_ = spans_[id].parent;
  }

  /// Stops the calibration clock; call once, after the last span.
  void Finish() {
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - clock_start_)
                          .count();
    const uint64_t ticks = Now() - tick_start_;
    ns_per_tick_ = ticks == 0 ? 1.0 : ns / static_cast<double>(ticks);
  }

  /// Summed self time per span name, ns.
  std::array<double, kNumSpanNames> SelfNs() const {
    std::vector<uint64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child[s.parent] += s.end - s.start;
    }
    std::array<double, kNumSpanNames> self = {};
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.name] += static_cast<double>(s.end - s.start - child[i]);
    }
    for (double& v : self) v *= ns_per_tick_;
    return self;
  }

  /// Writes every span as a text line "id parent name start_ns end_ns",
  /// times in ns since the tracer started.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "# id parent name start_ns end_ns\n";
    const auto ns = [this](uint64_t tick) {
      return static_cast<uint64_t>(static_cast<double>(tick - tick_start_) *
                                   ns_per_tick_);
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ' '
          << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
          << ' ' << kSpanNames[s.name] << ' ' << ns(s.start) << ' '
          << ns(s.end) << '\n';
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  static uint64_t Now() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

  std::chrono::steady_clock::time_point clock_start_;
  uint64_t tick_start_;
  double ns_per_tick_ = 1.0;
  std::vector<Span> spans_;
  uint32_t current_ = kNoParent;
};

// RAII span; a null tracer records nothing (the capture pass).
class Scope {
 public:
  Scope(Tracer* t, SpanName name)
      : t_(t), id_(t == nullptr ? 0 : t->Begin(name)) {}
  ~Scope() {
    if (t_ != nullptr) t_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  uint32_t id_;
};

// ------------------------------------------------------------- captures --

/// What a second, untraced pass over the same chains records: the vertex
/// pairs the window probes and the modelled shard acquire sequence (for
/// the replays), and the work counts.
struct Capture {
  static constexpr size_t kMaxPairs = 1u << 21;
  std::vector<std::pair<grw::VertexId, grw::VertexId>> pairs;
  double degree_sum = 0.0;
  uint64_t degree_count = 0;
  uint64_t valid = 0;
  uint64_t steps = 0;
  /// The store the capture pass reads through (null: resident graph).
  const grw::ShardStore* store = nullptr;
  /// (chain, shard) per modelled pin-cache miss, in traced order.
  std::vector<std::pair<int, uint32_t>> acquires;
  /// Acquire calls the store saw while the chains ran (Reset excluded).
  uint64_t store_acquires = 0;
};

/// The per-chain pin cache of ShardedAccess, simulated over the shards of
/// each step's window-union vertices: 4 MRU slots, a miss is an Acquire.
class PinCacheModel {
 public:
  static constexpr int kPins = 4;
  bool Touch(uint32_t shard) {
    for (int i = 0; i < used_; ++i) {
      if (pins_[i] == shard) {
        std::rotate(pins_.begin(), pins_.begin() + i, pins_.begin() + i + 1);
        return true;
      }
    }
    if (used_ < kPins) ++used_;
    std::rotate(pins_.begin(), pins_.begin() + used_ - 1,
                pins_.begin() + used_);
    pins_[0] = shard;
    return false;
  }

 private:
  std::array<uint32_t, kPins> pins_ = {};
  int used_ = 0;
};

// ------------------------------------------------------------ the chain --

template <class G>
std::unique_ptr<grw::StateWalker> MakeWalker(const G& g, int d, bool nb) {
  if (d == 1) return std::make_unique<grw::NodeWalkT<G>>(g, nb);
  if (d == 2) return std::make_unique<grw::EdgeWalkT<G>>(g, nb);
  return std::make_unique<grw::SubgraphWalkT<G>>(g, d, nb);
}

/// GraphletEstimatorT<G>'s chain, rebuilt from public calls.
template <class G>
class TracedChain {
 public:
  TracedChain(const G& g, const grw::EstimatorConfig& config)
      : g_(&g),
        config_(grw::ValidateEstimatorConfig(config)),
        l_(config.k - config.d + 1),
        classifier_(&grw::GraphletClassifier::ForSize(config.k)),
        alpha_(grw::AlphaTable(config.k, config.d)),
        walker_(MakeWalker(g, config.d, config.nb)),
        window_(g, config.k, l_) {
    const int types = grw::GraphletCatalog::ForSize(config.k).NumTypes();
    weights_.assign(types, 0.0);
    samples_.assign(types, 0);
    if (config.css && config.d <= 2) {
      css_table_ = &grw::CssTable::For(config.k, config.d);
    }
  }

  // GraphletEstimatorT::Reset (burn_in 0, no start range), untraced.
  void Reset(uint64_t seed) {
    rng_.Seed(seed);
    walker_->Reset(rng_);
    window_.Clear();
    window_.Push(walker_->Nodes(), 0);
    for (int i = 1; i < l_; ++i) {
      window_.SetNewestDegree(walker_->StateDegree());
      walker_->Step(rng_);
      window_.Push(walker_->Nodes(), 0);
    }
    SnapshotUnion();
  }

  // GraphletEstimatorT::Run + Accumulate, one span per layer call when
  // tracing; with a capture, records what the replays need instead.
  void Run(uint64_t steps, int chain, Tracer* t, Capture* cap) {
    for (uint64_t i = 0; i < steps; ++i) {
      uint64_t degree = 0;
      {
        Scope s(t, kStateDegree);
        degree = walker_->StateDegree();
      }
      window_.SetNewestDegree(degree);
      {
        Scope s(t, kStep);
        walker_->Step(rng_);
      }
      uint32_t mask = 0;
      bool valid = false;
      {
        Scope s(t, kWindow);
        window_.Push(walker_->Nodes(), 0);
        valid = window_.Valid();
        if (valid) mask = window_.Mask();
      }
      ++steps_;
      if (cap != nullptr) Record(degree, chain, *cap);
      if (!valid) continue;
      const grw::MaskInfo* info = nullptr;
      {
        Scope s(t, kClassify);
        info = &classifier_->Info(mask);
      }
      double w = 0.0;
      {
        Scope s(t, kWeight);
        w = grw::WindowSampleWeight(*g_, config_, l_, css_table_, alpha_,
                                    window_, *info, scratch_);
      }
      weights_[info->type] += w;
      samples_[info->type]++;
      ++valid_samples_;
    }
  }

  grw::EstimateResult Result() const {
    grw::EstimateResult r;
    r.weights = weights_;
    r.samples = samples_;
    r.steps = steps_;
    r.valid_samples = valid_samples_;
    grw::FinalizeConcentrations(r);
    return r;
  }

 private:
  void SnapshotUnion() {
    const auto u = window_.UnionNodes();
    prev_union_.assign(u.begin(), u.end());
  }

  // The pairs Push probes (each vertex new to the union against the rest)
  // and the shard touches of the union.
  void Record(uint64_t degree, int chain, Capture& cap) {
    cap.degree_sum += static_cast<double>(degree);
    ++cap.degree_count;
    ++cap.steps;
    if (window_.Valid()) ++cap.valid;
    const auto u = window_.UnionNodes();
    for (grw::VertexId v : u) {
      if (std::find(prev_union_.begin(), prev_union_.end(), v) !=
          prev_union_.end()) {
        continue;
      }
      for (grw::VertexId w : u) {
        if (w != v && cap.pairs.size() < Capture::kMaxPairs) {
          cap.pairs.push_back({v, w});
        }
      }
    }
    if (cap.store != nullptr) {
      for (grw::VertexId v : u) {
        const uint32_t shard = cap.store->ShardOf(v);
        if (!pins_.Touch(shard)) cap.acquires.push_back({chain, shard});
      }
    }
    prev_union_.assign(u.begin(), u.end());
  }

  const G* g_;
  grw::EstimatorConfig config_;
  int l_;
  const grw::GraphletClassifier* classifier_;
  std::vector<int64_t> alpha_;
  const grw::CssTable* css_table_ = nullptr;
  std::unique_ptr<grw::StateWalker> walker_;
  grw::SampleWindowT<G> window_;
  grw::Rng rng_;
  grw::GdScratch scratch_;
  std::vector<double> weights_;
  std::vector<uint64_t> samples_;
  uint64_t steps_ = 0;
  uint64_t valid_samples_ = 0;

  PinCacheModel pins_;
  std::vector<grw::VertexId> prev_union_;
};

bool SameResult(const grw::EstimateResult& a, const grw::EstimateResult& b) {
  return a.weights == b.weights && a.samples == b.samples &&
         a.steps == b.steps && a.valid_samples == b.valid_samples &&
         a.concentrations == b.concentrations;
}

struct TracedRun {
  std::array<double, kNumSpanNames> self_ns = {};
  double loop_ns = 0.0;
  uint64_t rounds = 0;
  bool identical = true;
  double untraced_steps_per_s = 0.0;
};

// Advances `chains` chains of `w.trace_steps` each, single-threaded, in the
// engine's round structure: every chain runs the round, then the merge.
// `access[c]` is chain c's view of the graph (one ShardedAccess per chain,
// like the engine; the same Graph for every chain otherwise).
template <class G>
std::vector<grw::EstimateResult> RunChains(
    const std::vector<const G*>& access, const EstimateWorkload& w,
    uint64_t seed, Tracer* tracer, Capture* cap, uint64_t* rounds) {
  const uint64_t round = grw::EngineOptions::DefaultRoundSteps(w.max_steps);
  std::vector<std::unique_ptr<TracedChain<G>>> chains;
  for (int c = 0; c < w.chains; ++c) {
    chains.push_back(std::make_unique<TracedChain<G>>(*access[c], w.config));
    chains.back()->Reset(grw::DeriveSeed(seed, c));
  }
  const auto store_acquires = [cap] {
    if (cap == nullptr || cap->store == nullptr) return uint64_t{0};
    const grw::ShardStats stats = cap->store->stats();
    return stats.hits + stats.faults;
  };
  const uint64_t acquires_before = store_acquires();
  std::vector<grw::EstimateResult> per_chain(w.chains);
  std::vector<std::vector<double>> prev_weights(w.chains);
  grw::BatchMeansAccumulator batches;
  for (uint64_t done = 0; done < w.trace_steps; done += round) {
    const uint64_t delta = std::min(round, w.trace_steps - done);
    Scope round_span(tracer, kRound);
    for (int c = 0; c < w.chains; ++c) {
      Scope chain_span(tracer, kChainRun);
      chains[c]->Run(delta, c, tracer, cap);
      per_chain[c] = chains[c]->Result();
    }
    Scope merge_span(tracer, kMerge);
    const grw::EstimateResult merged = grw::MergeResults(per_chain);
    for (int c = 0; c < w.chains; ++c) {
      batches.AddBatch(grw::BatchFromCumulativeWeights(per_chain[c].weights,
                                                       prev_weights[c]));
    }
    batches.MaxRelativeError(merged.concentrations,
                             grw::EngineOptions().min_concentration);
    ++*rounds;
  }
  if (cap != nullptr) cap->store_acquires = store_acquires() - acquires_before;
  return per_chain;
}

// The traced pass, then the bit-identity reference: the library's own
// chain, untraced, with the same seeds and steps.
template <class G>
TracedRun RunTraced(const std::vector<const G*>& access,
                    const EstimateWorkload& w, uint64_t seed,
                    const std::string& spans_path) {
  TracedRun out;
  Tracer tracer(static_cast<size_t>(w.trace_steps) * w.chains * 6 + 1024);
  grw::WallTimer loop_timer;
  const std::vector<grw::EstimateResult> per_chain =
      RunChains(access, w, seed, &tracer, nullptr, &out.rounds);
  out.loop_ns = loop_timer.Seconds() * 1e9;
  tracer.Finish();
  out.self_ns = tracer.SelfNs();
  if (!spans_path.empty()) tracer.Write(spans_path);

  std::vector<double> rates;
  for (int c = 0; c < w.chains; ++c) {
    grw::WallTimer timer;
    const grw::EstimateResult ref = grw::GraphletEstimatorT<G>::Estimate(
        *access[c], w.config, w.trace_steps, grw::DeriveSeed(seed, c));
    rates.push_back(static_cast<double>(w.trace_steps) / timer.Seconds());
    if (!SameResult(ref, per_chain[c])) out.identical = false;
  }
  out.untraced_steps_per_s = Median(rates);
  return out;
}

// ------------------------------------------------------------- replays --

template <class Probe>
std::pair<double, double> ReplayPairs(const Capture& cap, Probe probe) {
  std::vector<double> ns;
  uint64_t present = 0;
  for (int rep = 0; rep < 5; ++rep) {
    present = 0;
    grw::WallTimer timer;
    for (const auto& [u, v] : cap.pairs) present += probe(u, v) ? 1 : 0;
    ns.push_back(timer.Seconds() * 1e9 /
                 static_cast<double>(std::max<size_t>(cap.pairs.size(), 1)));
  }
  return {Median(ns), static_cast<double>(present) /
                          static_cast<double>(
                              std::max<size_t>(cap.pairs.size(), 1))};
}

struct AcquireTimes {
  double fault_us = 0.0;
  double hit_ns = 0.0;
};

AcquireTimes ReplayAcquires(const Capture& cap, const std::string& shard_dir,
                            uint64_t budget, int chains) {
  grw::ShardStore::Options options;
  options.resident_budget_bytes = budget;
  grw::ShardStore store(grw::LoadShardManifest(shard_dir), options);
  // Each chain keeps its pins alive like ShardedAccess does.
  std::vector<std::vector<std::shared_ptr<const grw::MappedShard>>> pins(
      chains);
  double fault_ns = 0.0;
  double hit_ns = 0.0;
  uint64_t faults = 0;
  uint64_t hits = 0;
  for (const auto& [chain, shard] : cap.acquires) {
    const uint64_t before = store.stats().faults;
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const grw::MappedShard> pin = store.Acquire(shard);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (store.stats().faults > before) {
      fault_ns += ns;
      ++faults;
    } else {
      hit_ns += ns;
      ++hits;
    }
    auto& mine = pins[chain];
    mine.insert(mine.begin(), std::move(pin));
    if (mine.size() > PinCacheModel::kPins) mine.pop_back();
  }
  return {faults == 0 ? 0.0 : fault_ns / static_cast<double>(faults) * 1e-3,
          hits == 0 ? 0.0 : hit_ns / static_cast<double>(hits)};
}

}  // namespace

// ----------------------------------------------------------- the layers --

void TraceLayers(const Fixture& fx, const EstimateWorkload& w, uint64_t seed,
                 const std::string& spans_path, Report* report) {
  grw::ChainPool pool(kThreads);
  const uint64_t request_seed = RequestSeed(seed, 0);

  // graph: open and index build, split.
  std::vector<double> open_s;
  std::vector<double> index_s;
  std::vector<double> shard_open_s;
  grw::GraphSource resident;
  for (int i = 0; i < 5; ++i) {
    resident = grw::GraphSource();
    grw::OpenOptions no_index;
    no_index.build_index = false;
    grw::WallTimer open_timer;
    resident = grw::GraphSource::Open(fx.grwb, no_index);
    open_s.push_back(open_timer.Seconds());
    grw::Graph indexed = resident.graph();
    grw::WallTimer index_timer;
    indexed.BuildAdjacencyIndex();
    index_s.push_back(index_timer.Seconds());
    if (i == 4) resident = grw::GraphSource::FromGraph(indexed);
    grw::OpenOptions sharded;
    sharded.resident_budget_bytes = HalfShardBudget(fx.shards);
    grw::WallTimer shard_timer;
    grw::GraphSource::Open(fx.shards, sharded);
    shard_open_s.push_back(shard_timer.Seconds());
  }
  const grw::Graph& g = resident.graph();

  // The traced pass, then the capture pass, both over the workload's
  // access path (one ShardedAccess per chain over a half-budget store,
  // like the engine, or the resident graph).
  const grw::ShardManifest manifest = grw::LoadShardManifest(fx.shards);
  grw::ShardStore::Options half_budget;
  half_budget.resident_budget_bytes = HalfShardBudget(fx.shards);
  const auto per_chain_access = [&w](const grw::ShardStore& store) {
    std::vector<std::unique_ptr<grw::ShardedAccess>> owned;
    for (int c = 0; c < w.chains; ++c) {
      owned.push_back(std::make_unique<grw::ShardedAccess>(store));
    }
    return owned;
  };
  const auto pointers = [](const auto& owned) {
    std::vector<const grw::ShardedAccess*> out;
    for (const auto& a : owned) out.push_back(a.get());
    return out;
  };
  TracedRun traced;
  Capture cap;
  uint64_t capture_rounds = 0;
  if (w.sharded) {
    {
      const grw::ShardStore store(manifest, half_budget);
      const auto access = per_chain_access(store);
      traced = RunTraced(pointers(access), w, request_seed, spans_path);
    }
    const grw::ShardStore store(manifest, half_budget);
    const auto access = per_chain_access(store);
    cap.store = &store;
    RunChains(pointers(access), w, request_seed, nullptr, &cap,
              &capture_rounds);
    cap.store = nullptr;
  } else {
    const std::vector<const grw::Graph*> access(w.chains, &g);
    traced = RunTraced(access, w, request_seed, spans_path);
    RunChains(access, w, request_seed, nullptr, &cap, &capture_rounds);
  }
  const double steps = static_cast<double>(cap.steps);
  const double valid = static_cast<double>(std::max<uint64_t>(cap.valid, 1));
  const auto& self = traced.self_ns;
  double layer_ns = 0.0;
  for (int i = 0; i < kNumSpanNames; ++i) {
    if (kLayerSpan[i]) layer_ns += self[i];
  }
  const double traced_rate = steps / (traced.loop_ns * 1e-9);

  // HasEdge replays of the captured pairs.
  const auto [hasedge_ns, present_frac] = ReplayPairs(
      cap, [&g](grw::VertexId u, grw::VertexId v) { return g.HasEdge(u, v); });
  grw::ShardStore warm_store(manifest, {});
  grw::ShardedAccess warm_access(warm_store);
  for (uint32_t s = 0; s < warm_store.NumShards(); ++s) warm_store.Acquire(s);
  const auto [shard_hasedge_ns, shard_present] =
      ReplayPairs(cap, [&warm_access](grw::VertexId u, grw::VertexId v) {
        return warm_access.HasEdge(u, v);
      });
  if (shard_present != present_frac) {
    std::fprintf(stderr, "[trace] ShardedAccess::HasEdge disagrees with "
                         "Graph::HasEdge on the captured pairs\n");
    report->Invalidate();
  }

  // engine: one untraced request (after kWarmupSeconds of them) with progress
  // timestamps and the CPU split; sharded runs get a fresh store so its
  // counters cover this request alone.
  const auto run_request = [&](const grw::EngineOptions& options) {
    if (!w.sharded) return grw::EstimationEngine(g, w.config, options).Run();
    grw::OpenOptions sharded;
    sharded.resident_budget_bytes = HalfShardBudget(fx.shards);
    const grw::GraphSource source = grw::GraphSource::Open(fx.shards, sharded);
    return grw::EstimationEngine(source.shards(), w.config, options).Run();
  };
  // The request runs its chains on kThreads threads (the timed requests
  // use one), so parallel_eff shows what parallel chains gain and lose.
  const auto parallel_options = [&](uint64_t request) {
    grw::EngineOptions options = RequestOptions(w, request, &pool);
    options.threads = kThreads;
    return options;
  };
  uint64_t warm_rep = 1;
  for (grw::WallTimer warm; warm.Seconds() < kWarmupSeconds;) {
    run_request(parallel_options(RequestSeed(seed, warm_rep++)));
  }
  std::vector<double> round_ms;
  double last_seconds = 0.0;
  grw::EngineOptions options = parallel_options(request_seed);
  options.on_progress = [&](const grw::EngineProgress& p) {
    round_ms.push_back((p.seconds - last_seconds) * 1e3);
    last_seconds = p.seconds;
  };
  const CpuTimes cpu0 = ProcessCpu();
  grw::WallTimer engine_timer;
  const grw::EngineResult run = run_request(options);
  const double engine_s = engine_timer.Seconds();
  const CpuTimes cpu1 = ProcessCpu();
  const double engine_rate = static_cast<double>(run.merged.steps) / engine_s;

  // One untraced chain of the request's per-chain length, on this thread
  // (the median of three, one per chain seed).
  std::vector<double> single_rates;
  for (int c = 0; c < 3; ++c) {
    const uint64_t steps = run.steps_per_chain;
    const uint64_t chain_seed = grw::DeriveSeed(request_seed, c);
    const grw::ShardStore store(manifest, half_budget);
    const grw::ShardedAccess access(store);
    grw::WallTimer timer;
    if (w.sharded) {
      grw::GraphletEstimatorT<grw::ShardedAccess>::Estimate(access, w.config,
                                                            steps, chain_seed);
    } else {
      grw::GraphletEstimator::Estimate(g, w.config, steps, chain_seed);
    }
    single_rates.push_back(static_cast<double>(steps) / timer.Seconds());
  }
  const double single_rate = Median(single_rates);
  const double cpu_user = cpu1.user - cpu0.user;
  const double cpu_sys = cpu1.sys - cpu0.sys;

  AcquireTimes acquire;
  if (w.sharded) {
    acquire = ReplayAcquires(cap, fx.shards, HalfShardBudget(fx.shards),
                             w.chains);
  }

  if (!traced.identical) {
    std::fprintf(stderr,
                 "[trace] rebuilt loop is NOT bit-identical to "
                 "GraphletEstimator::Estimate: per-layer numbers are void\n");
    report->Invalidate();
  }
  std::fprintf(stderr,
               "[trace] %s: %d traced chains x %llu steps, %llu rounds, "
               "%zu pairs, bit-identical: %s\n",
               w.name.c_str(), w.chains,
               static_cast<unsigned long long>(w.trace_steps),
               static_cast<unsigned long long>(traced.rounds),
               cap.pairs.size(), traced.identical ? "yes" : "NO");
  if (w.sharded) {
    std::fprintf(stderr,
                 "[trace] shard acquires: %zu modelled (replayed), %llu "
                 "seen by the store over the same chains\n",
                 cap.acquires.size(),
                 static_cast<unsigned long long>(cap.store_acquires));
  }

  report->Add("graph.open_s", Median(open_s), "s");
  report->Add("graph.index_build_s", Median(index_s), "s");
  report->Add("graph.hasedge_ns", hasedge_ns, "ns");
  report->Add("graph.hasedge_present_frac", present_frac, "ratio");
  report->Add("walk.step_ns", self[kStep] / steps, "ns");
  report->Add("walk.state_degree_ns", self[kStateDegree] / steps, "ns");
  report->Add("walk.gd_degree_mean",
              cap.degree_sum / static_cast<double>(cap.degree_count), "count");
  report->Add("core.window_ns", self[kWindow] / steps, "ns");
  report->Add("core.valid_frac", static_cast<double>(cap.valid) / steps,
              "ratio");
  report->Add("core.weight_ns", self[kWeight] / valid, "ns");
  report->Add("core.merge_us",
              self[kMerge] * 1e-3 / static_cast<double>(traced.rounds), "us");
  report->Add("graphlet.classify_ns", self[kClassify] / valid, "ns");
  report->Add("engine.rounds", run.rounds, "count");
  report->Add("engine.steps_per_chain",
              static_cast<double>(run.steps_per_chain), "count");
  report->Add("engine.round_ms_p50", Median(round_ms), "ms");
  report->Add("engine.single_thread_steps_per_s", single_rate, "1/s");
  report->Add("engine.parallel_eff",
              engine_rate / (std::min<double>(kThreads, w.chains) *
                             single_rate),
              "ratio");
  report->Add("shard.open_s", Median(shard_open_s), "s");
  report->Add("shard.hasedge_ns", shard_hasedge_ns, "ns");
  report->Add("shard.faults", static_cast<double>(run.shards.faults), "count");
  report->Add("shard.hits", static_cast<double>(run.shards.hits), "count");
  report->Add("shard.hit_rate", run.shards.HitRate(), "ratio");
  report->Add("shard.evictions", static_cast<double>(run.shards.evictions),
              "count");
  report->Add("shard.peak_resident_mib",
              static_cast<double>(run.shards.peak_resident_bytes) /
                  (1024.0 * 1024.0),
              "MiB");
  report->Add("shard.acquire_fault_us", acquire.fault_us, "us");
  report->Add("shard.acquire_hit_ns", acquire.hit_ns, "ns");
  report->Add("proc.sys_frac",
              cpu_user + cpu_sys > 0 ? cpu_sys / (cpu_user + cpu_sys) : 0.0,
              "ratio");
  report->Add("trace.coverage", layer_ns / traced.loop_ns, "ratio");
  report->Add("trace.overhead", traced.untraced_steps_per_s / traced_rate,
              "ratio");
  report->Attempt(traced.identical);
}

int TraceEstimate(const Args& args) {
  const EstimateWorkload w = EstimateWorkloadFor(args.workload);
  const Fixture fx = LoadFixture(args.fixture);
  Report report;
  TraceLayers(fx, w, args.seed, args.spans, &report);
  // serve-mix is not a gated workload (its run-to-run spread is far above
  // any bound the benchmark may set), so the serve and crawl layers ride
  // on the traced pass of a gated workload running the computation behind
  // its main request class, SRW2CSS.
  if (w.name == "outofcore-b50") {
    TraceServeLayers(fx, args.seed, args.seconds, &report);
  } else {
    AddIdleServeMetrics(&report);
  }
  return report.Emit(w.name + " (traced)");
}

}  // namespace perfbench
