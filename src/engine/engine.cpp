#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/batch_means.h"
#include "core/batched_estimator.h"
#include "util/rng.h"
#include "util/timer.h"

namespace grw {

namespace {

// What global chain c reads through, one factory per access mode. Each
// is a function of c alone, so neither the thread count nor the batched
// lane grouping can move a budget share, failure schedule or start range
// between chains.
template <class A>
struct LaneFactory;

// Full access: every chain reads the shared graph itself, never a copy.
template <>
struct LaneFactory<Graph> {
  const Graph& g;
  const Graph& Make(int) const { return g; }
};

// Crawl: one private crawler per chain (its local copy of whatever it
// fetched), with the chain's own budget share and failure schedule.
template <>
struct LaneFactory<CrawlAccess> {
  const Graph& g;
  const EngineOptions& opt;
  std::unique_ptr<CrawlAccess> Make(int c) const {
    const EngineOptions::CrawlConfig& crawl = opt.crawl;
    CrawlAccess::Options access_options;
    access_options.cache_entries = crawl.cache_entries;
    access_options.latency_us = crawl.latency_us;
    if (crawl.fail_prob > 0.0) {
      access_options.failure.fail_prob = crawl.fail_prob;
      access_options.failure.max_retries = crawl.fail_max_retries;
      access_options.failure.backoff_base_us = crawl.fail_backoff_us;
      access_options.failure.backoff_max_us = crawl.fail_backoff_max_us;
      access_options.failure.seed =
          DeriveSeed(crawl.fail_seed, static_cast<uint64_t>(c));
    }
    if (crawl.budget_queries > 0) {
      // Fixed share of the total budget (B >= chains was validated, so
      // every share is positive). A chain stops after the step that
      // crosses its share, so the total can overshoot B by at most one
      // step's fetches per chain — reported honestly in
      // EngineResult::access.
      access_options.query_budget =
          ChainBudgetShare(crawl.budget_queries, opt.chains, c);
    }
    return std::make_unique<CrawlAccess>(g, access_options);
  }
};

// Out of core: one private ShardedAccess pin cache per chain over the
// shared store.
template <>
struct LaneFactory<ShardedAccess> {
  const ShardStore& store;
  const EngineOptions& opt;
  std::unique_ptr<ShardedAccess> Make(int) const {
    return std::make_unique<ShardedAccess>(store);
  }
  // With locality seeding, chain c starts in the vertex range of its
  // affinity shard floor(c * S / C): contiguous chain blocks per shard.
  std::optional<std::pair<VertexId, VertexId>> StartRange(int c) const {
    if (!opt.sharded.locality_seeding) return std::nullopt;
    return store.ShardRange(static_cast<uint32_t>(
        (static_cast<uint64_t>(c) * store.NumShards()) /
        static_cast<uint64_t>(opt.chains)));
  }
};

// One unit of engine work: global chains [first, first + count) over
// access policy A, advanced by one pool task per round. A scalar unit
// runs one GraphletEstimatorT chain; a batched unit walks its chains in
// lockstep as the lanes of one BatchedEstimatorT. Chain c keeps the RNG
// stream DeriveSeed(base_seed, chain_offset + c) either way, which is
// what keeps the two kernels bit-identical.
template <class A, bool kBatched>
class ChainUnit {
 public:
  using Access = A;

  ChainUnit(const LaneFactory<A>& factory, const EstimatorConfig& config,
            int first, int count) {
    for (int c = first; c < first + count; ++c) {
      if constexpr (std::is_same_v<A, Graph>) {
        lanes_.push_back(&factory.Make(c));
      } else {
        owned_.push_back(factory.Make(c));
        lanes_.push_back(owned_.back().get());
      }
    }
    if constexpr (!kBatched) {
      estimator_.emplace(*lanes_[0], config);
      if constexpr (std::is_same_v<A, ShardedAccess>) {
        if (const auto range = factory.StartRange(first)) {
          estimator_->SetStartRange(range->first, range->second);
        }
      }
    } else if constexpr (std::is_same_v<A, Graph>) {
      // One object behind every lane enables the cross-lane probe.
      estimator_.emplace(*lanes_[0], config, count);
    } else {
      estimator_.emplace(std::span<const A* const>(lanes_), config);
    }
  }

  int NumChains() const { return static_cast<int>(lanes_.size()); }
  const A& Lane(int j) const { return *lanes_[j]; }

  // Chain j of the unit seeds its stream DeriveSeed(base_seed,
  // first_stream + j).
  void Reset(uint64_t base_seed, uint64_t first_stream) {
    if constexpr (std::is_same_v<A, CrawlAccess>) {
      for (auto& a : owned_) a->ResetCache();  // fresh crawlers
    }
    if constexpr (kBatched) {
      estimator_->Reset(base_seed, first_stream);
    } else {
      estimator_->Reset(DeriveSeed(base_seed, first_stream));
    }
  }
  void Run(uint64_t steps) { estimator_->Run(steps); }
  EstimateResult Result(int j) const {
    if constexpr (kBatched) {
      return estimator_->Result(j);
    } else {
      return estimator_->Result();
    }
  }

 private:
  using Estimator = std::conditional_t<kBatched, BatchedEstimatorT<A>,
                                       GraphletEstimatorT<A>>;

  std::vector<std::unique_ptr<A>> owned_;  // empty for the shared graph
  std::vector<const A*> lanes_;
  std::optional<Estimator> estimator_;
};

// A convergence verdict needs enough batches for the across-batch
// variance to mean something; with C chains this is reached after
// ceil(8 / C) rounds.
constexpr int kMinBatchesForStop = 8;

// The round loop over units of type Unit, filling `out`. The constructors
// validated the options, so chains >= 0 and unit widths are positive.
template <class Unit>
void RunLoop(const LaneFactory<typename Unit::Access>& factory,
             const EstimatorConfig& config, const EngineOptions& opt,
             int unit_width, EngineResult& out) {
  out.max_rel_error = std::numeric_limits<double>::infinity();
  if (opt.chains == 0 || opt.max_steps == 0) return;

  const int chains = opt.chains;
  const int units = (chains + unit_width - 1) / unit_width;
  const auto unit_first = [&](int u) { return u * unit_width; };
  ChainPool& pool = opt.pool != nullptr ? *opt.pool : ChainPool::Shared();

  uint64_t round_steps = opt.round_steps;
  if (round_steps == 0) {
    const bool rounds_wanted = opt.target_nrmse > 0.0 || opt.on_progress;
    round_steps = rounds_wanted ? EngineOptions::DefaultRoundSteps(
                                      opt.max_steps)
                                : opt.max_steps;
  }

  WallTimer timer;
  std::vector<std::unique_ptr<Unit>> unit_objs(units);
  pool.ForEach(
      static_cast<size_t>(units),
      [&](size_t u) {
        const int first = unit_first(static_cast<int>(u));
        const int count = std::min(chains, first + unit_width) - first;
        unit_objs[u] = std::make_unique<Unit>(factory, config, first, count);
        unit_objs[u]->Reset(opt.base_seed, opt.chain_offset + first);
      },
      opt.threads);

  // Previous round's cumulative weights per chain, for batch diffs.
  std::vector<std::vector<double>> prev_weights(chains);
  BatchMeansAccumulator accumulator;
  // Walk steps each chain had completed at the previous round boundary:
  // a budget-exhausted chain stops advancing, and a stalled chain must
  // not feed zero batches into the convergence accumulator.
  std::vector<uint64_t> prev_steps(chains, 0);

  uint64_t done = 0;
  while (done < opt.max_steps) {
    // Cooperative cancellation (deadlines in the serve layer): honored
    // before any work and between rounds, so the outputs below always
    // describe a whole number of completed rounds.
    if (opt.cancel && opt.cancel()) {
      out.cancelled = true;
      break;
    }
    const uint64_t delta = std::min<uint64_t>(round_steps,
                                              opt.max_steps - done);
    // Sized here, not above: a run cancelled before its first round
    // reports no per-chain results.
    out.per_chain.resize(chains);
    pool.ForEach(
        static_cast<size_t>(units),
        [&](size_t u) {
          Unit& unit = *unit_objs[u];
          unit.Run(delta);
          const int first = unit_first(static_cast<int>(u));
          for (int j = 0; j < unit.NumChains(); ++j) {
            out.per_chain[first + j] = unit.Result(j);
          }
        },
        opt.threads);
    done += delta;
    ++out.rounds;

    // Merge in chain order (fixed regardless of completion order).
    out.merged = {};
    for (const EstimateResult& chain : out.per_chain) {
      MergeInto(out.merged, chain);
    }

    // One batch per chain: the weight accumulated this round, normalized
    // to a concentration vector. Chains that made no progress (budget
    // spent mid-earlier-round) contribute no batch.
    for (int c = 0; c < chains; ++c) {
      const uint64_t chain_steps = out.per_chain[c].steps;
      if (chain_steps == prev_steps[c]) continue;
      prev_steps[c] = chain_steps;
      accumulator.AddBatch(BatchFromCumulativeWeights(
          out.per_chain[c].weights, prev_weights[c]));
    }

    // Convergence metric: NaN while no type has weight blocks stopping.
    const double max_rel = accumulator.MaxRelativeError(
        out.merged.concentrations, opt.min_concentration);
    out.max_rel_error = max_rel;
    out.seconds = timer.Seconds();
    out.steps_per_chain = done;
    // Actual transitions, not done * chains: budget-exhausted chains fall
    // behind the lockstep schedule. Identical for full-access runs.
    uint64_t actual_steps = 0;
    for (const EstimateResult& chain : out.per_chain) {
      actual_steps += chain.steps;
    }
    out.steps_per_second =
        out.seconds > 0.0
            ? static_cast<double>(actual_steps) / out.seconds
            : 0.0;

    if (opt.on_progress) {
      EngineProgress progress;
      progress.round = out.rounds;
      progress.chains = chains;
      progress.steps_per_chain = done;
      progress.max_steps = opt.max_steps;
      progress.total_steps = actual_steps;
      progress.seconds = out.seconds;
      progress.steps_per_second = out.steps_per_second;
      progress.max_rel_error = max_rel;
      opt.on_progress(progress);
    }

    // Stop once the target is met — but never on first-round evidence
    // alone (initial-state transients are concentrated there) and never
    // with fewer than kMinBatchesForStop batches.
    if (opt.target_nrmse > 0.0 && out.rounds >= 2 &&
        accumulator.NumBatches() >= kMinBatchesForStop &&
        std::isfinite(max_rel) && max_rel <= opt.target_nrmse) {
      out.converged = true;
      break;
    }

    // Budget stop: every chain decided, inside its own run loop, that its
    // distinct-query share is spent — a per-chain verdict no thread
    // schedule can change, so the break lands on the same round at any
    // thread count.
    if constexpr (kAccessHasQueryBudget<typename Unit::Access>) {
      bool all_spent = true;
      for (int u = 0; u < units && all_spent; ++u) {
        for (int j = 0; j < unit_objs[u]->NumChains(); ++j) {
          all_spent = all_spent && unit_objs[u]->Lane(j).BudgetExhausted();
        }
      }
      if (all_spent) {
        out.budget_exhausted = true;
        break;
      }
    }
  }

  // Crawl accounting: per-chain breakdown plus the chain-order sum.
  if constexpr (kAccessHasQueryBudget<typename Unit::Access>) {
    out.per_chain_access.reserve(chains);
    for (const auto& unit : unit_objs) {
      for (int j = 0; j < unit->NumChains(); ++j) {
        out.per_chain_access.push_back(unit->Lane(j).stats());
        out.access.MergeFrom(out.per_chain_access.back());
      }
    }
  }

  // Fewer than two batches carry no spread information: leave the errors
  // empty (unknown) rather than reporting zeros.
  if (accumulator.NumBatches() >= 2) {
    out.standard_errors = accumulator.StandardErrors();
  }
}

// Runs the engine over access policy A with the kernel options.batch
// selects. Sharded storage has no batched kernel (the constructor
// refuses the combination).
template <class A>
void RunUnits(const LaneFactory<A>& factory, const EstimatorConfig& config,
              const EngineOptions& opt, EngineResult& out) {
  if constexpr (!std::is_same_v<A, ShardedAccess>) {
    if (opt.batch.enabled) {
      RunLoop<ChainUnit<A, true>>(factory, config, opt, opt.batch.lanes,
                                  out);
      return;
    }
  }
  RunLoop<ChainUnit<A, false>>(factory, config, opt, 1, out);
}

}  // namespace

uint64_t ChainBudgetShare(uint64_t budget_queries, int chains, int chain) {
  const auto n = static_cast<uint64_t>(chains);
  return budget_queries / n +
         (static_cast<uint64_t>(chain) < budget_queries % n ? 1 : 0);
}

EstimationEngine::EstimationEngine(const Graph& g,
                                   const EstimatorConfig& config,
                                   EngineOptions options)
    : g_(&g), config_(config), options_(std::move(options)) {
  Validate();
}

EstimationEngine::EstimationEngine(const ShardStore& store,
                                   const EstimatorConfig& config,
                                   EngineOptions options)
    : store_(&store), config_(config), options_(std::move(options)) {
  Validate();
}

void EstimationEngine::Validate() const {
  if (options_.chains < 0) {
    throw std::invalid_argument("EstimationEngine: chains must be >= 0");
  }
  if (options_.batch.enabled && options_.batch.lanes < 1) {
    throw std::invalid_argument(
        "EstimationEngine: batch.lanes must be >= 1");
  }
  if (store_ != nullptr && options_.crawl.enabled) {
    throw std::invalid_argument(
        "EstimationEngine: crawl mode does not compose with sharded "
        "storage (the crawl cache simulates remote-API access over one "
        "flat graph)");
  }
  if (store_ != nullptr && options_.batch.enabled) {
    throw std::invalid_argument(
        "EstimationEngine: batch mode needs a monolithic CSR; run "
        "sharded graphs with the scalar kernels");
  }
  if (options_.crawl.enabled && options_.crawl.budget_queries > 0 &&
      options_.crawl.budget_queries <
          static_cast<uint64_t>(options_.chains)) {
    // A share of zero would mean "no budget" for that chain and the total
    // would silently overspend; refuse the degenerate split instead.
    throw std::invalid_argument(
        "EstimationEngine: budget_queries must be >= chains (every chain "
        "needs a positive distinct-query share)");
  }
  if (options_.chains == 0) return;
  // Validate the estimator configuration eagerly (and warm the k-indexed
  // singletons) instead of failing inside the pool. Constructing the
  // estimator reads only sizes, no shard payloads.
  if (store_ != nullptr) {
    const ShardedAccess probe_access(*store_);
    const GraphletEstimatorT<ShardedAccess> probe(probe_access, config_);
  } else {
    const GraphletEstimator probe(*g_, config_);
  }
}

EngineResult EstimationEngine::Run() {
  EngineResult result;
  if (store_ != nullptr) {
    RunUnits(LaneFactory<ShardedAccess>{*store_, options_}, config_,
             options_, result);
    result.shards = store_->stats();
  } else if (options_.crawl.enabled) {
    RunUnits(LaneFactory<CrawlAccess>{*g_, options_}, config_, options_,
             result);
  } else {
    RunUnits(LaneFactory<Graph>{*g_}, config_, options_, result);
  }
  return result;
}

}  // namespace grw
