// Shared pieces of the grw performance benchmark binary: the fixture on
// disk, the workload definitions, statistics, and the result line.
//
// The binary (main.cpp) has three modes, all run by run.py:
//   fixture  builds the seeded Holme-Kim graph, its `.grwb` snapshot, the
//            8-shard set and the exact k=3/k=4 concentrations;
//   run      measures one workload end to end, tracing off;
//   trace    measures the same workload layer by layer.
// Every mode ends by printing one JSON object on the last stdout line.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "engine/engine.h"

namespace perfbench {

// ---------------------------------------------------------------- fixture --

/// Holme-Kim parameters of the fixture graph (the graph the HasEdge micro
/// bench uses): n = 250,000 nodes, 5 edges per node (m ~ 1.25M), triad
/// formation probability 0.3.
inline constexpr uint32_t kFixtureNodes = 250000;
inline constexpr uint32_t kFixtureEdgesPerNode = 5;
inline constexpr double kFixtureTriadProb = 0.3;
inline constexpr uint32_t kFixtureShards = 8;

struct Fixture {
  std::string dir;
  std::string grwb;    // <dir>/graph.grwb
  std::string shards;  // <dir>/shards (manifest + 8 shard files)
  /// Exact concentrations per catalog id, keyed by k (3 and 4).
  std::map<int, std::vector<double>> exact;
};

/// Writes the fixture for `seed` into `dir` (which must exist).
void WriteFixture(uint64_t seed, const std::string& dir);
/// Reads a fixture written by WriteFixture; throws on a missing file.
Fixture LoadFixture(const std::string& dir);

// -------------------------------------------------------------- workloads --

/// Every engine run uses 4 chains. The timed estimate requests run them
/// on one thread (`grw estimate --chains 4 --threads 1`): on a few shared
/// cores a 4-thread request waits each round for its most-delayed core,
/// so its time follows the host's load more than the program's work. The
/// serve mix and the traced pass's engine request use kThreads.
inline constexpr int kChains = 4;
inline constexpr unsigned kRequestThreads = 1;
inline constexpr unsigned kThreads = 4;

/// Untimed requests before any timing: the first second or so of
/// multi-threaded work runs at well under half speed on a freshly
/// started process (cold caches, idle cores, lazy singletons).
inline constexpr double kWarmupSeconds = 2.0;

/// Set-up is repeated and reported as a median: at least 5 times, and
/// while under a second has been spent, up to 1000 (cheap set-ups are
/// repeated more so their median settles).
inline bool MoreSetups(size_t done, double spent_s) {
  return done < 5 || (spent_s < 1.0 && done < 1000);
}

/// One estimate workload's request: what `grw estimate` would be asked.
struct EstimateWorkload {
  std::string name;
  grw::EstimatorConfig config;
  int chains = kChains;
  /// Per-chain step cap (a fixed step count when target_nrmse == 0).
  uint64_t max_steps = 0;
  double target_nrmse = 0.0;
  /// Read the graph through the 8-shard set under a resident budget of
  /// half the shard bytes instead of the resident `.grwb`.
  bool sharded = false;
  /// Steps per chain of the single-threaded traced pass.
  uint64_t trace_steps = 0;
};

/// The three estimate workloads by name; throws on an unknown name.
EstimateWorkload EstimateWorkloadFor(const std::string& name);
bool IsEstimateWorkload(const std::string& name);

/// Engine options of request `rep` of a run: the workload's steps and
/// target, kRequestThreads threads, round slicing pinned like the CLI, a
/// per-request seed.
grw::EngineOptions RequestOptions(const EstimateWorkload& w,
                                  uint64_t request_seed, grw::ChainPool* pool);

/// Seed of request `rep` of a run with benchmark seed `seed`.
uint64_t RequestSeed(uint64_t seed, uint64_t rep);

/// Resident budget of the out-of-core workload: half the shard bytes.
uint64_t HalfShardBudget(const std::string& shard_dir);

/// Correctness bound of estimate answers: every type whose exact
/// concentration is at least the engine's min_concentration must lie
/// within kZ standard errors of it.
inline constexpr double kZ = 6.0;

/// Fewest answers a run checks: their spread is the standard error.
inline constexpr size_t kMinCheckAnswers = 10;

/// Per-type sample standard deviation of the independent answers other
/// than answers[skip]: the standard error of one answer, taken from
/// answers that do not include the one it judges (a wrong answer cannot
/// widen its own bound). Empty if fewer than 3 answers.
std::vector<double> SpreadWithout(
    const std::vector<grw::EstimateResult>& answers, size_t skip);

/// Number of monitored types of `est` farther than kZ * se[i] from
/// `exact` (0 = correct). Sets `why` to the first miss.
int CountExactMisses(const grw::EstimateResult& est,
                     const std::vector<double>& se,
                     const std::vector<double>& exact, std::string* why);

/// Concentrations as %.17g text (bit-exact comparison key).
std::string ConcentrationKey(const grw::EstimateResult& r);

// ------------------------------------------------------------------ stats --

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);
/// The quantile serve-mix's p99_ms reports for n latencies: 0.99 when at
/// least ten samples lie beyond it (n >= 1000), else the highest level
/// that leaves ten beyond, but never below the median.
double TailLevel(size_t n);

/// Peak resident set size of this process so far, MiB.
double PeakRssMib();
/// User and system CPU seconds of this process so far.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};
CpuTimes ProcessCpu();

// ----------------------------------------------------------------- result --

/// The result line: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Marks the run incorrect without counting an operation (a failed
  /// self-check of the traced pass).
  void Invalidate() { invalid_ = true; }
  bool correct() const { return !invalid_ && failed_ == 0 && attempted_ > 0; }
  /// Prints the human summary to stderr and the JSON line to stdout.
  /// Returns the process exit code (0 iff correct).
  int Emit(const std::string& workload) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool invalid_ = false;
};

// ------------------------------------------------------------------ modes --

struct Args {
  std::string workload;
  std::string fixture;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Where the traced pass writes its spans ("" = nowhere).
  std::string spans;
};

int RunEstimate(const Args& args);
int RunServeMix(const Args& args);
int TraceEstimate(const Args& args);
int TraceServeMix(const Args& args);

/// Adds the graph, walk, core, graphlet, engine, shard, proc and trace
/// metrics of one traced pass over workload `w`'s configuration.
void TraceLayers(const Fixture& fx, const EstimateWorkload& w, uint64_t seed,
                 const std::string& spans_path, Report* report);
/// Adds the serve and crawl metrics of the serve mix for `seed`: parse
/// and serialize replays, per-class compute, and the client-side wait
/// under a closed loop of seconds / 2.
void TraceServeLayers(const Fixture& fx, uint64_t seed, double seconds,
                      Report* report);
/// Adds the serve and crawl metrics as zero, for workloads that do not
/// go through those layers.
void AddIdleServeMetrics(Report* report);

}  // namespace perfbench
