// End-to-end runs of the three estimate workloads (tracing off).
//
// A run is a closed loop with one caller: set the graph up several times
// (setup_s is the median), answer untimed warm-up requests, then issue
// requests back to back — each an EstimationEngine run with its own seed,
// 4 chains on one thread — until the run's time is spent. Every answer is
// checked afterwards, outside the timed loop.

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "graph/source.h"
#include "util/timer.h"

namespace perfbench {

namespace {

constexpr int kMinRequests = 3;

grw::OpenOptions SourceOptions(const EstimateWorkload& w,
                               const Fixture& fx) {
  grw::OpenOptions options;
  if (w.sharded) {
    options.build_index = false;  // a sharded graph has no global CSR
    options.resident_budget_bytes = HalfShardBudget(fx.shards);
    // Opened as `grw_serve` registers a shard set: every shard mapped and
    // checksummed once, then unmapped, so the store starts empty either
    // way. The bare open is a few syscalls (0.1-0.15 ms, the two levels
    // changing from process to process); the checksums make set-up a
    // measurement of the program rather than of the syscall path.
    options.verify = true;
  }
  return options;
}

grw::EngineResult RunRequest(const grw::GraphSource& source,
                             const EstimateWorkload& w, uint64_t seed,
                             grw::ChainPool* pool) {
  const grw::EngineOptions options = RequestOptions(w, seed, pool);
  grw::EstimationEngine engine =
      source.sharded()
          ? grw::EstimationEngine(source.shards(), w.config, options)
          : grw::EstimationEngine(source.graph(), w.config, options);
  return engine.Run();
}

struct Answer {
  uint64_t seed = 0;
  grw::EngineResult result;
};

}  // namespace

int RunEstimate(const Args& args) {
  const EstimateWorkload w = EstimateWorkloadFor(args.workload);
  const Fixture fx = LoadFixture(args.fixture);
  const grw::OpenOptions open_options = SourceOptions(w, fx);
  const std::string path = w.sharded ? fx.shards : fx.grwb;
  grw::ChainPool pool(kRequestThreads);
  Report report;

  grw::GraphSource source = grw::GraphSource::Open(path, open_options);

  // Warm-up requests for kWarmupSeconds: checked, not timed.
  std::vector<Answer> answers;
  uint64_t rep = 0;
  for (grw::WallTimer warm; warm.Seconds() < kWarmupSeconds; ++rep) {
    const uint64_t seed = RequestSeed(args.seed, rep);
    answers.push_back({seed, RunRequest(source, w, seed, &pool)});
  }
  const size_t warmup_requests = answers.size();

  // Set-up: open the fixture (and build the adjacency index, or open the
  // shard store) again, several times; the last one serves the requests.
  std::vector<double> setup;
  for (grw::WallTimer spent; MoreSetups(setup.size(), spent.Seconds());) {
    source = grw::GraphSource();
    grw::WallTimer timer;
    source = grw::GraphSource::Open(path, open_options);
    setup.push_back(timer.Seconds());
  }

  std::vector<double> walls;
  double timed_steps = 0.0;
  const CpuTimes cpu_start = ProcessCpu();
  grw::WallTimer run_timer;
  for (; run_timer.Seconds() < args.seconds || walls.size() < kMinRequests;
       ++rep) {
    const uint64_t seed = RequestSeed(args.seed, rep);
    grw::WallTimer timer;
    grw::EngineResult result = RunRequest(source, w, seed, &pool);
    walls.push_back(timer.Seconds());
    timed_steps += static_cast<double>(result.merged.steps);
    answers.push_back({seed, std::move(result)});
  }
  const double run_s = run_timer.Seconds();
  const CpuTimes cpu_end = ProcessCpu();
  const double peak_rss = PeakRssMib();
  const grw::ShardStats shard_stats =
      w.sharded ? source.shards().stats() : grw::ShardStats{};
  const size_t timed_requests = walls.size();

  // Correctness, untimed. Every answer must lie within kZ standard
  // errors of the exact concentrations, the standard error being the
  // spread of the run's other answers across their independent requests
  // (the engine's own batch-means error is reported beside it, not
  // trusted). A short run answers extra requests so that spread rests
  // on at least kMinCheckAnswers answers. Out-of-core answers must also
  // equal, bit for bit, the same request answered from the resident
  // snapshot.
  for (; answers.size() < kMinCheckAnswers; ++rep) {
    const uint64_t seed = RequestSeed(args.seed, rep);
    answers.push_back({seed, RunRequest(source, w, seed, &pool)});
  }
  std::vector<grw::EstimateResult> merged;
  for (const Answer& a : answers) merged.push_back(a.result.merged);
  const std::vector<double>& exact = fx.exact.at(w.config.k);
  grw::GraphSource reference;
  if (w.sharded) reference = grw::GraphSource::Open(fx.grwb);
  int engine_se_misses = 0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    std::string why;
    bool ok = CountExactMisses(a.result.merged, SpreadWithout(merged, i),
                               exact, &why) == 0;
    std::string engine_why;
    if (CountExactMisses(a.result.merged, a.result.standard_errors, exact,
                         &engine_why) > 0) {
      ++engine_se_misses;
    }
    if (w.sharded) {
      const grw::EngineResult ref = RunRequest(reference, w, a.seed, &pool);
      if (ConcentrationKey(ref.merged) != ConcentrationKey(a.result.merged) ||
          ref.merged.steps != a.result.merged.steps) {
        ok = false;
        if (why.empty()) why = "differs from the in-memory reference";
      }
    }
    if (!ok) {
      std::fprintf(stderr, "[%s] request seed %llu FAILED: %s\n",
                   w.name.c_str(), static_cast<unsigned long long>(a.seed),
                   why.c_str());
    }
    report.Attempt(ok);
  }

  std::vector<double> steps;
  for (const Answer& a : answers) {
    steps.push_back(static_cast<double>(a.result.merged.steps));
  }
  std::fprintf(stderr,
               "[%s] %zu timed requests in %.2f s (+%zu warm-up, %zu "
               "checked), median %.0f steps; request ms p10/p50/p90/max "
               "%.1f/%.1f/%.1f/%.1f, mean %.1f\n",
               w.name.c_str(), timed_requests, run_s, warmup_requests,
               answers.size(), Median(steps), Quantile(walls, 0.1) * 1e3,
               Quantile(walls, 0.5) * 1e3, Quantile(walls, 0.9) * 1e3,
               Quantile(walls, 1.0) * 1e3, Mean(walls) * 1e3);
  std::fprintf(stderr, "[%s] timed loop CPU: user %.2f s, sys %.2f s\n",
               w.name.c_str(), cpu_end.user - cpu_start.user,
               cpu_end.sys - cpu_start.sys);
  // Throughput by 10 s window of the timed loop: a level that moves
  // between windows of one process is the host, not the requests.
  std::string windows;
  double window_s = 0.0;
  double window_steps = 0.0;
  for (size_t i = 0; i < walls.size(); ++i) {
    window_s += walls[i];
    window_steps += static_cast<double>(
        answers[warmup_requests + i].result.merged.steps);
    if (window_s >= 10.0 || i + 1 == walls.size()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.0f", window_steps / window_s);
      windows += buf;
      window_s = window_steps = 0.0;
    }
  }
  std::fprintf(stderr, "[%s] steps/s by 10 s window:%s\n", w.name.c_str(),
               windows.c_str());
  std::fprintf(stderr,
               "[%s] %zu set-ups, ms p10/p50/p90 %.4f/%.4f/%.4f\n",
               w.name.c_str(), setup.size(), Quantile(setup, 0.1) * 1e3,
               Quantile(setup, 0.5) * 1e3, Quantile(setup, 0.9) * 1e3);
  std::fprintf(stderr,
               "[%s] %d of %zu answers miss the exact value by more than "
               "%.0f of the engine's own batch-means standard errors\n",
               w.name.c_str(), engine_se_misses, answers.size(), kZ);
  if (w.sharded) {
    std::fprintf(stderr,
                 "[%s] shard store: %llu faults, %llu hits, %llu evictions\n",
                 w.name.c_str(),
                 static_cast<unsigned long long>(shard_stats.faults),
                 static_cast<unsigned long long>(shard_stats.hits),
                 static_cast<unsigned long long>(shard_stats.evictions));
  }

  report.Add("setup_s", Median(setup), "s");
  report.Add("wall_s", Median(walls), "s");
  // wall_s is the typical request; steps_per_s the whole timed loop's
  // throughput, slow requests included (requests differ in how much G(d)
  // or shard work their walks meet).
  double timed_s = 0.0;
  for (double wall : walls) timed_s += wall;
  report.Add("steps_per_s", timed_steps / timed_s, "1/s");
  report.Add("peak_rss_mib", peak_rss, "MiB");
  return report.Emit(w.name);
}

}  // namespace perfbench
