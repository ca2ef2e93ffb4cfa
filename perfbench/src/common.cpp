#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

// -------------------------------------------------------------- workloads --

EstimateWorkload EstimateWorkloadFor(const std::string& name) {
  EstimateWorkload w;
  w.name = name;
  w.config.k = 4;
  if (name == "estimate-srw2css") {
    // The paper's recommended estimator, stopping on the batch-means
    // relative error like `grw estimate --target-nrmse`.
    w.config.d = 2;
    w.config.css = true;
    w.max_steps = 400000;
    w.target_nrmse = 0.02;
    w.trace_steps = 25000;
  } else if (name == "estimate-srw3") {
    // PSRW, the paper's baseline: G(3) neighbour enumeration dominates.
    w.config.d = 3;
    w.max_steps = 2000;
    w.trace_steps = 4000;
  } else if (name == "outofcore-b50") {
    // SRW2CSS for a fixed step count over the shard set, resident
    // budget half the shard bytes.
    w.config.d = 2;
    w.config.css = true;
    w.max_steps = 6250;
    w.sharded = true;
    w.trace_steps = 25000;
  } else {
    throw std::invalid_argument("unknown estimate workload '" + name + "'");
  }
  return w;
}

bool IsEstimateWorkload(const std::string& name) {
  return name == "estimate-srw2css" || name == "estimate-srw3" ||
         name == "outofcore-b50";
}

grw::EngineOptions RequestOptions(const EstimateWorkload& w,
                                  uint64_t request_seed,
                                  grw::ChainPool* pool) {
  grw::EngineOptions options;
  options.chains = kChains;
  options.threads = kRequestThreads;
  options.max_steps = w.max_steps;
  options.target_nrmse = w.target_nrmse;
  options.base_seed = request_seed;
  // The CLI's pinning (serve's ToEngineOptions does the same): with
  // several chains the round slicing is fixed, so batch structure and
  // standard errors do not depend on progress reporting.
  options.round_steps = grw::EngineOptions::DefaultRoundSteps(w.max_steps);
  options.pool = pool;
  return options;
}

uint64_t RequestSeed(uint64_t seed, uint64_t rep) {
  return grw::DeriveSeed(seed, 0x72657100 + rep);  // "req"
}

std::vector<double> SpreadWithout(
    const std::vector<grw::EstimateResult>& answers, size_t skip) {
  std::vector<double> sd;
  if (answers.size() < 3) return sd;
  const size_t types = answers[0].concentrations.size();
  const double n = static_cast<double>(answers.size() - 1);
  for (size_t i = 0; i < types; ++i) {
    double mean = 0.0;
    for (size_t j = 0; j < answers.size(); ++j) {
      if (j != skip) mean += answers[j].concentrations[i];
    }
    mean /= n;
    double sum_sq = 0.0;
    for (size_t j = 0; j < answers.size(); ++j) {
      if (j == skip) continue;
      const double dev = answers[j].concentrations[i] - mean;
      sum_sq += dev * dev;
    }
    sd.push_back(std::sqrt(sum_sq / (n - 1.0)));
  }
  return sd;
}

int CountExactMisses(const grw::EstimateResult& est,
                     const std::vector<double>& se,
                     const std::vector<double>& exact, std::string* why) {
  const std::vector<double>& c = est.concentrations;
  if (c.size() != exact.size() || se.size() != exact.size()) {
    *why = "answer has the wrong number of types";
    return 1;
  }
  const double floor = grw::EngineOptions().min_concentration;
  int misses = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    if (exact[i] < floor) continue;
    const double err = std::fabs(c[i] - exact[i]);
    if (!(err <= kZ * se[i])) {
      if (misses++ == 0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "type %zu: estimate %.6g, exact %.6g, |err| %.3g > "
                      "%.0f * SE %.3g",
                      i, c[i], exact[i], err, kZ, se[i]);
        *why = buf;
      }
    }
  }
  return misses;
}

std::string ConcentrationKey(const grw::EstimateResult& r) {
  std::string key;
  char buf[40];
  for (double c : r.concentrations) {
    std::snprintf(buf, sizeof(buf), "%.17g,", c);
    key += buf;
  }
  return key;
}

// ------------------------------------------------------------------ stats --

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double TailLevel(size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

// ----------------------------------------------------------------- result --

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

int Report::Emit(const std::string& workload) const {
  std::fprintf(stderr, "[%s] attempted %llu, failed %llu (failed_frac %.4g)%s\n",
               workload.c_str(), static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               attempted_ == 0 ? 1.0
                               : static_cast<double>(failed_) /
                                     static_cast<double>(attempted_),
               invalid_ ? ", self-check FAILED" : "");
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    const double value =
        std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::fprintf(stderr, "  %-34s %16.6g %s\n", name.c_str(), value,
                 value_unit.second.c_str());
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            value_unit.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
