// The serve-mix workload: an in-process ServeServer on loopback with the
// fixture's `.grwb` registered, driven by a closed loop of 4 client
// connections. Each client sends its next request as soon as the previous
// answer arrives; requests come from a seeded pool of distinct lines:
//
//   k4     70%  ESTIMATE k=4 (SRW2CSS) steps=10000 chains=2
//   k3     15%  ESTIMATE k=3 (SRW1CSSNB) steps=20000 chains=2
//   crawl  15%  ESTIMATE k=4 steps=10000 chains=2 crawl=1 cache=1024
//               budget=4000
//
// Latency is measured client side, from the first send to the final
// answer (a RETRY_AFTER shed is resent after its hint and counts in the
// latency). Every answer is compared byte for byte — with the timing
// field blanked — against the same request answered by a direct
// EstimationEngine run over the resident snapshot, after the timed loop.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "graph/source.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

namespace {

constexpr int kClients = 4;
constexpr int kPoolLines = 64;
constexpr int kMaxRetries = 4;
const char* const kGraphId = "fixture";

// ------------------------------------------------------------------ mix --

struct Mix {
  std::vector<std::string> lines;
  std::vector<int> line_class;  // index into kClassNames
};

Mix MakeMix(uint64_t seed) {
  Mix mix;
  grw::Rng rng(grw::DeriveSeed(seed, 0x6d6978));  // "mix"
  // A fixed 45/10/9 split of the 64 lines (70/15/15%), so the mix's
  // composition does not vary with the seed; only the request seeds do.
  for (int i = 0; i < kPoolLines; ++i) {
    const int cls = i < 45 ? 0 : (i < 55 ? 1 : 2);
    std::string line = "ESTIMATE graph=" + std::string(kGraphId);
    if (cls == 0) line += " k=4 steps=10000 chains=2";
    if (cls == 1) line += " k=3 steps=20000 chains=2";
    if (cls == 2) {
      line += " k=4 steps=10000 chains=2 crawl=1 cache=1024 budget=4000";
    }
    line += " seed=" + std::to_string(rng.UniformInt(1ull << 40));
    mix.lines.push_back(line);
    mix.line_class.push_back(cls);
  }
  return mix;
}

// The `"seconds": <time>` field is the only part of an answer that is
// not a pure function of the request.
std::string BlankSeconds(const std::string& response) {
  const std::string key = "\"seconds\": ";
  const size_t at = response.find(key);
  if (at == std::string::npos) return response;
  const size_t begin = at + key.size();
  const size_t end = response.find_first_of(",}", begin);
  return response.substr(0, begin) + "*" + response.substr(end);
}

// -------------------------------------------------------------- server --

struct Server {
  std::unique_ptr<grw::serve::SnapshotRegistry> registry;
  std::unique_ptr<grw::serve::ServeServer> server;
};

Server StartServer(const Fixture& fx, grw::ChainPool* pool) {
  Server s;
  s.registry = std::make_unique<grw::serve::SnapshotRegistry>();
  s.registry->Register(kGraphId, fx.grwb);
  grw::serve::ServerOptions options;
  options.scheduler.workers = kClients;
  options.scheduler.pool = pool;
  s.server =
      std::make_unique<grw::serve::ServeServer>(s.registry.get(), options);
  s.server->Start();
  return s;
}

// ---------------------------------------------------------------- load --

struct Sample {
  int line = 0;
  double ms = 0.0;
  int retries = 0;
  bool transport_error = false;
  std::string response;
};

struct Load {
  std::vector<Sample> samples;
  double seconds = 0.0;
};

Load RunLoad(int port, const Mix& mix, uint64_t seed, double seconds) {
  std::vector<std::vector<Sample>> per_client(kClients);
  std::atomic<bool> stop{false};
  grw::WallTimer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      grw::Rng rng(grw::DeriveSeed(seed, 0x636c69656e74 + c));  // "client"
      std::unique_ptr<grw::serve::QueryClient> conn;
      while (!stop.load(std::memory_order_relaxed)) {
        Sample s;
        s.line = static_cast<int>(rng.UniformInt(mix.lines.size()));
        const auto start = std::chrono::steady_clock::now();
        for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
          try {
            if (!conn) {
              conn = std::make_unique<grw::serve::QueryClient>("127.0.0.1",
                                                               port);
            }
            s.response = conn->RoundTrip(mix.lines[s.line]);
            s.transport_error = false;
          } catch (const std::exception& e) {
            conn.reset();
            s.transport_error = true;
            s.response.clear();
          }
          const bool shed =
              s.response.find(grw::serve::kErrorCodeRetryAfter) !=
              std::string::npos;
          if (!s.transport_error && !shed) break;
          if (attempt == kMaxRetries) break;
          ++s.retries;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        s.ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
        per_client[c].push_back(std::move(s));
      }
    });
  }
  while (timer.Seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  Load load;
  load.seconds = timer.Seconds();
  for (auto& samples : per_client) {
    for (Sample& s : samples) load.samples.push_back(std::move(s));
  }
  return load;
}

// ----------------------------------------------------------- reference --

struct Reference {
  grw::serve::EstimateRequest request;
  grw::EngineResult result;
  std::string response;  // seconds blanked
  double compute_ms = 0.0;
};

std::vector<Reference> References(const grw::Graph& g, const Mix& mix,
                                  grw::ChainPool* pool) {
  std::vector<Reference> refs;
  const grw::serve::RequestLimits limits;
  for (const std::string& line : mix.lines) {
    Reference ref;
    const grw::serve::ParsedRequest parsed =
        grw::serve::ParseRequestLine(line, limits);
    if (!parsed.request) {
      throw std::runtime_error("mix line rejected: " + parsed.error);
    }
    ref.request = parsed.request->estimate;
    grw::EngineOptions options = grw::serve::ToEngineOptions(ref.request);
    options.pool = pool;
    grw::WallTimer timer;
    ref.result = grw::EstimationEngine(g, ref.request.config, options).Run();
    ref.compute_ms = timer.Millis();
    ref.response =
        BlankSeconds(grw::serve::EstimateResponse(ref.request, ref.result));
    refs.push_back(std::move(ref));
  }
  return refs;
}

int CheckLoad(const Load& load, const std::vector<Reference>& refs,
              Report* report) {
  int shown = 0;
  for (const Sample& s : load.samples) {
    const bool ok = !s.transport_error &&
                    BlankSeconds(s.response) == refs[s.line].response;
    if (!ok && shown++ < 3) {
      std::fprintf(stderr, "[serve-mix] request %d FAILED: %s\n", s.line,
                   s.transport_error ? "transport error"
                                     : s.response.substr(0, 200).c_str());
    }
    report->Attempt(ok);
  }
  return shown;
}

double StartupSeconds(const Fixture& fx, grw::ChainPool* pool,
                      Server* keep) {
  std::vector<double> setup;
  for (grw::WallTimer spent; MoreSetups(setup.size(), spent.Seconds());) {
    *keep = Server();
    grw::WallTimer timer;
    *keep = StartServer(fx, pool);
    setup.push_back(timer.Seconds());
  }
  return Median(setup);
}

}  // namespace

int RunServeMix(const Args& args) {
  const Fixture fx = LoadFixture(args.fixture);
  grw::ChainPool pool(kThreads);
  Report report;
  Server server;
  const double setup_s = StartupSeconds(fx, &pool, &server);
  const Mix mix = MakeMix(args.seed);

  // Warm-up: the same mix for kWarmupSeconds, untimed and unchecked.
  RunLoad(server.server->port(), mix, grw::DeriveSeed(args.seed, 1),
          kWarmupSeconds);
  const Load load = RunLoad(server.server->port(), mix, args.seed,
                            args.seconds);
  const double peak_rss = PeakRssMib();
  server.server->Stop();

  const grw::GraphSource reference = grw::GraphSource::Open(fx.grwb);
  const std::vector<Reference> refs =
      References(reference.graph(), mix, &pool);
  CheckLoad(load, refs, &report);

  std::vector<double> ms;
  for (const Sample& s : load.samples) ms.push_back(s.ms);
  std::fprintf(stderr,
               "[serve-mix] %zu requests in %.2f s, %d clients; p99_ms is "
               "the p%.1f\n",
               load.samples.size(), load.seconds, kClients,
               TailLevel(ms.size()) * 100);
  report.Add("setup_s", setup_s, "s");
  report.Add("qps", static_cast<double>(load.samples.size()) / load.seconds,
             "1/s");
  report.Add("p50_ms", Median(ms), "ms");
  report.Add("p99_ms", Quantile(ms, TailLevel(ms.size())), "ms");
  report.Add("peak_rss_mib", peak_rss, "MiB");
  return report.Emit("serve-mix");
}

namespace {

const char* const kClassNames[] = {"k4", "k3", "crawl"};

}  // namespace

void AddIdleServeMetrics(Report* report) {
  report->Add("crawl.distinct_fetches", 0.0, "count");
  report->Add("crawl.hit_rate", 0.0, "ratio");
  report->Add("serve.parse_us", 0.0, "us");
  report->Add("serve.serialize_us", 0.0, "us");
  for (const char* cls : kClassNames) {
    report->Add(std::string("serve.compute_ms.") + cls, 0.0, "ms");
  }
  for (const char* cls : kClassNames) {
    report->Add(std::string("serve.wait_ms.") + cls, 0.0, "ms");
  }
  report->Add("serve.shed", 0.0, "count");
  report->Add("serve.retries", 0.0, "count");
  report->Add("serve.qps", 0.0, "1/s");
  report->Add("serve.p50_ms", 0.0, "ms");
  report->Add("serve.p99_ms", 0.0, "ms");
}

void TraceServeLayers(const Fixture& fx, uint64_t seed, double seconds,
                      Report* report) {
  grw::ChainPool pool(kThreads);
  const Mix mix = MakeMix(seed);
  const grw::GraphSource reference = grw::GraphSource::Open(fx.grwb);
  const std::vector<Reference> refs =
      References(reference.graph(), mix, &pool);

  // Compute per class (direct engine runs, one at a time) and crawl cost.
  std::vector<std::vector<double>> compute(3);
  grw::CrawlStats crawl;
  double distinct = 0.0;
  int crawl_requests = 0;
  for (size_t i = 0; i < refs.size(); ++i) {
    compute[mix.line_class[i]].push_back(refs[i].compute_ms);
    if (refs[i].request.crawl) {
      const grw::CrawlStats& a = refs[i].result.access;
      crawl.cache_hits += a.cache_hits;
      crawl.fetches += a.fetches;
      distinct += static_cast<double>(a.distinct_fetches);
      ++crawl_requests;
    }
  }

  // parse and serialize, replayed over the mix.
  const grw::serve::RequestLimits limits;
  constexpr int kReplays = 200;
  grw::WallTimer parse_timer;
  size_t parsed_ok = 0;
  for (int r = 0; r < kReplays; ++r) {
    for (const std::string& line : mix.lines) {
      parsed_ok += grw::serve::ParseRequestLine(line, limits).request ? 1 : 0;
    }
  }
  const double calls = static_cast<double>(kReplays * mix.lines.size());
  const double parse_us = parse_timer.Seconds() * 1e6 / calls;
  grw::WallTimer serialize_timer;
  size_t bytes = 0;
  for (int r = 0; r < kReplays; ++r) {
    for (const Reference& ref : refs) {
      bytes += grw::serve::EstimateResponse(ref.request, ref.result).size();
    }
  }
  const double serialize_us = serialize_timer.Seconds() * 1e6 / calls;
  if (parsed_ok != static_cast<size_t>(calls) || bytes == 0) {
    report->Invalidate();
  }

  // Client latency under the closed loop: per class for the wait split,
  // and over all requests for serve.qps / p50_ms / p99_ms.
  Server server = StartServer(fx, &pool);
  RunLoad(server.server->port(), mix, grw::DeriveSeed(seed, 1),
          kWarmupSeconds);
  const Load load = RunLoad(server.server->port(), mix, seed,
                            std::max(2.0, seconds * 0.5));
  const grw::serve::ServeScheduler::Stats stats = server.server->stats();
  server.server->Stop();
  CheckLoad(load, refs, report);
  std::vector<std::vector<double>> client(3);
  std::vector<double> all_ms;
  double retries = 0.0;
  for (const Sample& s : load.samples) {
    client[mix.line_class[s.line]].push_back(s.ms);
    all_ms.push_back(s.ms);
    retries += s.retries;
  }

  report->Add("crawl.distinct_fetches",
              crawl_requests == 0 ? 0.0 : distinct / crawl_requests, "count");
  report->Add("crawl.hit_rate", crawl.HitRate(), "ratio");
  report->Add("serve.parse_us", parse_us, "us");
  report->Add("serve.serialize_us", serialize_us, "us");
  for (int c = 0; c < 3; ++c) {
    report->Add(std::string("serve.compute_ms.") + kClassNames[c],
                Median(compute[c]), "ms");
  }
  for (int c = 0; c < 3; ++c) {
    report->Add(std::string("serve.wait_ms.") + kClassNames[c],
                Median(client[c]) - Median(compute[c]), "ms");
  }
  report->Add("serve.shed", static_cast<double>(stats.rejected_queue),
              "count");
  report->Add("serve.retries", retries, "count");
  report->Add("serve.qps",
              static_cast<double>(load.samples.size()) / load.seconds, "1/s");
  report->Add("serve.p50_ms", Median(all_ms), "ms");
  report->Add("serve.p99_ms", Quantile(all_ms, TailLevel(all_ms.size())),
              "ms");
}

int TraceServeMix(const Args& args) {
  const Fixture fx = LoadFixture(args.fixture);
  Report report;
  // The layers under serve's compute: a traced pass over the k4 class.
  EstimateWorkload k4;
  k4.name = "serve-mix k4";
  k4.config.k = 4;
  k4.config.d = 2;
  k4.config.css = true;
  k4.chains = 2;
  k4.max_steps = 10000;
  k4.trace_steps = 10000;
  TraceLayers(fx, k4, args.seed, args.spans, &report);
  TraceServeLayers(fx, args.seed, args.seconds, &report);
  return report.Emit("serve-mix (traced)");
}

}  // namespace perfbench
