// grw_perfbench: the benchmark binary (see common.h and README.md).
//
//   grw_perfbench fixture --seed N --out DIR
//   grw_perfbench run     --workload W --fixture DIR --seed N --seconds S
//   grw_perfbench trace   --workload W --fixture DIR --seed N --seconds S
//                         [--spans FILE]

#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  const grw::Flags flags(argc, argv);
  const std::string mode =
      flags.positional().empty() ? "" : flags.positional()[0];
  try {
    if (mode == "fixture") {
      perfbench::WriteFixture(flags.GetUInt64("seed", 1),
                              flags.GetString("out", ""));
      return 0;
    }
    perfbench::Args args;
    args.workload = flags.GetString("workload", "");
    args.fixture = flags.GetString("fixture", "");
    args.seed = flags.GetUInt64("seed", 1);
    args.seconds = flags.GetDouble("seconds", 10.0);
    args.spans = flags.GetString("spans", "");
    const bool serve = args.workload == "serve-mix";
    if (!serve && !perfbench::IsEstimateWorkload(args.workload)) {
      std::fprintf(stderr, "grw_perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    if (mode == "run") {
      return serve ? perfbench::RunServeMix(args)
                   : perfbench::RunEstimate(args);
    }
    if (mode == "trace") {
      return serve ? perfbench::TraceServeMix(args)
                   : perfbench::TraceEstimate(args);
    }
    std::fprintf(stderr, "usage: grw_perfbench fixture|run|trace ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grw_perfbench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
}
