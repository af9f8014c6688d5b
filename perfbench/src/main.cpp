// End-to-end benchmark program for frap. Runs one workload for a fixed
// wall-clock window and prints one JSON object as its last line.
//
//   perfbench --workload steady_churn --seed 7 --seconds 2 --trace 0
//
// Workloads: steady_churn, sharded_skew, dag_long_path, pipeline_runtime
// (see README.md). --trace 1 makes the traced run: per-layer metrics
// instead of end-to-end ones; --spans FILE writes its last span batch.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S [--trace 0|1] [--spans FILE]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--spans") {
        opt.span_out = val;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  const perfbench::Options opt = parse(argc, argv);
  try {
    const perfbench::Report r = perfbench::run_workload(opt);
    for (const auto& p : r.problems) {
      std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                   p.c_str());
    }
    std::printf("%s\n", r.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
