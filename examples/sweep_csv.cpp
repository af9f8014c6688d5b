// Machine-readable parameter sweeps: run a load sweep over a base
// configuration (given as experiment_cli-style flags) and emit one CSV row
// per (load, seed-replication) cell, ready for plotting.
//
//   ./sweep_csv --stages=3 --resolution=50 > sweep.csv
//   ./sweep_csv --admission=approx --load-from=60 --load-to=200
//               --load-step=20 --reps=5 > sweep.csv     (one command line)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "metrics/export.h"
#include "pipeline/cli.h"
#include "pipeline/replication.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace frap;

  // Split off sweep-specific flags; forward the rest to the CLI parser.
  int load_from = 60;
  int load_to = 200;
  int load_step = 20;
  std::size_t reps = 3;
  std::vector<std::string> base_args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_flag = [&](const char* name, int& out) {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      out = std::atoi(arg.substr(prefix.size()).c_str());
      return true;
    };
    int reps_int = 0;
    if (int_flag("--load-from", load_from) ||
        int_flag("--load-to", load_to) ||
        int_flag("--load-step", load_step)) {
      continue;
    }
    if (int_flag("--reps", reps_int)) {
      reps = static_cast<std::size_t>(reps_int);
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::fputs(
          "usage: sweep_csv [experiment_cli flags] [--load-from=60]\n"
          "                 [--load-to=200] [--load-step=20] [--reps=3]\n\n",
          stdout);
      std::fputs(pipeline::experiment_cli_usage().c_str(), stdout);
      return 0;
    }
    base_args.push_back(arg);
  }
  if (load_step <= 0 || load_from <= 0 || load_to < load_from ||
      reps == 0) {
    std::fprintf(stderr, "error: invalid sweep range\n");
    return 1;
  }

  const auto parsed = pipeline::parse_experiment_args(base_args);
  if (!parsed.ok) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
    return 1;
  }

  util::Table csv({"load_pct", "seed", "stages", "avg_util",
                   "bottleneck_util", "acceptance", "miss_ratio",
                   "mean_response_ms", "completed"});
  for (int load_pct = load_from; load_pct <= load_to;
       load_pct += load_step) {
    auto cfg = parsed.config;
    cfg.workload.input_load = load_pct / 100.0;
    const auto rep = pipeline::run_replicated(cfg, cfg.seed, reps);
    for (std::size_t i = 0; i < rep.runs.size(); ++i) {
      const auto& r = rep.runs[i];
      csv.add_row({std::to_string(load_pct),
                   std::to_string(cfg.seed + i),
                   std::to_string(cfg.workload.num_stages()),
                   util::Table::fmt(r.avg_stage_utilization, 5),
                   util::Table::fmt(r.bottleneck_utilization, 5),
                   util::Table::fmt(r.acceptance_ratio, 5),
                   util::Table::fmt(r.miss_ratio, 6),
                   util::Table::fmt(r.mean_response / kMilli, 2),
                   std::to_string(r.completed)});
    }
  }
  metrics::write_csv(csv, std::cout);
  return 0;
}
