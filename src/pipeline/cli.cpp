#include "pipeline/cli.h"

#include <cstdlib>
#include <fstream>
#include <vector>

#include "core/feasible_region.h"
#include "ingest/ingest_session.h"
#include "ingest/trace_codec.h"
#include "ingest/wire_decoder.h"
#include "ingest/wire_encoder.h"
#include "obs/clock.h"
#include "obs/observer.h"
#include "obs/prometheus.h"
#include "service/sharded_admission.h"
#include "workload/bursty.h"
#include "workload/pipeline_workload.h"
#include "workload/replay.h"

namespace frap::pipeline {

namespace {

// Splits "--key=value" into key/value; flags without '=' get empty value.
bool split_flag(const std::string& arg, std::string& key,
                std::string& value) {
  if (arg.rfind("--", 0) != 0) return false;
  const auto eq = arg.find('=');
  if (eq == std::string::npos) {
    key = arg.substr(2);
    value.clear();
  } else {
    key = arg.substr(2, eq - 2);
    value = arg.substr(eq + 1);
  }
  return true;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

CliParseResult parse_experiment_args(const std::vector<std::string>& args) {
  CliParseResult r;
  std::size_t stages = 2;
  double load = 1.0;
  double resolution = 100.0;
  double mean_compute_ms = 10.0;
  double imbalance = 1.0;
  double duration = 120.0;
  double warmup = 10.0;
  double patience_ms = 0.0;
  std::uint64_t seed = 1;
  auto admission = AdmissionMode::kExact;
  auto policy = PriorityMode::kDeadlineMonotonic;
  bool idle_reset = true;
  std::size_t procs = 1;
  bool procs_given = false;
  bool gedf = false;

  for (const auto& arg : args) {
    std::string key;
    std::string value;
    if (!split_flag(arg, key, value)) {
      r.error = "expected --key[=value], got: " + arg;
      return r;
    }
    double d = 0;
    std::uint64_t u = 0;
    if (key == "stages" && parse_u64(value, u) && u >= 1) {
      stages = static_cast<std::size_t>(u);
    } else if (key == "load" && parse_double(value, d) && d > 0) {
      load = d;
    } else if (key == "resolution" && parse_double(value, d) && d > 0) {
      resolution = d;
    } else if (key == "mean-compute" && parse_double(value, d) && d > 0) {
      mean_compute_ms = d;
    } else if (key == "imbalance" && parse_double(value, d) && d > 0) {
      imbalance = d;
    } else if (key == "duration" && parse_double(value, d) && d > 0) {
      duration = d;
    } else if (key == "warmup" && parse_double(value, d) && d >= 0) {
      warmup = d;
    } else if (key == "patience" && parse_double(value, d) && d >= 0) {
      patience_ms = d;
    } else if (key == "seed" && parse_u64(value, u)) {
      seed = u;
    } else if (key == "admission") {
      if (value == "exact") {
        admission = AdmissionMode::kExact;
      } else if (value == "approx") {
        admission = AdmissionMode::kApproximate;
      } else if (value == "none") {
        admission = AdmissionMode::kNone;
      } else if (value == "split") {
        admission = AdmissionMode::kDeadlineSplit;
      } else {
        r.error = "unknown admission mode: " + value;
        return r;
      }
    } else if (key == "policy") {
      if (value == "dm") {
        policy = PriorityMode::kDeadlineMonotonic;
      } else if (value == "random") {
        policy = PriorityMode::kRandom;
      } else if (value == "edf") {
        policy = PriorityMode::kEdf;
      } else if (value == "llf") {
        policy = PriorityMode::kLlf;
      } else if (value == "gedf") {
        // Global EDF: the EDF policy on pooled stages; --procs picks the
        // pool size (default 2 when not given).
        policy = PriorityMode::kEdf;
        gedf = true;
      } else {
        r.error = "unknown policy: " + value;
        return r;
      }
    } else if (key == "procs" && parse_u64(value, u) && u >= 1) {
      procs = static_cast<std::size_t>(u);
      procs_given = true;
    } else if (key == "no-idle-reset" && value.empty()) {
      idle_reset = false;
    } else {
      r.error = "unknown or malformed flag: " + arg;
      return r;
    }
  }

  if (warmup >= duration) {
    r.error = "--warmup must be smaller than --duration";
    return r;
  }

  auto& cfg = r.config;
  cfg.workload.mean_compute.assign(stages, mean_compute_ms * kMilli);
  // Imbalance skews the LAST stage's mean relative to the first.
  if (stages >= 2) {
    cfg.workload.mean_compute.back() = mean_compute_ms * kMilli * imbalance;
  }
  cfg.workload.input_load = load;
  cfg.workload.resolution = resolution;
  cfg.seed = seed;
  cfg.sim_duration = duration;
  cfg.warmup = warmup;
  cfg.admission = admission;
  cfg.priority = policy;
  cfg.idle_reset = idle_reset;
  cfg.patience = patience_ms * kMilli;
  cfg.procs_per_stage = gedf && !procs_given ? 2 : procs;
  r.ok = true;
  return r;
}

ObsCliParseResult parse_obs_args(const std::vector<std::string>& args) {
  ObsCliParseResult r;
  std::vector<std::string> experiment_args;
  for (const auto& arg : args) {
    std::string key;
    std::string value;
    if (!split_flag(arg, key, value)) {
      r.error = "expected --key[=value], got: " + arg;
      return r;
    }
    std::uint64_t u = 0;
    if (key == "format") {
      if (value == "jsonl") {
        r.config.format = ObsFormat::kJsonl;
      } else if (value == "prom") {
        r.config.format = ObsFormat::kPrometheus;
      } else {
        r.error = "unknown obs format: " + value;
        return r;
      }
    } else if (key == "out" && !value.empty()) {
      r.config.out_path = value;
    } else if (key == "ring" && parse_u64(value, u) && u >= 1) {
      r.config.ring_capacity = static_cast<std::size_t>(u);
    } else {
      experiment_args.push_back(arg);
    }
  }
  CliParseResult exp = parse_experiment_args(experiment_args);
  if (!exp.ok) {
    r.error = exp.error;
    return r;
  }
  r.config.experiment = exp.config;
  r.ok = true;
  return r;
}

int run_obs_command(const ObsCliConfig& cfg, std::ostream& os) {
  // ManualClock + sampling off: the rendered page depends only on flags and
  // seed, never on host timing, so goldens and replays stay stable.
  obs::ManualClock clock;
  obs::SinkConfig sink_cfg;
  sink_cfg.ring_capacity = cfg.ring_capacity;
  sink_cfg.latency_sample_period = 0;
  obs::Observer observer(1, sink_cfg, &clock,
                         cfg.experiment.workload.num_stages());

  ExperimentConfig ecfg = cfg.experiment;
  ecfg.observer = &observer;
  (void)run_experiment(ecfg);

  if (cfg.format == ObsFormat::kJsonl) {
    obs::render_jsonl(observer.trace(), os);
  } else {
    obs::render_prometheus(observer.snapshot(), os);
  }
  return os.good() ? 0 : 1;
}

std::string obs_cli_usage() {
  return
      "usage: experiment_cli obs [--format=jsonl|prom] [--out=PATH]\n"
      "                          [--ring=N] [experiment flags...]\n"
      "  --format=F          jsonl (decision trace, default) or prom\n"
      "                      (Prometheus text exposition)\n"
      "  --out=PATH          write to PATH instead of stdout\n"
      "  --ring=N            trace-ring capacity, rounded up to a power of\n"
      "                      two (default 65536)\n"
      "  plus any experiment flag (see `experiment_cli --help`). Only the\n"
      "  exact/approx admission modes emit decision events; stage gauges\n"
      "  render in every mode.\n";
}

IngestCliParseResult parse_ingest_args(const std::vector<std::string>& args) {
  IngestCliParseResult r;
  for (const auto& arg : args) {
    std::string key;
    std::string value;
    if (!split_flag(arg, key, value)) {
      r.error = "expected --key[=value], got: " + arg;
      return r;
    }
    double d = 0;
    std::uint64_t u = 0;
    if (key == "format") {
      if (value == "jsonl") {
        r.config.format = ObsFormat::kJsonl;
      } else if (value == "prom") {
        r.config.format = ObsFormat::kPrometheus;
      } else {
        r.error = "unknown ingest format: " + value;
        return r;
      }
    } else if (key == "out" && !value.empty()) {
      r.config.out_path = value;
    } else if (key == "in" && !value.empty()) {
      r.config.in_path = value;
    } else if (key == "capture" && !value.empty()) {
      r.config.capture_path = value;
    } else if (key == "count" && parse_u64(value, u) && u >= 1) {
      r.config.count = static_cast<std::size_t>(u);
    } else if (key == "stages" && parse_u64(value, u) && u >= 1) {
      r.config.stages = static_cast<std::size_t>(u);
    } else if (key == "load" && parse_double(value, d) && d > 0) {
      r.config.load = d;
    } else if (key == "resolution" && parse_double(value, d) && d > 0) {
      r.config.resolution = d;
    } else if (key == "mean-compute" && parse_double(value, d) && d > 0) {
      r.config.mean_compute_ms = d;
    } else if (key == "seed" && parse_u64(value, u)) {
      r.config.seed = u;
    } else if (key == "shards" && parse_u64(value, u) && u >= 1) {
      // Every shard keeps at least the service's weight floor.
      constexpr double kFloor = service::ShardedAdmissionService::kMinWeight;
      if (static_cast<double>(u) * kFloor > 1.0) {
        r.error = "--shards=" + value + " exceeds the shard bound of " +
                  std::to_string(static_cast<std::uint64_t>(1.0 / kFloor)) +
                  " (shards * ShardedAdmissionService::kMinWeight must be "
                  "<= 1)";
        return r;
      }
      r.config.shards = static_cast<std::size_t>(u);
    } else if (key == "mmpp" && value.empty()) {
      r.config.mmpp = true;
    } else if (key == "ring" && parse_u64(value, u) && u >= 1) {
      r.config.ring_capacity = static_cast<std::size_t>(u);
    } else {
      r.error = "unknown or malformed flag: " + arg;
      return r;
    }
  }
  r.ok = true;
  return r;
}

int run_ingest_command(const IngestCliConfig& cfg, std::ostream& os,
                       std::ostream& err) {
  constexpr Duration kMilli = 1e-3;

  // Source the frame: a captured file, or a fresh workload capture.
  std::vector<std::byte> bytes;
  if (!cfg.in_path.empty()) {
    std::ifstream in(cfg.in_path, std::ios::binary);
    if (!in || !ingest::read_frame(in, &bytes)) {
      err << "ingest: could not read a frame from " << cfg.in_path << '\n';
      return 1;
    }
  } else {
    auto wcfg = workload::PipelineWorkloadConfig::balanced(
        cfg.stages, cfg.mean_compute_ms * kMilli, cfg.load, cfg.resolution);
    workload::PipelineWorkloadGenerator gen(wcfg, cfg.seed);
    workload::ArrivalTrace trace;
    if (cfg.mmpp) {
      workload::MmppArrivalProcess arrivals(workload::MmppArrivalProcess::Config{},
                                            cfg.seed + 1);
      trace = workload::capture_mmpp(arrivals, gen, cfg.count);
    } else {
      trace = workload::capture_poisson(gen, cfg.count);
    }
    ingest::WireEncoder enc(cfg.stages);
    const auto frame = ingest::encode_trace(trace, enc);
    bytes.assign(frame.begin(), frame.end());
  }

  if (!cfg.capture_path.empty()) {
    std::ofstream out(cfg.capture_path, std::ios::binary);
    if (!out || !ingest::write_frame(out, bytes)) {
      err << "ingest: could not write frame to " << cfg.capture_path << '\n';
      return 1;
    }
  }

  // One validation pass; untrusted bytes surface as a typed error, never UB.
  ingest::WireParse parse;
  const ingest::WireView view = ingest::WireView::open(bytes, &parse);
  if (!parse.ok()) {
    err << "ingest: invalid frame: " << ingest::wire_error_name(parse.error)
        << " at byte " << parse.offset << '\n';
    return 1;
  }

  // ManualClock + sampling off, as in run_obs_command: output depends only
  // on the flags (and the frame), never on host timing.
  obs::ManualClock clock;
  obs::SinkConfig sink_cfg;
  sink_cfg.ring_capacity = cfg.ring_capacity;
  sink_cfg.latency_sample_period = 0;
  service::ShardedAdmissionService svc(
      core::FeasibleRegion::deadline_monotonic(view.num_stages()),
      service::ShardedAdmissionConfig{.num_shards = cfg.shards});
  svc.enable_tracing(sink_cfg, &clock);

  ingest::IngestSession session(view.num_stages());
  const ingest::IngestStats st = session.admit(view, svc);
  if (!st.ok()) {
    err << "ingest: frame rejected: " << ingest::wire_error_name(st.error)
        << '\n';
    return 1;
  }

  if (cfg.format == ObsFormat::kPrometheus) {
    os << "# frap_ingest records=" << st.records << " admitted=" << st.admitted
       << " rejected=" << st.rejected << " stages=" << view.num_stages()
       << " frame_bytes=" << view.size_bytes() << '\n';
    obs::render_prometheus(svc.obs_snapshot(), os);
  } else {
    os << "{\"frap_ingest\":{\"records\":" << st.records
       << ",\"admitted\":" << st.admitted << ",\"rejected\":" << st.rejected
       << ",\"stages\":" << view.num_stages()
       << ",\"frame_bytes\":" << view.size_bytes() << "}}\n";
    obs::render_jsonl(svc.observer().trace(), os);
  }
  return os.good() ? 0 : 1;
}

std::string ingest_cli_usage() {
  return
      "usage: experiment_cli ingest [--count=N] [--stages=N] [--mmpp]\n"
      "                             [--capture=PATH] [--in=PATH]\n"
      "                             [--shards=K] [--format=prom|jsonl]\n"
      "                             [--out=PATH] [workload flags...]\n"
      "  --count=N           arrivals to generate (default 1000)\n"
      "  --stages=N          pipeline length (default 2)\n"
      "  --load=F            input load fraction (default 0.5)\n"
      "  --resolution=F      deadline / total compute ratio (100)\n"
      "  --mean-compute=MS   per-stage mean computation, ms (10)\n"
      "  --seed=N            RNG seed (1)\n"
      "  --mmpp              bursty MMPP arrivals instead of Poisson\n"
      "  --capture=PATH      also write the encoded frame to PATH\n"
      "  --in=PATH           decode PATH instead of generating (other\n"
      "                      workload flags are ignored)\n"
      "  --shards=K          sharded-service shard count, 1-100 (4)\n"
      "  --format=F          prom (default) or jsonl (decision trace)\n"
      "  --out=PATH          write to PATH instead of stdout\n"
      "  --ring=N            trace-ring capacity (default 65536)\n";
}

std::string experiment_cli_usage() {
  return
      "usage: experiment_cli [--flag=value ...]\n"
      "  --stages=N          pipeline length (default 2)\n"
      "  --load=F            input load, fraction of stage capacity (1.0)\n"
      "  --resolution=F      mean deadline / mean total compute (100)\n"
      "  --mean-compute=MS   per-stage mean computation, ms (10)\n"
      "  --imbalance=F       last-stage mean = F * first-stage mean (1.0)\n"
      "  --duration=S        arrival horizon, seconds (120)\n"
      "  --warmup=S          measurement start, seconds (10)\n"
      "  --seed=N            RNG seed (1)\n"
      "  --admission=MODE    exact | approx | none | split (exact)\n"
      "  --policy=P          dm | random | edf | llf | gedf (dm)\n"
      "  --procs=M           processors per stage (1; gedf defaults to 2)\n"
      "  --patience=MS       waiting-admission patience, ms (0)\n"
      "  --no-idle-reset     disable the idle reset (ablation)\n";
}

}  // namespace frap::pipeline
