#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/cli.h"

namespace frap::pipeline {
namespace {

TEST(CliTest, DefaultsWithNoArgs) {
  const auto r = parse_experiment_args({});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.workload.num_stages(), 2u);
  EXPECT_DOUBLE_EQ(r.config.workload.input_load, 1.0);
  EXPECT_DOUBLE_EQ(r.config.workload.resolution, 100.0);
  EXPECT_EQ(r.config.admission, AdmissionMode::kExact);
  EXPECT_EQ(r.config.priority, PriorityMode::kDeadlineMonotonic);
  EXPECT_TRUE(r.config.idle_reset);
  EXPECT_DOUBLE_EQ(r.config.patience, 0.0);
}

TEST(CliTest, ParsesAllFlags) {
  const auto r = parse_experiment_args(
      {"--stages=5", "--load=1.75", "--resolution=40", "--mean-compute=20",
       "--duration=60", "--warmup=5", "--seed=99", "--admission=approx",
       "--policy=random", "--patience=200", "--no-idle-reset"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.workload.num_stages(), 5u);
  EXPECT_DOUBLE_EQ(r.config.workload.input_load, 1.75);
  EXPECT_DOUBLE_EQ(r.config.workload.resolution, 40.0);
  EXPECT_DOUBLE_EQ(r.config.workload.mean_compute[0], 0.02);
  EXPECT_DOUBLE_EQ(r.config.sim_duration, 60.0);
  EXPECT_DOUBLE_EQ(r.config.warmup, 5.0);
  EXPECT_EQ(r.config.seed, 99u);
  EXPECT_EQ(r.config.admission, AdmissionMode::kApproximate);
  EXPECT_EQ(r.config.priority, PriorityMode::kRandom);
  EXPECT_DOUBLE_EQ(r.config.patience, 0.2);
  EXPECT_FALSE(r.config.idle_reset);
}

TEST(CliTest, ImbalanceSkewsLastStage) {
  const auto r = parse_experiment_args(
      {"--stages=2", "--mean-compute=10", "--imbalance=4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.config.workload.mean_compute[0], 0.01);
  EXPECT_DOUBLE_EQ(r.config.workload.mean_compute[1], 0.04);
}

TEST(CliTest, AdmissionModes) {
  EXPECT_EQ(parse_experiment_args({"--admission=none"}).config.admission,
            AdmissionMode::kNone);
  EXPECT_EQ(parse_experiment_args({"--admission=split"}).config.admission,
            AdmissionMode::kDeadlineSplit);
  EXPECT_FALSE(parse_experiment_args({"--admission=bogus"}).ok);
}

TEST(CliTest, SchedulingPolicies) {
  EXPECT_EQ(parse_experiment_args({"--policy=edf"}).config.priority,
            PriorityMode::kEdf);
  EXPECT_EQ(parse_experiment_args({"--policy=llf"}).config.priority,
            PriorityMode::kLlf);
  EXPECT_EQ(parse_experiment_args({"--policy=dm"}).config.priority,
            PriorityMode::kDeadlineMonotonic);
  const auto bad = parse_experiment_args({"--policy=bogus"});
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("bogus"), std::string::npos);
}

TEST(CliTest, ProcsFlagAndGedfDefaults) {
  // Plain EDF stays on single-processor stages.
  EXPECT_EQ(parse_experiment_args({"--policy=edf"}).config.procs_per_stage,
            1u);
  // gedf = EDF on pooled stages; pool size defaults to 2...
  const auto gedf = parse_experiment_args({"--policy=gedf"});
  ASSERT_TRUE(gedf.ok) << gedf.error;
  EXPECT_EQ(gedf.config.priority, PriorityMode::kEdf);
  EXPECT_EQ(gedf.config.procs_per_stage, 2u);
  // ...unless --procs says otherwise (order-independent).
  EXPECT_EQ(parse_experiment_args({"--policy=gedf", "--procs=4"})
                .config.procs_per_stage,
            4u);
  EXPECT_EQ(parse_experiment_args({"--procs=4", "--policy=gedf"})
                .config.procs_per_stage,
            4u);
  // --procs alone pools stages under the default fixed-priority policy.
  EXPECT_EQ(parse_experiment_args({"--procs=3"}).config.procs_per_stage, 3u);
  EXPECT_FALSE(parse_experiment_args({"--procs=0"}).ok);
  EXPECT_FALSE(parse_experiment_args({"--procs=abc"}).ok);
}

TEST(CliTest, RejectsUnknownFlag) {
  const auto r = parse_experiment_args({"--frobnicate=1"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("frobnicate"), std::string::npos);
}

TEST(CliTest, RejectsMalformedValue) {
  EXPECT_FALSE(parse_experiment_args({"--load=abc"}).ok);
  EXPECT_FALSE(parse_experiment_args({"--stages=0"}).ok);
  EXPECT_FALSE(parse_experiment_args({"--load=-1"}).ok);
  EXPECT_FALSE(parse_experiment_args({"--seed=12x"}).ok);
}

TEST(CliTest, RejectsNonFlagArgument) {
  const auto r = parse_experiment_args({"load=1.0"});
  EXPECT_FALSE(r.ok);
}

TEST(CliTest, RejectsWarmupBeyondDuration) {
  const auto r = parse_experiment_args({"--duration=10", "--warmup=10"});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("warmup"), std::string::npos);
}

TEST(CliTest, ValueFlagWithoutValueIsRejected) {
  EXPECT_FALSE(parse_experiment_args({"--load"}).ok);
  EXPECT_FALSE(parse_experiment_args({"--load="}).ok);
}

TEST(CliTest, NoIdleResetWithValueIsRejected) {
  EXPECT_FALSE(parse_experiment_args({"--no-idle-reset=yes"}).ok);
}

TEST(CliTest, UsageMentionsEveryFlag) {
  const auto usage = experiment_cli_usage();
  for (const char* flag :
       {"--stages", "--load", "--resolution", "--mean-compute",
        "--imbalance", "--duration", "--warmup", "--seed", "--admission",
        "--policy", "--procs", "--patience", "--no-idle-reset"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(CliTest, ParsedConfigActuallyRuns) {
  const auto r = parse_experiment_args(
      {"--stages=2", "--load=1.0", "--duration=5", "--warmup=1",
       "--seed=3"});
  ASSERT_TRUE(r.ok);
  const auto result = run_experiment(r.config);
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.miss_ratio, 0.0);
}

// ----------------------------------------------------- obs subcommand ---

TEST(ObsCliTest, DefaultsWithNoArgs) {
  const auto r = parse_obs_args({});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.format, ObsFormat::kJsonl);
  EXPECT_TRUE(r.config.out_path.empty());
  EXPECT_EQ(r.config.ring_capacity, std::size_t{1} << 16);
  // Experiment flags fall through to the experiment parser's defaults.
  EXPECT_EQ(r.config.experiment.workload.num_stages(), 2u);
}

TEST(ObsCliTest, ParsesObsFlagsAndForwardsExperimentFlags) {
  const auto r = parse_obs_args({"--format=prom", "--out=/tmp/x.prom",
                                 "--ring=1024", "--stages=3", "--seed=7"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.format, ObsFormat::kPrometheus);
  EXPECT_EQ(r.config.out_path, "/tmp/x.prom");
  EXPECT_EQ(r.config.ring_capacity, 1024u);
  EXPECT_EQ(r.config.experiment.workload.num_stages(), 3u);
  EXPECT_EQ(r.config.experiment.seed, 7u);
}

TEST(ObsCliTest, RejectsBadFormatRingAndUnknownFlags) {
  EXPECT_FALSE(parse_obs_args({"--format=xml"}).ok);
  // --ring=0 and malformed values are not valid obs flags; they fall
  // through to the experiment parser, which rejects them as unknown.
  EXPECT_FALSE(parse_obs_args({"--ring=0"}).ok);
  EXPECT_FALSE(parse_obs_args({"--ring=abc"}).ok);
  EXPECT_FALSE(parse_obs_args({"--frobnicate=1"}).ok);
  EXPECT_FALSE(parse_obs_args({"notaflag"}).ok);
  const auto r = parse_obs_args({"--format=bogus"});
  EXPECT_NE(r.error.find("bogus"), std::string::npos);
}

TEST(ObsCliTest, UsageMentionsEveryObsFlag) {
  const auto usage = obs_cli_usage();
  for (const char* flag : {"--format", "--out", "--ring"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(ObsCliTest, RunRendersJsonlDeterministically) {
  const auto r = parse_obs_args(
      {"--stages=2", "--duration=5", "--warmup=1", "--seed=3"});
  ASSERT_TRUE(r.ok) << r.error;

  std::ostringstream a;
  EXPECT_EQ(run_obs_command(r.config, a), 0);
  EXPECT_FALSE(a.str().empty());
  // Every line is one decision event object.
  EXPECT_EQ(a.str().front(), '{');
  EXPECT_NE(a.str().find("\"reason\":"), std::string::npos);

  // ManualClock + sampling off: a second run is byte-identical.
  std::ostringstream b;
  EXPECT_EQ(run_obs_command(r.config, b), 0);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ObsCliTest, RunRendersPrometheusPage) {
  auto r = parse_obs_args(
      {"--format=prom", "--stages=2", "--duration=5", "--warmup=1",
       "--seed=3"});
  ASSERT_TRUE(r.ok) << r.error;
  std::ostringstream os;
  EXPECT_EQ(run_obs_command(r.config, os), 0);
  const std::string page = os.str();
  EXPECT_NE(page.find("# TYPE frap_decisions_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("frap_decisions_total{shard=\"0\","
                      "reason=\"admitted\"}"),
            std::string::npos);
  // The experiment wires stage gauges; the page must include them.
  EXPECT_NE(page.find("# TYPE frap_stage_queue_depth gauge"),
            std::string::npos);
}

TEST(ObsCliTest, RunReportsFailedStream) {
  const auto r = parse_obs_args({"--duration=5", "--warmup=1"});
  ASSERT_TRUE(r.ok) << r.error;
  std::ostringstream os;
  os.setstate(std::ios::failbit);
  EXPECT_EQ(run_obs_command(r.config, os), 1);
}

TEST(IngestCliTest, DefaultsWithNoArgs) {
  const auto r = parse_ingest_args({});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.format, ObsFormat::kPrometheus);
  EXPECT_EQ(r.config.count, 1000u);
  EXPECT_EQ(r.config.stages, 2u);
  EXPECT_EQ(r.config.shards, 4u);
  EXPECT_FALSE(r.config.mmpp);
  EXPECT_TRUE(r.config.in_path.empty());
  EXPECT_TRUE(r.config.capture_path.empty());
}

TEST(IngestCliTest, ParsesEveryFlag) {
  const auto r = parse_ingest_args(
      {"--format=jsonl", "--out=/tmp/o.jsonl", "--in=/tmp/in.frap",
       "--capture=/tmp/cap.frap", "--count=77", "--stages=4", "--load=0.8",
       "--resolution=60", "--mean-compute=5", "--seed=9", "--shards=2",
       "--mmpp", "--ring=1024"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.config.format, ObsFormat::kJsonl);
  EXPECT_EQ(r.config.out_path, "/tmp/o.jsonl");
  EXPECT_EQ(r.config.in_path, "/tmp/in.frap");
  EXPECT_EQ(r.config.capture_path, "/tmp/cap.frap");
  EXPECT_EQ(r.config.count, 77u);
  EXPECT_EQ(r.config.stages, 4u);
  EXPECT_DOUBLE_EQ(r.config.load, 0.8);
  EXPECT_DOUBLE_EQ(r.config.resolution, 60.0);
  EXPECT_DOUBLE_EQ(r.config.mean_compute_ms, 5.0);
  EXPECT_EQ(r.config.seed, 9u);
  EXPECT_EQ(r.config.shards, 2u);
  EXPECT_TRUE(r.config.mmpp);
  EXPECT_EQ(r.config.ring_capacity, 1024u);
}

TEST(IngestCliTest, RejectsBadFlags) {
  EXPECT_FALSE(parse_ingest_args({"--format=xml"}).ok);
  EXPECT_FALSE(parse_ingest_args({"--count=0"}).ok);
  EXPECT_FALSE(parse_ingest_args({"--stages=abc"}).ok);
  EXPECT_FALSE(parse_ingest_args({"--shards=0"}).ok);
  EXPECT_FALSE(parse_ingest_args({"--mmpp=1"}).ok);  // flag takes no value
  EXPECT_FALSE(parse_ingest_args({"--frobnicate=1"}).ok);
  EXPECT_FALSE(parse_ingest_args({"notaflag"}).ok);
}

// Every shard keeps a weight of at least kMinWeight = 0.01, so 100 shards
// is the bound: 100 parses and runs, 101 is refused with an error naming
// the bound instead of aborting in the service's constructor.
TEST(IngestCliTest, ShardCountIsBoundedByTheWeightFloor) {
  const auto at_bound = parse_ingest_args({"--shards=100", "--count=10"});
  ASSERT_TRUE(at_bound.ok) << at_bound.error;
  EXPECT_EQ(at_bound.config.shards, 100u);
  std::ostringstream os;
  std::ostringstream err;
  EXPECT_EQ(run_ingest_command(at_bound.config, os, err), 0);
  EXPECT_TRUE(err.str().empty()) << err.str();

  const auto over = parse_ingest_args({"--shards=101", "--count=10"});
  EXPECT_FALSE(over.ok);
  EXPECT_NE(over.error.find("--shards=101"), std::string::npos) << over.error;
  EXPECT_NE(over.error.find("bound of 100"), std::string::npos) << over.error;
}

TEST(IngestCliTest, UsageMentionsEveryIngestFlag) {
  const auto usage = ingest_cli_usage();
  for (const char* flag :
       {"--count", "--stages", "--load", "--resolution", "--mean-compute",
        "--seed", "--mmpp", "--capture", "--in", "--shards", "--format",
        "--out", "--ring"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(IngestCliTest, RunIsDeterministicForFixedFlags) {
  const auto r = parse_ingest_args(
      {"--count=300", "--stages=3", "--load=0.9", "--seed=5",
       "--format=jsonl"});
  ASSERT_TRUE(r.ok) << r.error;
  std::ostringstream a;
  std::ostringstream na;
  ASSERT_EQ(run_ingest_command(r.config, a, na), 0);
  EXPECT_TRUE(na.str().empty());
  // Summary line + one JSONL object per decision.
  EXPECT_EQ(a.str().rfind("{\"frap_ingest\":{\"records\":300,", 0), 0u);
  std::ostringstream b;
  std::ostringstream nb;
  ASSERT_EQ(run_ingest_command(r.config, b, nb), 0);
  EXPECT_EQ(a.str(), b.str());
}

TEST(IngestCliTest, PrometheusOutputCarriesIngestSummary) {
  const auto r = parse_ingest_args({"--count=100", "--seed=3"});
  ASSERT_TRUE(r.ok) << r.error;
  std::ostringstream os;
  std::ostringstream err;
  ASSERT_EQ(run_ingest_command(r.config, os, err), 0);
  EXPECT_EQ(os.str().rfind("# frap_ingest records=100 ", 0), 0u);
  EXPECT_NE(os.str().find("frap_decisions_total"), std::string::npos);
}

TEST(IngestCliTest, CaptureThenInReplaysTheSameFrame) {
  const std::string path =
      ::testing::TempDir() + "/ingest_cli_capture.frap";
  auto gen = parse_ingest_args({"--count=200", "--stages=3", "--seed=11",
                                "--capture=" + path, "--format=jsonl"});
  ASSERT_TRUE(gen.ok) << gen.error;
  std::ostringstream a;
  std::ostringstream ea;
  ASSERT_EQ(run_ingest_command(gen.config, a, ea), 0);

  auto replay =
      parse_ingest_args({"--in=" + path, "--format=jsonl", "--stages=9",
                         "--seed=999"});  // workload flags must be ignored
  ASSERT_TRUE(replay.ok) << replay.error;
  std::ostringstream b;
  std::ostringstream eb;
  ASSERT_EQ(run_ingest_command(replay.config, b, eb), 0);
  EXPECT_EQ(a.str(), b.str());  // bit-identical decisions either way
}

TEST(IngestCliTest, MissingAndCorruptInputsAreTypedFailures) {
  auto missing = parse_ingest_args({"--in=/nonexistent/nope.frap"});
  ASSERT_TRUE(missing.ok);
  std::ostringstream os;
  std::ostringstream err;
  EXPECT_EQ(run_ingest_command(missing.config, os, err), 1);
  EXPECT_NE(err.str().find("could not read"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/ingest_cli_corrupt.frap";
  {
    std::ofstream out(path, std::ios::binary);
    // Length prefix 24 (one header's worth) followed by 24 garbage bytes:
    // read_frame succeeds, WireView::open rejects the magic.
    const char junk[] =
        "\x18\x00\x00\x00\x00\x00\x00\x00garbage.garbage.garbage.";
    out.write(junk, sizeof(junk) - 1);
  }
  auto corrupt = parse_ingest_args({"--in=" + path});
  ASSERT_TRUE(corrupt.ok);
  std::ostringstream os2;
  std::ostringstream err2;
  EXPECT_EQ(run_ingest_command(corrupt.config, os2, err2), 1);
  EXPECT_NE(err2.str().find("invalid frame: bad-magic"), std::string::npos);
}

}  // namespace
}  // namespace frap::pipeline
