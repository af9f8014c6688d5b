#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t g_process_start_ns = 0;

struct LayerMetricDecl {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in print order. Absent layers print 0.
constexpr LayerMetricDecl kLayerMetrics[] = {
    {"ingest.open_ns", "ns"},
    {"ingest.assemble_ns", "ns"},
    {"ingest.records", "count"},
    {"ingest.errors", "count"},
    {"core.test_ns", "ns"},
    {"core.commit_ns", "ns"},
    {"core.burst_ns", "ns"},
    {"core.admit_share", "ratio"},
    {"core.live_tasks", "count"},
    {"core.lhs_rebuilds", "1/Mdecision"},
    {"sim.advance_ns", "ns"},
    {"sim.events_per_arrival", "1/arrival"},
    {"sim.pending", "count"},
    {"dag.evaluate_ns", "ns"},
    {"dag.try_admit_ns", "ns"},
    {"dag.commit_ns", "ns"},
    {"dag.nodes", "count"},
    {"dag.intern_ns", "ns"},
    {"service.admit_ns.atomic", "ns"},
    {"service.admit_ns.mutex", "ns"},
    {"service.admit_ns.fallback", "ns"},
    {"service.share.atomic_admit", "ratio"},
    {"service.share.atomic_inconclusive", "ratio"},
    {"service.share.mutex_admit", "ratio"},
    {"service.share.mutex_reject", "ratio"},
    {"service.share.fallback_admit", "ratio"},
    {"service.share.fallback_reject", "ratio"},
    {"service.rebalances", "1/Mdecision"},
    {"service.weight_max", "ratio"},
    {"service.lane_spread", "ratio"},
    {"runtime.start_ns", "ns"},
    {"runtime.advance_ns", "ns"},
    {"runtime.events_per_task", "1/task"},
    {"runtime.response_over_deadline", "ratio"},
    {"runtime.stage_util", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.arrival_ns", "ns"},
};

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void mark_process_start() { g_process_start_ns = now_ns(); }

double seconds_since_start() {
  return static_cast<double>(now_ns() - g_process_start_ns) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double FrameSamples::quantile_us(double q) {
  if (ns_.empty()) return 0;
  const auto n = ns_.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(ns_.begin(), ns_.begin() + static_cast<std::ptrdiff_t>(rank),
                   ns_.end());
  return static_cast<double>(ns_[rank]) * 1e-3;
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const frap::core::AdmissionDecision& d) {
  add(static_cast<std::uint64_t>(d.admitted) |
      (static_cast<std::uint64_t>(d.reason) << 8));
  add(d.lhs_before);
  add(d.lhs_with_task);
}

std::string Digest::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kFrame: return "frame";
    case Layer::kOpen: return "open";
    case Layer::kAssemble: return "assemble";
    case Layer::kAdvance: return "advance";
    case Layer::kTest: return "test";
    case Layer::kTryAdmit: return "try_admit";
    case Layer::kEvaluate: return "evaluate";
    case Layer::kBurst: return "burst";
    case Layer::kStart: return "start_task";
    case Layer::kCount: break;
  }
  return "unknown";
}

void SpanBuffer::fold() {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end - spans_[i].start);
  }
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      self[s.parent] -= static_cast<double>(s.end - s.start);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto l = static_cast<std::size_t>(s.layer);
    const LayerTotals one{static_cast<double>(s.end - s.start), self[i], 1};
    totals_[l].add(one);
    tagged_[l * kTagKinds + std::min<std::uint16_t>(s.tag, kTagKinds - 1)]
        .add(one);
  }
  last_.assign(spans_.begin(), spans_.end());
  spans_.clear();
}

void SpanBuffer::merge_totals(const SpanBuffer& other) {
  for (std::size_t i = 0; i < std::size(totals_); ++i) {
    totals_[i].add(other.totals_[i]);
  }
  for (std::size_t i = 0; i < std::size(tagged_); ++i) {
    tagged_[i].add(other.tagged_[i]);
  }
}

bool SpanBuffer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\tarrival\ttag\n");
  const std::int64_t t0 = last_.empty() ? 0 : last_.front().start;
  for (std::size_t i = 0; i < last_.size(); ++i) {
    const Span& s = last_[i];
    std::fprintf(f, "%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%ld\t%" PRIu64 "\t%u\n",
                 i, layer_name(s.layer), s.start - t0, s.end - t0,
                 s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                 s.arrival, static_cast<unsigned>(s.tag));
  }
  return std::fclose(f) == 0;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      if (!unit.empty()) m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"digest\": ";
  append_json_string(out, digest);
  out += ", \"frame_samples\": " + std::to_string(frame_samples);
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_string(out, problems[i]);
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    append_json_string(out, metrics[i].name);
    out += ": {\"value\": " + number(metrics[i].value) + ", \"unit\": ";
    append_json_string(out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

void declare_layer_metrics(Report& r) {
  for (const auto& m : kLayerMetrics) r.set(m.name, 0.0, m.unit);
}

void expect_drained(Report& r, const char* what, std::size_t live,
                    double max_utilization) {
  // Contributions are removed exactly at expiry; what is left after the
  // drain is floating-point residue of adding and subtracting them.
  constexpr double kResidue = 1e-9;
  if (live != 0 || max_utilization > kResidue) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s not drained: %zu live tasks, max utilization %.3g",
                  what, live, max_utilization);
    r.fail(buf);
    ++r.failed;
  }
}

Report run_workload(const Options& opt) {
  if (opt.workload == "steady_churn") return run_steady_churn(opt);
  if (opt.workload == "sharded_skew") return run_sharded_skew(opt);
  if (opt.workload == "dag_long_path") return run_dag_long_path(opt);
  if (opt.workload == "pipeline_runtime") return run_pipeline_runtime(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

void add_end_to_end(Report& r, const Window& w, FrameSamples& frames,
                    double admitted_ratio, double setup_s) {
  r.frame_samples = frames.size();
  r.set("decisions_per_s",
        w.seconds > 0 ? static_cast<double>(w.decisions) / w.seconds : 0,
        "1/s");
  r.set("frame_p50_us", frames.quantile_us(0.50), "us");
  r.set("frame_p99_us", frames.quantile_us(0.99), "us");
  r.set("admitted_ratio", admitted_ratio, "ratio");
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");
}

double mean_ns(const LayerTotals& t) {
  return t.count == 0 ? 0.0 : t.dur_ns / static_cast<double>(t.count);
}

void add_trace_summary(Report& r, const SpanBuffer& spans,
                       double traced_decisions_per_s,
                       double untraced_decisions_per_s) {
  const LayerTotals& frame = spans.total(Layer::kFrame);
  double explained = 0;
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    if (static_cast<Layer>(l) == Layer::kFrame) continue;
    explained += spans.total(static_cast<Layer>(l)).self_ns;
  }
  const double coverage = frame.dur_ns > 0 ? explained / frame.dur_ns : 0;
  r.set("trace.coverage", coverage);
  // The layers must explain the traced frame time within the benchmark's
  // widest bound (BENCHMARK.json); the rest is harness and clock reads.
  constexpr double kCoverageBound = 0.25;
  if (coverage < 1.0 - kCoverageBound) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "layers explain only %.3f of the traced frame time",
                  coverage);
    r.fail(buf);
  }
  r.set("trace.overhead",
        traced_decisions_per_s > 0
            ? untraced_decisions_per_s / traced_decisions_per_s - 1.0
            : 0.0);
  r.set("trace.arrival_ns",
        traced_decisions_per_s > 0 ? 1e9 / traced_decisions_per_s : 0.0);
}

}  // namespace perfbench
