#include "obs/prometheus.h"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace frap::obs {

namespace {

std::string shard_label(std::uint16_t shard) {
  if (shard == kServiceShard) return "service";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u", static_cast<unsigned>(shard));
  return buf;
}

std::string u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// `labels` is a pre-rendered label body like `shard="0"` (may be empty).
void sample(std::ostream& os, const char* name, const std::string& labels,
            const std::string& value) {
  os << name;
  if (!labels.empty()) os << '{' << labels << '}';
  os << ' ' << value << '\n';
}

void header(std::ostream& os, const char* name, const char* type,
            const char* help) {
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
}

// Emits a full Prometheus histogram family member: cumulative buckets with
// le="+Inf", then _sum (finite-sample sum) and _count.
void histogram_samples(std::ostream& os, const std::string& name,
                       const std::string& labels,
                       const metrics::Histogram& h) {
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    cum += h.bucket(i);
    std::string le_labels = labels.empty() ? "" : labels + ",";
    le_labels += "le=\"" + format_sample_value(h.bucket_hi(i)) + "\"";
    sample(os, (name + "_bucket").c_str(), le_labels, u64(cum));
  }
  std::string inf_labels = labels.empty() ? "" : labels + ",";
  inf_labels += "le=\"+Inf\"";
  sample(os, (name + "_bucket").c_str(), inf_labels, u64(h.total()));
  sample(os, (name + "_sum").c_str(), labels, format_sample_value(h.sum()));
  sample(os, (name + "_count").c_str(), labels, u64(h.total()));
}

}  // namespace

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string format_sample_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void render_prometheus(const MetricsSnapshot& snap, std::ostream& os) {
  header(os, "frap_decisions_total", "counter",
         "Admission decisions by shard and reason");
  for (const SinkSnapshot& s : snap.sinks) {
    const std::string sh = shard_label(s.shard);
    for (std::size_t r = 0; r < kReasonCount; ++r) {
      if (s.decisions_by_reason[r] == 0) continue;
      const auto reason = static_cast<core::AdmissionDecision::Reason>(r);
      sample(os, "frap_decisions_total",
             "shard=\"" + sh + "\",reason=\"" +
                 escape_label_value(core::to_string(reason)) + "\"",
             u64(s.decisions_by_reason[r]));
    }
  }

  header(os, "frap_span_events_total", "counter",
         "Service-level span events (fallback)");
  for (const SinkSnapshot& s : snap.sinks) {
    sample(os, "frap_span_events_total",
           "shard=\"" + shard_label(s.shard) + "\"", u64(s.span_events));
  }

  header(os, "frap_trace_pushed_total", "counter",
         "Events offered to the trace ring");
  for (const SinkSnapshot& s : snap.sinks) {
    sample(os, "frap_trace_pushed_total",
           "shard=\"" + shard_label(s.shard) + "\"", u64(s.pushed));
  }
  header(os, "frap_trace_dropped_total", "counter",
         "Events dropped because the claimed slot was mid-write");
  for (const SinkSnapshot& s : snap.sinks) {
    sample(os, "frap_trace_dropped_total",
           "shard=\"" + shard_label(s.shard) + "\"", u64(s.dropped));
  }
  header(os, "frap_trace_overwritten_total", "counter",
         "Published events destroyed by ring wrap-around");
  for (const SinkSnapshot& s : snap.sinks) {
    sample(os, "frap_trace_overwritten_total",
           "shard=\"" + shard_label(s.shard) + "\"", u64(s.overwritten));
  }

  header(os, "frap_decision_latency_nanos", "histogram",
         "Sampled wall-clock decision latency in nanoseconds");
  for (const SinkSnapshot& s : snap.sinks) {
    histogram_samples(os, "frap_decision_latency_nanos",
                      "shard=\"" + shard_label(s.shard) + "\"",
                      s.latency_nanos);
  }

  header(os, "frap_lhs_headroom", "histogram",
         "Region bound minus post-decision LHS");
  for (const SinkSnapshot& s : snap.sinks) {
    histogram_samples(os, "frap_lhs_headroom",
                      "shard=\"" + shard_label(s.shard) + "\"", s.headroom);
  }

  header(os, "frap_histogram_nan_rejected_total", "counter",
         "NaN samples rejected by metric histograms");
  for (const SinkSnapshot& s : snap.sinks) {
    const std::string sh = shard_label(s.shard);
    sample(os, "frap_histogram_nan_rejected_total",
           "shard=\"" + sh + "\",metric=\"decision_latency_nanos\"",
           u64(s.latency_nanos.nan_rejected()));
    sample(os, "frap_histogram_nan_rejected_total",
           "shard=\"" + sh + "\",metric=\"lhs_headroom\"",
           u64(s.headroom.nan_rejected()));
  }

  if (snap.stages.empty()) return;

  header(os, "frap_stage_enqueued_total", "counter",
         "Tasks that entered the stage queue");
  for (const StageSnapshot& st : snap.stages) {
    sample(os, "frap_stage_enqueued_total",
           "stage=\"" + u64(st.stage) + "\"", u64(st.enqueued));
  }
  header(os, "frap_stage_departed_total", "counter",
         "Tasks that completed the stage");
  for (const StageSnapshot& st : snap.stages) {
    sample(os, "frap_stage_departed_total",
           "stage=\"" + u64(st.stage) + "\"", u64(st.departed));
  }
  header(os, "frap_stage_queue_depth", "gauge",
         "Tasks currently queued or in service at the stage");
  for (const StageSnapshot& st : snap.stages) {
    sample(os, "frap_stage_queue_depth", "stage=\"" + u64(st.stage) + "\"",
           u64(st.queue_depth));
  }
  header(os, "frap_stage_peak_queue_depth", "gauge",
         "Peak concurrent tasks observed at the stage");
  for (const StageSnapshot& st : snap.stages) {
    sample(os, "frap_stage_peak_queue_depth",
           "stage=\"" + u64(st.stage) + "\"", u64(st.peak_depth));
  }
  header(os, "frap_stage_sojourn_seconds", "histogram",
         "Simulated stage sojourn time (enqueue to departure)");
  for (const StageSnapshot& st : snap.stages) {
    histogram_samples(os, "frap_stage_sojourn_seconds",
                      "stage=\"" + u64(st.stage) + "\"", st.sojourn);
  }
}

namespace {

// JSON has no Inf/NaN literal; non-finite doubles become quoted strings.
std::string json_double(double v) {
  if (std::isfinite(v)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  return "\"" + format_sample_value(v) + "\"";
}

}  // namespace

void render_jsonl(const std::vector<DecisionEvent>& events,
                  std::ostream& os) {
  for (const DecisionEvent& ev : events) {
    os << "{\"ticket\":" << u64(ev.ticket)                       //
       << ",\"kind\":\"" << to_string(ev.kind) << '"'            //
       << ",\"shard\":" << u64(ev.shard)                         //
       << ",\"task_id\":" << u64(ev.task_id)                     //
       << ",\"arrival\":" << json_double(ev.arrival)             //
       << ",\"decided_at\":" << json_double(ev.decided_at)       //
       << ",\"admitted\":" << (ev.admitted ? "true" : "false")   //
       << ",\"reason\":\"" << core::to_string(ev.reason) << '"'  //
       << ",\"lhs_before\":" << json_double(ev.lhs_before)       //
       << ",\"lhs_with_task\":" << json_double(ev.lhs_with_task)  //
       << ",\"bound\":" << json_double(ev.bound)                 //
       << ",\"touched\":" << u64(ev.touched)                     //
       << ",\"latency_nanos\":" << u64(ev.latency_nanos) << "}\n";
  }
}

}  // namespace frap::obs
