// Shared machinery of the end-to-end benchmark: options, wall clock, frame
// samples, decision digests, the span buffer of the traced run and the
// one-line JSON report every workload prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/admission_decision.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 2.0;   // length of the timed window
  bool trace = false;     // traced run: per-layer metrics instead
  std::string span_out;   // where the traced run writes its spans
};

// Nanoseconds on the monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process start as seen by the benchmark: set first thing in main().
void mark_process_start();
double seconds_since_start();

// Peak resident set of this process so far, MiB.
double peak_rss_mib();

// Wall time of every timed frame, preallocated so the timed window does
// not allocate.
class FrameSamples {
 public:
  explicit FrameSamples(std::size_t capacity) { ns_.reserve(capacity); }
  [[nodiscard]] bool full() const { return ns_.size() == ns_.capacity(); }
  void add(std::int64_t ns) { ns_.push_back(ns); }
  [[nodiscard]] std::size_t size() const { return ns_.size(); }
  void append(const FrameSamples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }
  // Nearest-rank quantile in microseconds; sorts in place.
  double quantile_us(double q);

 private:
  std::vector<std::int64_t> ns_;
};

// Order-sensitive hash of decisions: verdict, reason and the exact bits of
// both region values. Two runs agree only if every decision agrees.
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    h_ *= 0xff51afd7ed558ccdULL;
  }
  void add(double v);
  void add(const frap::core::AdmissionDecision& d);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Layers a span can belong to. Names are the per-layer metric stems.
enum class Layer : std::uint16_t {
  kFrame,      // one frame handed to frap (parent of the rest)
  kOpen,       // WireView::open
  kAssemble,   // IngestSession::assemble
  kAdvance,    // Simulator::run_until to the next arrival
  kTest,       // AdmissionController::test
  kTryAdmit,   // Admitter::try_admit (controller, graph or service)
  kEvaluate,   // LongPathEvaluator::evaluate
  kBurst,      // BatchAdmissionController::try_admit_burst
  kStart,      // PipelineRuntime::start_task
  kCount
};
const char* layer_name(Layer l);

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t arrival = 0;  // arrival (task) id, 0 for frame-level spans
  std::uint32_t parent = 0;   // index of the parent span, kNoParent if none
  Layer layer = Layer::kFrame;
  std::uint16_t tag = 0;      // layer-specific: admitted flag, reason, count
};

// Per-layer totals folded out of span buffers.
struct LayerTotals {
  double dur_ns = 0;   // sum of span durations
  double self_ns = 0;  // durations minus the child spans they cover
  std::uint64_t count = 0;

  void add(const LayerTotals& o) {
    dur_ns += o.dur_ns;
    self_ns += o.self_ns;
    count += o.count;
  }
};

class SpanBuffer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::uint16_t kTagKinds = 16;

  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  // Room for `n` more spans?
  [[nodiscard]] bool has_room(std::size_t n) const {
    return spans_.size() + n <= spans_.capacity();
  }
  std::uint32_t open(Layer layer, std::uint32_t parent = kNoParent,
                     std::uint64_t arrival = 0) {
    spans_.push_back(Span{now_ns(), 0, arrival, parent, layer, 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t i, std::uint16_t tag = 0) {
    spans_[i].end = now_ns();
    spans_[i].tag = tag;
  }
  void set_tag(std::uint32_t i, std::uint16_t tag) { spans_[i].tag = tag; }

  // Adds this buffer's spans into the totals (per layer, and per layer and
  // tag) and empties it, keeping the capacity. The last batch is kept in
  // `last_` so it can be written out at exit.
  void fold();
  [[nodiscard]] const LayerTotals& total(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const LayerTotals& total(Layer l, std::uint16_t tag) const {
    return tagged_[static_cast<std::size_t>(l) * kTagKinds + tag];
  }
  void merge_totals(const SpanBuffer& other);

  // Writes the most recently folded spans as tab-separated text.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<Span> last_;
  LayerTotals totals_[static_cast<std::size_t>(Layer::kCount)];
  LayerTotals tagged_[static_cast<std::size_t>(Layer::kCount) * kTagKinds];
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run prints. `metrics` is in print order.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;            // decision digest of the fixed prefix
  std::uint64_t frame_samples = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false

  // Sets a metric declared by declare_layer_metrics() or adds a new one.
  void set(const std::string& name, double value,
           const std::string& unit = "");
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  // The JSON object printed as the last line of output.
  [[nodiscard]] std::string json() const;
};

// Adds every per-layer metric at 0 in its fixed order, so a traced run
// prints all of them; a workload fills in the layers it exercises.
void declare_layer_metrics(Report& r);

// Checks shared by every workload's drain step.
void expect_drained(Report& r, const char* what, std::size_t live,
                    double max_utilization);

// Runs the named workload. Unknown names throw std::invalid_argument.
Report run_workload(const Options& opt);

Report run_steady_churn(const Options& opt);
Report run_sharded_skew(const Options& opt);
Report run_dag_long_path(const Options& opt);
Report run_pipeline_runtime(const Options& opt);

// End-to-end metrics common to every untraced run.
struct Window {
  std::uint64_t decisions = 0;  // arrivals decided in the timed window
  double seconds = 0;           // wall length of the timed window
};
void add_end_to_end(Report& r, const Window& w, FrameSamples& frames,
                    double admitted_ratio, double setup_s);

// The traced run's shared metrics: overhead against an untraced segment of
// the same run and how much of the traced frame time the layers explain.
void add_trace_summary(Report& r, const SpanBuffer& spans,
                       double traced_decisions_per_s,
                       double untraced_decisions_per_s);

// Mean of a layer's spans (total duration / count), ns; 0 when absent.
double mean_ns(const LayerTotals& t);

struct NoPause {
  void operator()() const {}
};

struct LoopResult {
  Window window;              // the timed part
  std::size_t frames = 0;     // frames run, timed or not
  std::uint64_t decisions = 0;  // decisions of all frames run
};

// Closed loop: hands frame i to `frame` (which returns the decisions it
// made) as soon as frame i-1 returned, until `seconds` of wall time have
// passed. Frames up to `min_frames` then run untimed, so a fixed prefix of
// the stream is always decided. `pause` runs before every frame and its
// time is left out of the window (the traced run folds spans there).
template <class Frame, class Pause = NoPause>
LoopResult closed_loop(double seconds, std::size_t min_frames,
                       FrameSamples* samples, Frame&& frame,
                       Pause&& pause = Pause{}) {
  LoopResult r;
  const std::int64_t t0 = now_ns();
  const auto stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t paused = 0;
  std::int64_t f1 = t0;
  while (true) {
    if constexpr (!std::is_same_v<std::decay_t<Pause>, NoPause>) {
      const std::int64_t p0 = now_ns();
      pause();
      paused += now_ns() - p0;
    }
    const std::int64_t f0 = now_ns();
    const std::uint64_t d = frame(r.frames);
    f1 = now_ns();
    if (samples != nullptr && !samples->full()) samples->add(f1 - f0);
    r.window.decisions += d;
    ++r.frames;
    if (f1 >= stop + paused) break;
  }
  r.window.seconds = static_cast<double>(f1 - t0 - paused) * 1e-9;
  r.decisions = r.window.decisions;
  while (r.frames < min_frames) {
    pause();
    r.decisions += frame(r.frames);
    ++r.frames;
  }
  return r;
}

}  // namespace perfbench
