// steady_churn: the steady admit -> commit -> expire cycle, fed from the
// wire. One thread replays pre-encoded FRAP v1 frames (wire_stream.h)
// through IngestSession::replay into one AdmissionController. The offered
// load keeps ~10k tasks live and admits nearly every arrival (~99%).
#include <algorithm>
#include <cstdio>

#include "core/admission.h"
#include "core/feasible_region.h"
#include "core/synthetic_utilization.h"
#include "harness.h"
#include "ingest/ingest_session.h"
#include "ingest/wire_decoder.h"
#include "sim/simulator.h"
#include "wire_stream.h"

namespace perfbench {

using namespace frap;

namespace {

constexpr std::size_t kWarmupFrames = 800;    // ~1 s simulated: 2.5 deadlines
constexpr std::size_t kDigestFrames = 2048;   // fixed prefix that is digested
constexpr std::size_t kSpansPerFrame = 2 + 4 * kWireRecords;

// One controller fed by one session; built fresh for every phase so the
// traced and untraced phases start from the same state.
struct Churn {
  explicit Churn(const WireStream& s)
      : stream(s),
        tracker(sim, kWireStages),
        ctl(sim, tracker, core::FeasibleRegion::deadline_monotonic(kWireStages)),
        session(kWireStages, s.classes()) {
    decisions.reserve(kWireRecords);
  }

  // Decides stream frame `next` as one IngestSession::replay call.
  std::uint64_t frame(bool digest) {
    const std::uint64_t g = next++;
    ingest::WireParse parse;
    const auto view = ingest::WireView::open(stream.frame(g), &parse);
    if (!view.valid()) {
      ++errors;
      return 0;
    }
    decisions.clear();
    const auto st = session.replay(view, ctl, sim,
                                   digest ? &decisions : nullptr,
                                   stream.rebase(g));
    if (!st.ok()) ++errors;
    admitted += st.admitted;
    decided += st.records;
    for (const auto& d : decisions) prefix.add(d);
    return st.records;
  }

  // The same decisions through the decomposed public calls, each in a span.
  std::uint64_t traced_frame(SpanBuffer& spans, bool digest) {
    const std::uint64_t g = next++;
    const std::uint32_t f = spans.open(Layer::kFrame);
    const std::uint32_t o = spans.open(Layer::kOpen, f);
    ingest::WireParse parse;
    const auto view = ingest::WireView::open(stream.frame(g), &parse);
    const bool ok = view.valid() && session.check(view).ok();
    spans.close(o);
    if (!ok) {
      ++errors;
      spans.close(f);
      return 0;
    }
    const Duration shift = stream.rebase(g) - view.base_time();
    std::uint64_t n = 0;
    ingest::WireArrival a;
    for (auto cur = view.cursor(); cur.next(a);) {
      const Time t = a.arrival() + shift;
      std::uint32_t s = spans.open(Layer::kAssemble, f, a.id());
      const core::TaskSpec& spec = session.assemble(a);
      spans.close(s);
      s = spans.open(Layer::kAdvance, f, a.id());
      sim.run_until(t);
      spans.close(s);
      const std::uint32_t test_span = spans.open(Layer::kTest, f, a.id());
      const bool fits = ctl.test(spec);
      spans.close(test_span);
      s = spans.open(Layer::kTryAdmit, f, a.id());
      const core::AdmissionDecision d = ctl.try_admit(spec, t);
      spans.close(s, d.admitted ? 1 : 0);
      spans.set_tag(test_span, d.admitted ? 1 : 0);
      if (fits != d.admitted) ++mismatches;
      if (digest) prefix.add(d);
      admitted += d.admitted ? 1 : 0;
      ++n;
    }
    decided += n;
    spans.close(f);
    return n;
  }

  void warm_up() {
    for (std::size_t i = 0; i < kWarmupFrames; ++i) frame(false);
    admitted = decided = 0;
  }

  // Advances past every deadline; everything must have expired.
  void drain(Report& r, const char* what) {
    sim.run_until(stream.rebase(next) + kWireDeadlineMax + 1.0);
    double u_max = 0;
    for (std::size_t j = 0; j < tracker.num_stages(); ++j) {
      u_max = std::max(u_max, tracker.utilization(j));
    }
    expect_drained(r, what, tracker.live_tasks(), u_max);
  }

  const WireStream& stream;
  sim::Simulator sim;
  core::SyntheticUtilizationTracker tracker;
  core::AdmissionController ctl;
  ingest::IngestSession session;
  std::vector<core::AdmissionDecision> decisions;
  std::uint64_t next = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t admitted = 0;
  std::uint64_t decided = 0;
  Digest prefix;
};

}  // namespace

Report run_steady_churn(const Options& opt) {
  Report r;
  const WireStream stream(WireStreamConfig{}, opt.seed);

  if (!opt.trace) {
    Churn c(stream);
    c.warm_up();
    FrameSamples frames(static_cast<std::size_t>(opt.seconds * 400000) + 1024);
    std::uint64_t p_admitted = 0;
    std::uint64_t p_decided = 0;
    const double setup_s = seconds_since_start();
    const LoopResult loop = closed_loop(
        opt.seconds, kDigestFrames, &frames, [&](std::size_t i) {
          const std::uint64_t n = c.frame(i < kDigestFrames);
          if (i + 1 == kDigestFrames) {
            p_admitted = c.admitted;
            p_decided = c.decided;
          }
          return n;
        });
    r.attempted = loop.decisions;
    r.digest = c.prefix.hex();
    c.drain(r, "tracker");
    r.failed += c.errors;
    if (c.errors > 0) r.fail("frames failed to decode or check");
    add_end_to_end(r, loop.window, frames,
                   static_cast<double>(p_admitted) /
                       static_cast<double>(p_decided),
                   setup_s);
    return r;
  }

  declare_layer_metrics(r);
  std::string untraced_digest;
  double untraced_dps = 0;
  {
    Churn c(stream);
    c.warm_up();
    const LoopResult loop = closed_loop(
        opt.seconds / 2, kDigestFrames, nullptr,
        [&](std::size_t i) { return c.frame(i < kDigestFrames); });
    untraced_dps = static_cast<double>(loop.window.decisions) /
                   loop.window.seconds;
    untraced_digest = c.prefix.hex();
    r.attempted += loop.decisions;
    r.failed += c.errors;
    c.drain(r, "tracker (untraced phase)");
  }

  Churn c(stream);
  c.warm_up();
  SpanBuffer spans(std::size_t{1} << 18);
  const std::uint64_t events0 = c.sim.events_executed();
  const std::uint64_t rebuilds0 = c.tracker.lhs_cache_stats().rebuilds;
  const LoopResult loop = closed_loop(
      opt.seconds / 2, kDigestFrames, nullptr,
      [&](std::size_t i) { return c.traced_frame(spans, i < kDigestFrames); },
      [&] {
        if (!spans.has_room(kSpansPerFrame)) spans.fold();
      });
  spans.fold();
  const auto decided = static_cast<double>(c.decided);
  r.attempted += loop.decisions;
  r.digest = c.prefix.hex();
  r.failed += c.errors + c.mismatches;
  if (c.errors > 0) r.fail("frames failed to decode or check");
  if (c.mismatches > 0) r.fail("test() and try_admit() disagreed");
  if (r.digest != untraced_digest) {
    r.fail("traced decisions differ from untraced: " + r.digest + " vs " +
           untraced_digest);
    ++r.failed;
  }

  r.set("ingest.open_ns", mean_ns(spans.total(Layer::kOpen)));
  r.set("ingest.assemble_ns", mean_ns(spans.total(Layer::kAssemble)));
  r.set("ingest.records", decided);
  r.set("ingest.errors", static_cast<double>(c.errors));
  r.set("core.test_ns", mean_ns(spans.total(Layer::kTest)));
  r.set("core.commit_ns", mean_ns(spans.total(Layer::kTryAdmit, 1)) -
                              mean_ns(spans.total(Layer::kTest, 1)));
  r.set("core.admit_share", static_cast<double>(c.admitted) / decided);
  r.set("core.live_tasks", static_cast<double>(c.tracker.live_tasks()));
  r.set("core.lhs_rebuilds",
        static_cast<double>(c.tracker.lhs_cache_stats().rebuilds - rebuilds0) *
            1e6 / decided);
  r.set("sim.advance_ns", mean_ns(spans.total(Layer::kAdvance)));
  r.set("sim.events_per_arrival",
        static_cast<double>(c.sim.events_executed() - events0) / decided);
  r.set("sim.pending", static_cast<double>(c.sim.pending_events()));
  add_trace_summary(r, spans,
                    static_cast<double>(loop.window.decisions) /
                        loop.window.seconds,
                    untraced_dps);
  if (!opt.span_out.empty() && !spans.write(opt.span_out)) {
    std::fprintf(stderr, "could not write spans to %s\n", opt.span_out.c_str());
  }
  c.drain(r, "tracker");
  return r;
}

}  // namespace perfbench
