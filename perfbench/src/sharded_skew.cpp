// sharded_skew: a ShardedAdmissionService with four shards at its default
// configuration (atomic fast path, global fallback, quota stealing and
// periodic rebalance all on). Each lane (one, see kLanes) decodes its own
// pre-encoded frames and calls IngestSession::admit. Task ids send half of
// all arrivals to shard 0; the aggregate offered load is about the region's
// capacity, so the home shard of the hot half runs out of quota and the
// fallback and rebalance paths do real work.
//
// Lanes take frame slots from one shared counter; slot g is presented at
// simulated time g x span, so every shard sees one coherent stream whatever
// the lanes' relative speed. The service, the sessions and the frames are
// all built before any lane starts, and one barrier releases the lanes.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/admission_decision.h"
#include "core/feasible_region.h"
#include "harness.h"
#include "ingest/ingest_session.h"
#include "ingest/wire_decoder.h"
#include "service/sharded_admission.h"
#include "wire_stream.h"

namespace perfbench {

using namespace frap;
using Reason = core::AdmissionDecision::Reason;

namespace {

// One lane. With two lanes on this four-vCPU guest, a lane that blocks on a
// contended lock idles its vCPU, the hypervisor lends the core away, and
// the wake-up waits for it: frame_p99_us then followed the host's steal
// time (20-25% spread between runs, 44% with three lanes and 53% with
// four), while decisions_per_s was no higher than with one lane, because
// the global fallback lock serializes the lanes (README.md, Steadiness).
// The lane machinery below is kept for more lanes on a host where they pay.
constexpr std::size_t kLanes = 1;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWarmupSlots = 800;  // ~1 s simulated
constexpr std::size_t kSpansPerFrame = 2 + 2 * kWireRecords;

// The lanes share one stream of slots, so together they offer the load of
// one wire stream: about the region's capacity.
WireStreamConfig lane_config(std::size_t lane) {
  return WireStreamConfig{.route_shards = kShards,
                          .id_base = static_cast<std::uint64_t>(lane) << 40};
}

struct Lane {
  Lane(std::size_t index, std::uint64_t seed, std::size_t sample_capacity,
       std::size_t span_capacity)
      : stream(lane_config(index), seed * kLanes + index),
        session(kWireStages, stream.classes()),
        samples(sample_capacity),
        spans(span_capacity) {}

  WireStream stream;
  ingest::IngestSession session;
  FrameSamples samples;
  SpanBuffer spans;
  std::uint64_t local = 0;  // next pool frame of this lane
  std::uint64_t decided = 0;
  std::uint64_t admitted = 0;
  std::uint64_t errors = 0;
  std::int64_t end_ns = 0;
  std::int64_t paused_ns = 0;
};

// Everything one phase needs, built before any lane runs.
struct Skew {
  explicit Skew(const std::vector<std::unique_ptr<Lane>>& l)
      : lanes(l),
        svc(core::FeasibleRegion::deadline_monotonic(kWireStages),
            service::ShardedAdmissionConfig{.num_shards = kShards}) {}

  std::uint64_t frame(Lane& lane, std::uint64_t slot) {
    ingest::WireParse parse;
    const auto view =
        ingest::WireView::open(lane.stream.frame(lane.local++), &parse);
    if (!view.valid()) {
      ++lane.errors;
      return 0;
    }
    const auto st =
        lane.session.admit(view, svc, nullptr, lane.stream.rebase(slot));
    if (!st.ok()) ++lane.errors;
    lane.decided += st.records;
    lane.admitted += st.admitted;
    return st.records;
  }

  std::uint64_t traced_frame(Lane& lane, std::uint64_t slot) {
    SpanBuffer& spans = lane.spans;
    const std::uint32_t f = spans.open(Layer::kFrame);
    const std::uint32_t o = spans.open(Layer::kOpen, f);
    ingest::WireParse parse;
    const auto view =
        ingest::WireView::open(lane.stream.frame(lane.local++), &parse);
    const bool ok = view.valid() && lane.session.check(view).ok();
    spans.close(o);
    if (!ok) {
      ++lane.errors;
      spans.close(f);
      return 0;
    }
    const Duration shift = lane.stream.rebase(slot) - view.base_time();
    std::uint64_t n = 0;
    ingest::WireArrival a;
    for (auto cur = view.cursor(); cur.next(a);) {
      std::uint32_t s = spans.open(Layer::kAssemble, f, a.id());
      const core::TaskSpec& spec = lane.session.assemble(a);
      spans.close(s);
      s = spans.open(Layer::kTryAdmit, f, a.id());
      const core::AdmissionDecision d = svc.try_admit(spec, a.arrival() + shift);
      spans.close(s, static_cast<std::uint16_t>(d.reason));
      lane.admitted += d.admitted ? 1 : 0;
      ++n;
    }
    lane.decided += n;
    spans.close(f);
    return n;
  }

  // Single-threaded warm-up to the steady live set, lanes' frames in turn.
  void warm_up() {
    for (std::size_t g = 0; g < kWarmupSlots; ++g) {
      frame(*lanes[g % kLanes], next_slot++);
    }
    for (const auto& l : lanes) l->decided = l->admitted = 0;
  }

  // Runs every lane for `seconds`; lane 0 is the calling thread and keeps
  // the time. Returns the window's wall length.
  double run(double seconds, bool traced) {
    std::barrier start(static_cast<std::ptrdiff_t>(kLanes));
    std::atomic<bool> stop{false};
    std::int64_t t0 = 0;
    const auto lane_main = [&](Lane& lane, bool timer) {
      start.arrive_and_wait();
      const std::int64_t begin = now_ns();
      if (timer) t0 = begin;
      const auto stop_at = begin + static_cast<std::int64_t>(seconds * 1e9);
      // Relaxed is enough: the flag only ends the loop, and join() orders
      // everything the lanes wrote before the main thread reads it.
      while (!stop.load(std::memory_order_relaxed)) {
        if (traced && !lane.spans.has_room(kSpansPerFrame)) {
          const std::int64_t p0 = now_ns();
          lane.spans.fold();
          lane.paused_ns += now_ns() - p0;
        }
        const std::uint64_t slot =
            next_slot.fetch_add(1, std::memory_order_relaxed);
        const std::int64_t f0 = now_ns();
        if (traced) {
          traced_frame(lane, slot);
        } else {
          frame(lane, slot);
        }
        const std::int64_t f1 = now_ns();
        if (!traced && !lane.samples.full()) lane.samples.add(f1 - f0);
        if (timer && f1 >= stop_at + lane.paused_ns) {
          stop.store(true, std::memory_order_relaxed);
        }
      }
      lane.end_ns = now_ns();
    };
    std::vector<std::thread> workers;
    workers.reserve(kLanes - 1);
    for (std::size_t i = 1; i < kLanes; ++i) {
      workers.emplace_back(lane_main, std::ref(*lanes[i]), false);
    }
    lane_main(*lanes[0], true);
    for (auto& w : workers) w.join();
    std::int64_t end = 0;
    std::int64_t paused = 0;
    for (const auto& l : lanes) {
      end = std::max(end, l->end_ns);
      paused += l->paused_ns;
    }
    return static_cast<double>(end - t0 - paused / kLanes) * 1e-9;
  }

  void drain(Report& r, const char* what) {
    const Time end =
        lanes.front()->stream.rebase(next_slot) + kWireDeadlineMax + 1.0;
    const auto u = svc.global_utilizations(end);
    const service::ServiceStats s = svc.stats();
    std::size_t live = 0;
    for (const auto& sh : s.shards) live += sh.live_tasks;
    expect_drained(r, what, live, *std::max_element(u.begin(), u.end()));
  }

  std::uint64_t decided() const {
    std::uint64_t n = 0;
    for (const auto& l : lanes) n += l->decided;
    return n;
  }
  std::uint64_t admitted() const {
    std::uint64_t n = 0;
    for (const auto& l : lanes) n += l->admitted;
    return n;
  }
  std::uint64_t errors() const {
    std::uint64_t n = 0;
    for (const auto& l : lanes) n += l->errors;
    return n;
  }

  const std::vector<std::unique_ptr<Lane>>& lanes;
  service::ShardedAdmissionService svc;
  std::atomic<std::uint64_t> next_slot{0};
};

std::vector<std::unique_ptr<Lane>> make_lanes(const Options& opt) {
  const std::size_t samples =
      opt.trace ? 0 : static_cast<std::size_t>(opt.seconds * 100000) + 1024;
  const std::size_t spans = opt.trace ? std::size_t{1} << 16 : 0;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (std::size_t i = 0; i < kLanes; ++i) {
    lanes.push_back(std::make_unique<Lane>(i, opt.seed, samples, spans));
  }
  return lanes;
}

void reset_lanes(const std::vector<std::unique_ptr<Lane>>& lanes) {
  for (const auto& l : lanes) {
    l->local = l->decided = l->admitted = l->errors = 0;
    l->end_ns = l->paused_ns = 0;
  }
}

LayerTotals sum_tags(const SpanBuffer& spans,
                     std::initializer_list<Reason> reasons) {
  LayerTotals t;
  for (const Reason r : reasons) {
    t.add(spans.total(Layer::kTryAdmit, static_cast<std::uint16_t>(r)));
  }
  return t;
}

}  // namespace

Report run_sharded_skew(const Options& opt) {
  Report r;
  const auto lanes = make_lanes(opt);

  if (!opt.trace) {
    Skew skew(lanes);
    skew.warm_up();
    const double setup_s = seconds_since_start();
    Window w;
    w.seconds = skew.run(opt.seconds, false);
    w.decisions = skew.decided();
    r.attempted = w.decisions;
    r.failed = skew.errors();
    if (r.failed > 0) r.fail("frames failed to decode or check");
    skew.drain(r, "service");
    FrameSamples frames(0);
    for (const auto& l : lanes) frames.append(l->samples);
    add_end_to_end(r, w, frames,
                   static_cast<double>(skew.admitted()) /
                       static_cast<double>(w.decisions),
                   setup_s);
    return r;
  }

  declare_layer_metrics(r);
  double untraced_dps = 0;
  {
    Skew skew(lanes);
    skew.warm_up();
    const double s = skew.run(opt.seconds / 2, false);
    untraced_dps = static_cast<double>(skew.decided()) / s;
    r.attempted += skew.decided();
    r.failed += skew.errors();
    skew.drain(r, "service (untraced phase)");
  }

  reset_lanes(lanes);
  Skew skew(lanes);
  skew.warm_up();
  const service::ServiceStats before = skew.svc.stats();
  const double s = skew.run(opt.seconds / 2, true);
  const service::ServiceStats after = skew.svc.stats();
  SpanBuffer spans(0);
  std::uint64_t lane_min = ~std::uint64_t{0};
  std::uint64_t lane_max = 0;
  for (const auto& l : lanes) {
    l->spans.fold();
    spans.merge_totals(l->spans);
    lane_min = std::min(lane_min, l->decided);
    lane_max = std::max(lane_max, l->decided);
  }
  const std::uint64_t decided = skew.decided();
  const auto n = static_cast<double>(decided);
  r.attempted += decided;
  r.failed += skew.errors();
  if (r.failed > 0) r.fail("frames failed to decode or check");

  r.set("ingest.open_ns", mean_ns(spans.total(Layer::kOpen)));
  r.set("ingest.assemble_ns", mean_ns(spans.total(Layer::kAssemble)));
  r.set("ingest.records", n);
  r.set("ingest.errors", static_cast<double>(skew.errors()));
  r.set("core.admit_share", static_cast<double>(skew.admitted()) / n);
  std::size_t live = 0;
  double weight_max = 0;
  for (const auto& sh : after.shards) {
    live += sh.live_tasks;
    weight_max = std::max(weight_max, sh.weight);
  }
  r.set("core.live_tasks", static_cast<double>(live));
  r.set("service.admit_ns.atomic",
        mean_ns(sum_tags(spans, {Reason::kAtomicFastPath})));
  r.set("service.admit_ns.mutex",
        mean_ns(sum_tags(spans, {Reason::kSlowPathFallback, Reason::kAdmitted,
                                 Reason::kRegionFull,
                                 Reason::kStageSaturated})));
  r.set("service.admit_ns.fallback",
        mean_ns(sum_tags(spans, {Reason::kQuotaFallback,
                                 Reason::kQuotaFallbackRejected})));
  const auto delta = [&](auto field) {
    std::uint64_t x = 0;
    for (std::size_t k = 0; k < after.shards.size(); ++k) {
      x += field(after.shards[k]) - field(before.shards[k]);
    }
    return static_cast<double>(x) / n;
  };
  r.set("service.share.atomic_admit",
        delta([](const service::ShardStats& x) { return x.atomic_admits; }));
  r.set("service.share.atomic_inconclusive",
        delta([](const service::ShardStats& x) {
          return x.atomic_inconclusive;
        }));
  r.set("service.share.mutex_admit",
        delta([](const service::ShardStats& x) { return x.admits; }));
  r.set("service.share.mutex_reject",
        delta([](const service::ShardStats& x) { return x.rejects; }));
  r.set("service.share.fallback_admit",
        delta([](const service::ShardStats& x) { return x.fallback_admits; }));
  r.set("service.share.fallback_reject",
        delta([](const service::ShardStats& x) { return x.fallback_rejects; }));
  r.set("service.rebalances",
        static_cast<double>(after.rebalances - before.rebalances) * 1e6 / n);
  r.set("service.weight_max", weight_max);
  r.set("service.lane_spread", static_cast<double>(lane_max - lane_min) /
                                   (n / static_cast<double>(kLanes)));
  add_trace_summary(r, spans, n / s, untraced_dps);
  if (!opt.span_out.empty() && !lanes.front()->spans.write(opt.span_out)) {
    std::fprintf(stderr, "could not write spans to %s\n", opt.span_out.c_str());
  }
  skew.drain(r, "service");
  return r;
}

}  // namespace perfbench
