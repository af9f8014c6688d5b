#include "obs/trace_ring.h"

#include <algorithm>

#include "util/check.h"

namespace frap::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {
  FRAP_EXPECTS(capacity >= 1);
}

void TraceRing::unpack_meta(std::uint64_t meta, DecisionEvent& ev) {
  ev.reason = static_cast<core::AdmissionDecision::Reason>(meta & 0xF);
  ev.kind = static_cast<SpanKind>((meta >> 4) & 0x3);
  ev.admitted = ((meta >> 6) & 1) != 0;
  ev.shard = static_cast<std::uint16_t>((meta >> 8) & 0xFFFF);
  ev.touched = static_cast<std::uint16_t>((meta >> 24) & 0xFFFF);
  ev.latency_nanos = meta >> 40;
}

// frap:contract(hotpath)
void TraceRing::push(const DecisionEvent& ev) {
  // frap:contract(order: relaxed ticket draw; slot ownership comes from the
  // claim CAS below, the counter itself has no ordering role)
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[ticket & mask_];

  // frap:contract(order: relaxed probe; the claim CAS re-validates it)
  std::uint64_t prev = s.seq.load(std::memory_order_relaxed);
  // frap:contract(order: acquire claim pairs with the previous owner's
  // release publish so this lap's stores cannot mix with the last lap's;
  // relaxed failure just abandons the slot)
  if ((prev & 1) != 0 ||
      !s.seq.compare_exchange_strong(prev, prev | 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    // A producer from a previous lap still owns the slot: overwrite-by-drop,
    // never block (the loss is counted, docs/observability.md).
    // frap:contract(order: relaxed tally, quiesced-conservation contract)
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // frap:contract(order: relaxed tally, quiesced-conservation contract)
  if (prev != 0) overwritten_.fetch_add(1, std::memory_order_relaxed);

  // Keep the field stores from becoming visible before the odd claim above,
  // mirroring push_serialized(): a reader that sees any new field then sees
  // the claim on its acquire re-check and discards the copy.
  // frap:contract(order: release fence pairs with snapshot()'s acquire
  // fence; payload stores cannot sink above the odd claim)
  std::atomic_thread_fence(std::memory_order_release);

  // frap:contract(order: relaxed payload stores inside the seqlock bracket)
  s.task_id.store(ev.task_id, std::memory_order_relaxed);
  // frap:contract(order: relaxed payload store, same bracket)
  s.arrival.store(ev.arrival, std::memory_order_relaxed);
  // frap:contract(order: relaxed payload store, same bracket)
  s.decided_at.store(ev.decided_at, std::memory_order_relaxed);
  // frap:contract(order: relaxed payload store, same bracket)
  s.lhs_before.store(ev.lhs_before, std::memory_order_relaxed);
  // frap:contract(order: relaxed payload store, same bracket)
  s.lhs_with_task.store(ev.lhs_with_task, std::memory_order_relaxed);
  // frap:contract(order: relaxed payload store, same bracket)
  s.bound.store(ev.bound, std::memory_order_relaxed);
  // frap:contract(order: relaxed payload store, same bracket)
  s.meta.store(pack_meta(ev), std::memory_order_relaxed);

  // frap:contract(order: release even publish pairs with snapshot()'s
  // acquire first load; a reader seeing even k sees the whole payload)
  s.seq.store((ticket + 1) << 1, std::memory_order_release);

  // A large ring streams through memory, so the NEXT slot's line is cold
  // and the claim CAS above would stall a full cache miss. Prefetching it
  // now (write intent) overlaps that miss with the admission work between
  // decisions.
  __builtin_prefetch(&slots_[(ticket + 1) & mask_], 1, 1);
}

std::vector<DecisionEvent> TraceRing::snapshot() const {
  std::vector<DecisionEvent> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    // frap:contract(order: acquire pairs with the writer's release even
    // publish; payload reads below cannot float above this load)
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or mid-write

    DecisionEvent ev;
    // frap:contract(order: relaxed payload reads; the seqlock bracket, not
    // the loads themselves, certifies the copy)
    ev.task_id = s.task_id.load(std::memory_order_relaxed);
    // frap:contract(order: relaxed payload read, same bracket)
    ev.arrival = s.arrival.load(std::memory_order_relaxed);
    // frap:contract(order: relaxed payload read, same bracket)
    ev.decided_at = s.decided_at.load(std::memory_order_relaxed);
    // frap:contract(order: relaxed payload read, same bracket)
    ev.lhs_before = s.lhs_before.load(std::memory_order_relaxed);
    // frap:contract(order: relaxed payload read, same bracket)
    ev.lhs_with_task = s.lhs_with_task.load(std::memory_order_relaxed);
    // frap:contract(order: relaxed payload read, same bracket)
    ev.bound = s.bound.load(std::memory_order_relaxed);
    // frap:contract(order: relaxed payload read, same bracket)
    unpack_meta(s.meta.load(std::memory_order_relaxed), ev);

    // Seqlock validation: the fence orders the field loads above before the
    // re-read of seq, so a changed sequence means the copy may mix laps and
    // is discarded.
    // frap:contract(order: acquire fence orders the payload reads before
    // the re-check; pairs with the writers' release fences)
    std::atomic_thread_fence(std::memory_order_acquire);
    // frap:contract(order: relaxed re-check; the fence above ordered it,
    // inequality with s1 is what discards torn copies)
    if (s.seq.load(std::memory_order_relaxed) != s1) continue;
    ev.ticket = (s1 >> 1) - 1;
    out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const DecisionEvent& a, const DecisionEvent& b) {
              return a.ticket < b.ticket;
            });
  return out;
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kDecision:
      return "decision";
    case SpanKind::kFallback:
      return "fallback";
  }
  return "unknown";
}

}  // namespace frap::obs
