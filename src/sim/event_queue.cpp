#include "sim/event_queue.h"

#include <utility>

#include "util/check.h"

namespace frap::sim {

EventId EventQueue::push(Time t, std::function<void()> fn) {
  FRAP_EXPECTS(fn != nullptr);
  const std::uint32_t idx = alloc_node();
  nodes_[idx].fn = std::move(fn);
  return insert(t, idx);
}

EventId EventQueue::push_timer(Time t, TimerClient* client,
                               std::uint64_t payload) {
  FRAP_EXPECTS(client != nullptr);
  const std::uint32_t idx = alloc_node();
  nodes_[idx].client = client;
  nodes_[idx].payload = payload;
  return insert(t, idx);
}

EventId EventQueue::insert(Time t, std::uint32_t node) {
  heap_.push_back(Entry{t, next_seq_++, node});
  sift_up(heap_.size() - 1, heap_.back());
  return (EventId{nodes_[node].gen} << 32) | (EventId{node} + 1);
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t idx = live_node(id);
  if (idx == kNil) return false;
  remove_at(nodes_[idx].pos);
  free_node(idx);
  return true;
}

bool EventQueue::pending(EventId id) const { return live_node(id) != kNil; }

Time EventQueue::next_time() const {
  FRAP_EXPECTS(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Event EventQueue::pop() {
  FRAP_EXPECTS(!heap_.empty());
  const Entry top = heap_.front();
  Node& n = nodes_[top.node];
  Event e{top.time, n.client, n.payload, std::move(n.fn)};
  remove_at(0);
  free_node(top.node);
  return e;
}

std::uint32_t EventQueue::live_node(EventId id) const {
  const auto low = static_cast<std::uint32_t>(id);
  if (low == 0 || low > nodes_.size()) return kNil;
  const std::uint32_t idx = low - 1;
  // A free node's generation has moved past every handle issued for it.
  return nodes_[idx].gen == static_cast<std::uint32_t>(id >> 32) ? idx : kNil;
}

std::uint32_t EventQueue::alloc_node() {
  if (free_head_ == kNil) {
    FRAP_ASSERT(nodes_.size() < kNil);
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  const std::uint32_t idx = free_head_;
  free_head_ = nodes_[idx].pos;
  return idx;
}

void EventQueue::free_node(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.fn = nullptr;  // releases a cancelled closure's captures now
  n.client = nullptr;
  ++n.gen;
  n.pos = free_head_;
  free_head_ = idx;
}

void EventQueue::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  nodes_[e.node].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_up(std::size_t i, Entry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void EventQueue::remove_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (i == n) return;
  // Walk the hole down to a leaf along the earliest children, then sift the
  // old last entry up from there; it may climb past i when i was mid-heap.
  while (true) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    place(i, heap_[best]);
    i = best;
  }
  sift_up(i, last);
}

}  // namespace frap::sim
