// Pending-event set of the discrete-event simulator.
//
// One indexed 4-ary min-heap holds every scheduled event. An event is either
// a closure (std::function) or a typed timer: a (TimerClient*, payload) pair
// dispatched by one virtual call, with no closure to allocate. Deadline
// expiries, the dominant traffic, are typed timers.
//
// A heap entry is {time, seq, node}: the key is compared inline, and `node`
// names a pooled record holding the event's action and its current heap
// position. Push, pop and cancel are O(log n); a cancel removes its entry
// at once and returns the node to an intrusive free list, so nothing dead
// lingers in the heap. Once the heap and the node pool have grown to the
// live set, scheduling a typed timer allocates nothing.
//
// Determinism: seq is drawn from a counter at scheduling time, so same-time
// events fire in scheduling order and the firing order is the one total
// (time, seq) order (docs/perf_internals.md).
//
// Single-threaded by design, like the rest of src/sim (frap-lint R5).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace frap::sim {

// Opaque handle to a scheduled event: packed (node index + 1, generation).
// A handle held past its event's fire or cancel fails the generation check
// and is rejected, even after the node is reused.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Receiver of typed timer events. The payload is opaque to the queue;
// trackers pack their own slot-map handles into it.
class TimerClient {
 public:
  virtual void on_timer(std::uint64_t payload) = 0;

 protected:
  ~TimerClient() = default;
};

class EventQueue {
 public:
  // An event taken off the queue, ready to fire: a typed timer when
  // `client` is set, a closure otherwise.
  struct Event {
    Time time = 0;
    TimerClient* client = nullptr;
    std::uint64_t payload = 0;
    std::function<void()> fn;

    void fire() {
      if (client != nullptr) {
        client->on_timer(payload);
      } else {
        fn();
      }
    }
  };

  // Schedules closure fn at absolute time t.
  EventId push(Time t, std::function<void()> fn);

  // Schedules a typed timer at absolute time t.
  EventId push_timer(Time t, TimerClient* client, std::uint64_t payload);

  // Removes a pending event at once. Returns false, and does nothing, for
  // fired, cancelled, stale and invalid handles.
  bool cancel(EventId id);

  // True while the event is still pending.
  [[nodiscard]] bool pending(EventId id) const;

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  // Time of the earliest event. Requires !empty().
  [[nodiscard]] Time next_time() const;

  // Removes the earliest event by (time, seq). Requires !empty().
  Event pop();

 private:
  static constexpr std::uint32_t kArity = 4;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t node;
  };
  struct Node {
    std::function<void()> fn;
    TimerClient* client = nullptr;
    std::uint64_t payload = 0;
    std::uint32_t pos = kNil;  // heap index while live, next free node after
    std::uint32_t gen = 0;     // bumped on every free; stale handles mismatch
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Files a freshly allocated node under (t, next seq); returns its handle.
  EventId insert(Time t, std::uint32_t node);
  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  // Writes e at heap index i and records i in its node.
  void place(std::size_t i, const Entry& e);
  void sift_up(std::size_t i, Entry e);
  // Removes the heap entry at index i, keeping the heap property.
  void remove_at(std::size_t i);
  // Node index named by a live handle, or kNil.
  [[nodiscard]] std::uint32_t live_node(EventId id) const;

  std::vector<Entry> heap_;
  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
};

}  // namespace frap::sim
