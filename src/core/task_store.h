// Slot-map task-record store for the synthetic-utilization tracker.
//
// Replaces the PR-1 `unordered_map<id, TaskRecord>` (one map node + two
// heap vectors per task) with three allocation-free-in-steady-state pieces:
//
//   * a SLOT MAP: a dense vector of fixed-size slots with a free list and
//     generation-checked 64-bit handles. A handle packs (generation << 32 |
//     slot + 1); destroying a slot bumps its generation, so a stale handle
//     (held across the task's expiry or removal) is detected and rejected
//     instead of silently aliasing the slot's next tenant. Generations use
//     odd-means-live parity: a slot is live iff its generation is odd.
//   * compact CONTRIBUTION entries: instead of a dense per-stage vector a
//     task stores only the stages it touches, as (stage, value) pairs in
//     ascending stage order. Tasks touching <= kInlineEntries stages (the
//     overwhelming majority in pipeline workloads) keep the pairs inline in
//     the slot; wider tasks borrow a block from the arena.
//   * a pooled ARENA: one contiguous word buffer with power-of-two
//     size-class free lists, addressed by offsets (stable across the
//     buffer's growth reallocations). Blocks hold a packed departed bitmask
//     (one bit per touched entry) followed by the entry pairs.
//
// Departed flags are a packed bitmask over TOUCHED ENTRIES, not stages: a
// departure at a stage the task never touched has no observable effect (the
// strip would remove a zero contribution), so only touched stages need a
// bit. Inline tasks keep the mask word in the slot.
//
// The store knows nothing about utilization accounting or timers beyond
// stashing the expiry EventId; SyntheticUtilizationTracker composes it with
// the per-stage state and the simulator (docs/perf_internals.md).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "util/check.h"

namespace frap::core {

// Generation-checked stable handle to a task slot; 0 is never valid.
using TaskHandle = std::uint64_t;
inline constexpr TaskHandle kInvalidTaskHandle = 0;

class TaskStore {
 public:
  // Contribution pairs stored inline in the slot when a task touches at
  // most this many stages; wider tasks use an arena block.
  static constexpr std::uint32_t kInlineEntries = 4;
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;

  TaskStore() = default;

  // Creates a record with `count` (stage, value) pairs from the parallel
  // arrays; stages must be strictly ascending, values > 0. Returns the new
  // handle. Amortized O(count); allocation-free once the pools are warm.
  TaskHandle create(std::uint64_t task_id, const std::uint32_t* stages,
                    const double* values, std::uint32_t count);

  // Frees the slot (generation bump invalidates outstanding handles) and
  // returns its arena block, if any, to the size-class pool.
  void destroy(TaskHandle h);

  // True while `h` refers to the record it was issued for.
  [[nodiscard]] bool live(TaskHandle h) const {
    const std::uint32_t raw = static_cast<std::uint32_t>(h & 0xffffffffu);
    if (raw == 0 || raw > slots_.size()) return false;
    const Slot& s = slots_[raw - 1];
    return s.gen == static_cast<std::uint32_t>(h >> 32) && (s.gen & 1u) != 0;
  }

  // Re-derives the current handle of a live slot (the id-map stores bare
  // slot indices; this puts the generation back on).
  [[nodiscard]] TaskHandle handle_at(std::uint32_t slot_index) const {
    FRAP_EXPECTS(slot_index < slots_.size());
    const Slot& s = slots_[slot_index];
    FRAP_EXPECTS((s.gen & 1u) != 0);
    return pack(slot_index, s.gen);
  }

  static std::uint32_t index_of(TaskHandle h) {
    return static_cast<std::uint32_t>(h & 0xffffffffu) - 1u;
  }

  [[nodiscard]] std::uint64_t task_id(TaskHandle h) const {
    return slot(h).task_id;
  }
  [[nodiscard]] std::uint32_t touched(TaskHandle h) const {
    return slot(h).touched;
  }
  [[nodiscard]] sim::EventId expiry(TaskHandle h) const {
    return slot(h).expiry;
  }
  void set_expiry(TaskHandle h, sim::EventId id) { slot(h).expiry = id; }

  // Entry accessors; `i` indexes the task's touched entries in ascending
  // stage order, i < touched(h).
  [[nodiscard]] std::uint32_t entry_stage(TaskHandle h, std::uint32_t i) const;
  [[nodiscard]] double entry_value(TaskHandle h, std::uint32_t i) const;
  void set_entry_value(TaskHandle h, std::uint32_t i, double v);
  [[nodiscard]] bool entry_departed(TaskHandle h, std::uint32_t i) const;
  void set_entry_departed(TaskHandle h, std::uint32_t i);

  // Entry index for `stage`, or kNoEntry when the task does not touch it.
  // Linear scan: touched counts are small and the entries are contiguous.
  [[nodiscard]] std::uint32_t find_entry(TaskHandle h,
                                         std::uint32_t stage) const;

  // Zeroes every entry with value > 0, calling fn(stage, value) for each in
  // ascending stage order — the expiry/removal strip walk, fused so the
  // handle is validated once instead of per entry accessor. fn must not
  // mutate this store (it may read it).
  template <typename F>
  void strip_entries(TaskHandle h, F&& fn) {
    Slot& s = slot(h);
    if (is_inline(s)) {
      for (std::uint32_t i = 0; i < s.touched; ++i) {
        const double v = s.inline_value[i];
        if (v > 0) {
          s.inline_value[i] = 0.0;
          fn(s.inline_stage[i], v);
        }
      }
      return;
    }
    std::uint64_t* block = arena_words_.data() + s.arena_off;
    const std::uint32_t mw = mask_words(s.touched);
    for (std::uint32_t i = 0; i < s.touched; ++i) {
      const double v = std::bit_cast<double>(block[mw + 2 * i]);
      if (v > 0) {
        block[mw + 2 * i] = std::bit_cast<std::uint64_t>(0.0);
        fn(static_cast<std::uint32_t>(block[mw + 2 * i + 1]), v);
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return live_; }

  // Observability for the allocation tests: arena words currently pooled.
  [[nodiscard]] std::size_t arena_capacity_words() const {
    return arena_words_.size();
  }

 private:
  struct Slot {
    std::uint64_t task_id = 0;
    sim::EventId expiry = sim::kInvalidEventId;
    std::uint32_t gen = 0;       // odd = live
    std::uint32_t touched = 0;   // number of (stage, value) entries
    std::uint32_t arena_off = 0; // word offset of the arena block
    std::uint8_t arena_class = 0;  // log2 of the block size in words
    // Inline storage for narrow tasks (touched <= kInlineEntries):
    std::uint64_t inline_mask = 0;  // departed bits, one per entry
    double inline_value[kInlineEntries] = {0, 0, 0, 0};
    std::uint32_t inline_stage[kInlineEntries] = {0, 0, 0, 0};
  };

  static TaskHandle pack(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<TaskHandle>(gen) << 32) | (idx + 1u);
  }

  Slot& slot(TaskHandle h) {
    FRAP_EXPECTS(live(h));
    return slots_[index_of(h)];
  }
  const Slot& slot(TaskHandle h) const {
    FRAP_EXPECTS(live(h));
    return slots_[index_of(h)];
  }

  [[nodiscard]] static bool is_inline(const Slot& s) {
    return s.touched <= kInlineEntries;
  }
  // Arena block layout: ceil(touched/64) mask words, then per entry one
  // value word (double bits) and one stage word.
  [[nodiscard]] static std::uint32_t mask_words(std::uint32_t touched) {
    return (touched + 63u) / 64u;
  }
  [[nodiscard]] static std::uint32_t block_words(std::uint32_t touched) {
    return mask_words(touched) + 2u * touched;
  }

  std::uint32_t arena_alloc(std::uint32_t words, std::uint8_t& cls);
  void arena_free(std::uint32_t off, std::uint8_t cls);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;

  std::vector<std::uint64_t> arena_words_;
  // Free block offsets per power-of-two size class (class = log2 words).
  std::vector<std::uint32_t> arena_free_[32];
  // Blocks ever carved per class; arena_free_[c] is reserved to this count
  // so arena_free() never allocates.
  std::uint32_t arena_carved_[32] = {};
};

}  // namespace frap::core
