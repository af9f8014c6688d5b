#include "core/task_store.h"

#include <bit>

namespace frap::core {

namespace {

constexpr std::uint32_t kIndexLimit = 0xfffffffeu;

}  // namespace

std::uint32_t TaskStore::arena_alloc(std::uint32_t words, std::uint8_t& cls) {
  const std::uint32_t rounded = std::bit_ceil(words);
  cls = static_cast<std::uint8_t>(std::countr_zero(rounded));
  auto& pool = arena_free_[cls];
  if (!pool.empty()) {
    const std::uint32_t off = pool.back();
    pool.pop_back();
    return off;
  }
  const std::size_t off = arena_words_.size();
  FRAP_ASSERT(off + rounded <= kIndexLimit);
  arena_words_.resize(off + rounded);
  // Freeing never allocates: a class's free list can only hold offsets of
  // blocks carved here, so growing its capacity alongside the carve count
  // keeps arena_free() pure push-into-reserved-space (0-alloc invariant).
  ++arena_carved_[cls];
  pool.reserve(arena_carved_[cls]);
  return static_cast<std::uint32_t>(off);
}

void TaskStore::arena_free(std::uint32_t off, std::uint8_t cls) {
  arena_free_[cls].push_back(off);
}

// frap:contract(hotpath) -- steady-state creates are served from the free
// lists; the growth resize in arena_alloc only fires while warming up.
TaskHandle TaskStore::create(std::uint64_t task_id,
                             const std::uint32_t* stages, const double* values,
                             std::uint32_t count) {
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    FRAP_ASSERT(slots_.size() < kIndexLimit);
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{});
    // destroy() never allocates: the free list's capacity tracks the slot
    // count (its size is bounded by it), growing only here on the cold
    // pool-extension path, geometrically alongside slots_.
    free_slots_.reserve(slots_.capacity());
  }
  Slot& s = slots_[idx];
  ++s.gen;  // even (dead) -> odd (live)
  FRAP_ASSERT((s.gen & 1u) != 0);
  s.task_id = task_id;
  s.expiry = sim::kInvalidEventId;
  s.touched = count;
  s.inline_mask = 0;
  if (count <= kInlineEntries) {
    for (std::uint32_t i = 0; i < count; ++i) {
      FRAP_EXPECTS(i == 0 || stages[i] > stages[i - 1]);
      s.inline_stage[i] = stages[i];
      s.inline_value[i] = values[i];
    }
  } else {
    s.arena_off = arena_alloc(block_words(count), s.arena_class);
    std::uint64_t* block = arena_words_.data() + s.arena_off;
    const std::uint32_t mw = mask_words(count);
    for (std::uint32_t w = 0; w < mw; ++w) block[w] = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      FRAP_EXPECTS(i == 0 || stages[i] > stages[i - 1]);
      block[mw + 2 * i] = std::bit_cast<std::uint64_t>(values[i]);
      block[mw + 2 * i + 1] = stages[i];
    }
  }
  ++live_;
  return pack(idx, s.gen);
}

// frap:contract(hotpath)
void TaskStore::destroy(TaskHandle h) {
  Slot& s = slot(h);
  if (!is_inline(s)) arena_free(s.arena_off, s.arena_class);
  ++s.gen;  // odd (live) -> even (dead); stale handles now mismatch
  s.expiry = sim::kInvalidEventId;
  s.touched = 0;
  free_slots_.push_back(index_of(h));
  --live_;
}

std::uint32_t TaskStore::entry_stage(TaskHandle h, std::uint32_t i) const {
  const Slot& s = slot(h);
  FRAP_EXPECTS(i < s.touched);
  if (is_inline(s)) return s.inline_stage[i];
  const std::uint64_t* block = arena_words_.data() + s.arena_off;
  return static_cast<std::uint32_t>(block[mask_words(s.touched) + 2 * i + 1]);
}

double TaskStore::entry_value(TaskHandle h, std::uint32_t i) const {
  const Slot& s = slot(h);
  FRAP_EXPECTS(i < s.touched);
  if (is_inline(s)) return s.inline_value[i];
  const std::uint64_t* block = arena_words_.data() + s.arena_off;
  return std::bit_cast<double>(block[mask_words(s.touched) + 2 * i]);
}

void TaskStore::set_entry_value(TaskHandle h, std::uint32_t i, double v) {
  Slot& s = slot(h);
  FRAP_EXPECTS(i < s.touched);
  if (is_inline(s)) {
    s.inline_value[i] = v;
    return;
  }
  std::uint64_t* block = arena_words_.data() + s.arena_off;
  block[mask_words(s.touched) + 2 * i] = std::bit_cast<std::uint64_t>(v);
}

bool TaskStore::entry_departed(TaskHandle h, std::uint32_t i) const {
  const Slot& s = slot(h);
  FRAP_EXPECTS(i < s.touched);
  const std::uint64_t word =
      is_inline(s) ? s.inline_mask : arena_words_[s.arena_off + i / 64u];
  return (word >> (i % 64u)) & 1u;
}

void TaskStore::set_entry_departed(TaskHandle h, std::uint32_t i) {
  Slot& s = slot(h);
  FRAP_EXPECTS(i < s.touched);
  const std::uint64_t bit = std::uint64_t{1} << (i % 64u);
  if (is_inline(s)) {
    s.inline_mask |= bit;
  } else {
    arena_words_[s.arena_off + i / 64u] |= bit;
  }
}

std::uint32_t TaskStore::find_entry(TaskHandle h, std::uint32_t stage) const {
  const Slot& s = slot(h);
  if (is_inline(s)) {
    for (std::uint32_t i = 0; i < s.touched; ++i) {
      if (s.inline_stage[i] == stage) return i;
    }
    return kNoEntry;
  }
  const std::uint64_t* block = arena_words_.data() + s.arena_off;
  const std::uint32_t mw = mask_words(s.touched);
  for (std::uint32_t i = 0; i < s.touched; ++i) {
    if (static_cast<std::uint32_t>(block[mw + 2 * i + 1]) == stage) return i;
  }
  return kNoEntry;
}

}  // namespace frap::core
