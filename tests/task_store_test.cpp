// Unit tests for the slot-map TaskStore (generation reuse, stale-handle
// rejection, inline vs arena contribution storage, departed bitmask) and
// the flat open-addressing IdMap (backward-shift deletion, growth,
// randomized against an unordered_map reference).
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/task_store.h"
#include "util/id_map.h"
#include "util/rng.h"

namespace frap::core {
namespace {

TEST(TaskStoreTest, CreateReadDestroy) {
  TaskStore store;
  const std::uint32_t stages[] = {1, 3, 4};
  const double values[] = {0.1, 0.2, 0.3};
  const TaskHandle h = store.create(77, stages, values, 3);
  ASSERT_TRUE(store.live(h));
  EXPECT_EQ(store.task_id(h), 77u);
  EXPECT_EQ(store.touched(h), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(store.entry_stage(h, i), stages[i]);
    EXPECT_DOUBLE_EQ(store.entry_value(h, i), values[i]);
    EXPECT_FALSE(store.entry_departed(h, i));
  }
  EXPECT_EQ(store.find_entry(h, 3), 1u);
  EXPECT_EQ(store.find_entry(h, 2), TaskStore::kNoEntry);
  EXPECT_EQ(store.size(), 1u);
  store.destroy(h);
  EXPECT_FALSE(store.live(h));
  EXPECT_EQ(store.size(), 0u);
}

TEST(TaskStoreTest, GenerationReuseRejectsStaleHandles) {
  TaskStore store;
  const std::uint32_t stages[] = {0};
  const double values[] = {0.5};
  const TaskHandle a = store.create(1, stages, values, 1);
  store.destroy(a);
  // The freed slot is reused; the stale handle must not alias the tenant.
  const TaskHandle b = store.create(2, stages, values, 1);
  EXPECT_EQ(TaskStore::index_of(a), TaskStore::index_of(b));
  EXPECT_NE(a, b);
  EXPECT_FALSE(store.live(a));
  ASSERT_TRUE(store.live(b));
  EXPECT_EQ(store.task_id(b), 2u);
  EXPECT_FALSE(store.live(kInvalidTaskHandle));
}

TEST(TaskStoreTest, HandleAtRoundTrips) {
  TaskStore store;
  const std::uint32_t stages[] = {2};
  const double values[] = {0.25};
  const TaskHandle h = store.create(5, stages, values, 1);
  EXPECT_EQ(store.handle_at(TaskStore::index_of(h)), h);
}

TEST(TaskStoreTest, WideTasksSpillToArenaAndBlocksRecycle) {
  TaskStore store;
  std::vector<std::uint32_t> stages;
  std::vector<double> values;
  for (std::uint32_t j = 0; j < 12; ++j) {  // > kInlineEntries
    stages.push_back(j);
    values.push_back(0.01 * (j + 1));
  }
  const TaskHandle h = store.create(9, stages.data(), values.data(), 12);
  for (std::uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(store.entry_stage(h, i), i);
    EXPECT_DOUBLE_EQ(store.entry_value(h, i), 0.01 * (i + 1));
  }
  store.set_entry_value(h, 7, 0.9);
  EXPECT_DOUBLE_EQ(store.entry_value(h, 7), 0.9);
  store.set_entry_departed(h, 3);
  EXPECT_TRUE(store.entry_departed(h, 3));
  EXPECT_FALSE(store.entry_departed(h, 4));

  const std::size_t warm_words = store.arena_capacity_words();
  store.destroy(h);
  // A same-width successor reuses the freed block: the arena stays put.
  const TaskHandle h2 = store.create(10, stages.data(), values.data(), 12);
  EXPECT_EQ(store.arena_capacity_words(), warm_words);
  EXPECT_DOUBLE_EQ(store.entry_value(h2, 11), 0.12);
  EXPECT_FALSE(store.entry_departed(h2, 3));  // mask cleared on reuse
}

TEST(TaskStoreTest, DepartedMaskIndependentPerEntry) {
  TaskStore store;
  const std::uint32_t stages[] = {0, 2, 5, 6};
  const double values[] = {0.1, 0.1, 0.1, 0.1};
  const TaskHandle h = store.create(3, stages, values, 4);  // inline path
  store.set_entry_departed(h, 1);
  store.set_entry_departed(h, 3);
  EXPECT_FALSE(store.entry_departed(h, 0));
  EXPECT_TRUE(store.entry_departed(h, 1));
  EXPECT_FALSE(store.entry_departed(h, 2));
  EXPECT_TRUE(store.entry_departed(h, 3));
}

// ------------------------------------------------------------ IdMap ------

TEST(IdMapTest, InsertFindErase) {
  util::IdMap map;
  EXPECT_EQ(map.find(1), util::IdMap::kNotFound);
  map.insert(1, 10);
  map.insert(2, 20);
  EXPECT_EQ(map.find(1), 10u);
  EXPECT_EQ(map.find(2), 20u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.erase(1));
  EXPECT_FALSE(map.erase(1));
  EXPECT_EQ(map.find(1), util::IdMap::kNotFound);
  EXPECT_EQ(map.find(2), 20u);
}

TEST(IdMapTest, BackwardShiftKeepsProbeChainsReachable) {
  // Dense sequential keys force probe-chain collisions across growth
  // boundaries; every surviving key must stay findable after each erase.
  util::IdMap map;
  for (std::uint64_t k = 0; k < 200; ++k) {
    map.insert(k, static_cast<std::uint32_t>(k + 1));
  }
  for (std::uint64_t k = 0; k < 200; k += 2) {
    ASSERT_TRUE(map.erase(k));
    // Spot-check neighbours after each deletion.
    if (k + 1 < 200) {
      ASSERT_EQ(map.find(k + 1), static_cast<std::uint32_t>(k + 2)) << k;
    }
  }
  for (std::uint64_t k = 0; k < 200; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(map.find(k), util::IdMap::kNotFound);
    } else {
      EXPECT_EQ(map.find(k), static_cast<std::uint32_t>(k + 1));
    }
  }
}

TEST(IdMapTest, RandomizedAgainstUnorderedMap) {
  util::IdMap map;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  util::Rng rng(321);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key =
        static_cast<std::uint64_t>(rng.uniform_int(0, 499));
    const bool present = ref.find(key) != ref.end();
    if (!present && rng.bernoulli(0.6)) {
      const auto value = static_cast<std::uint32_t>(step);
      map.insert(key, value);
      ref.emplace(key, value);
    } else if (present && rng.bernoulli(0.5)) {
      EXPECT_TRUE(map.erase(key));
      ref.erase(key);
    } else {
      const auto got = map.find(key);
      if (present) {
        EXPECT_EQ(got, ref[key]);
      } else {
        EXPECT_EQ(got, util::IdMap::kNotFound);
      }
    }
  }
  EXPECT_EQ(map.size(), ref.size());
  for (const auto& [k, v] : ref) EXPECT_EQ(map.find(k), v);
}

TEST(IdMapTest, ReservePreventsLaterGrowth) {
  util::IdMap map;
  map.reserve(1000);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.insert(k, static_cast<std::uint32_t>(k));
  }
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(map.find(k), static_cast<std::uint32_t>(k));
  }
}

}  // namespace
}  // namespace frap::core
