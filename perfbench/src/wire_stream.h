// Pre-encoded FRAP v1 frames for the wire-fed workloads (steady_churn and
// sharded_skew). Everything is drawn from the seed during set-up; the timed
// window only replays the bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ingest/ingest_session.h"
#include "util/time.h"

namespace perfbench {

// The stream both wire-fed workloads share: 5 stages, 2 touched per
// arrival, half class and half inline records, deadlines spread over
// 5-400 ms so that expiries land on several timer-wheel levels, and 50k
// arrivals per simulated second, which keeps ~10k tasks live. The mean
// compute puts ~0.18 utilization on every stage: about the region's
// capacity, where a single controller rejects ~1% of the arrivals.
inline constexpr std::size_t kWireStages = 5;
inline constexpr std::size_t kWireTouched = 2;
inline constexpr std::size_t kWireRecords = 64;       // records per frame
inline constexpr std::size_t kWirePoolFrames = 1024;  // replayed cyclically
inline constexpr frap::Duration kWireDeadlineMin = 5e-3;
inline constexpr frap::Duration kWireDeadlineMax = 400e-3;
inline constexpr frap::Duration kWireSpacing = 20e-6;  // mean arrival gap
inline constexpr frap::Duration kWireMeanCompute = 9e-6;  // per touched stage

struct WireStreamConfig {
  // 0: task ids are 1, 2, 3, ... Otherwise ids route (id % route_shards)
  // half of the arrivals to shard 0 and the rest evenly to the others.
  std::size_t route_shards = 0;
  std::uint64_t id_base = 0;  // keeps the serials of several streams apart
};

class WireStream {
 public:
  WireStream(const WireStreamConfig& cfg, std::uint64_t seed);

  // Frame g of the endless stream is pool frame g % kWirePoolFrames, with
  // its arrivals shifted by rebase(g) (every pool frame starts at time 0).
  [[nodiscard]] std::span<const std::byte> frame(std::uint64_t g) const {
    const std::size_t k = g % offsets_.size();
    return {bytes_.data() + offsets_[k], sizes_[k]};
  }
  [[nodiscard]] frap::Time rebase(std::uint64_t g) const {
    return static_cast<double>(g) * kSpan;
  }
  [[nodiscard]] const frap::ingest::TaskClassTable& classes() const {
    return classes_;
  }

  static constexpr frap::Duration kSpan =
      static_cast<double>(kWireRecords) * kWireSpacing;

 private:
  frap::ingest::TaskClassTable classes_;
  std::vector<std::byte> bytes_;
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> sizes_;
};

}  // namespace perfbench
