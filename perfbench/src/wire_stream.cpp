#include "wire_stream.h"

#include "core/task.h"
#include "ingest/wire_encoder.h"
#include "ingest/wire_format.h"
#include "util/rng.h"

namespace perfbench {

using namespace frap;

namespace {

// One class per pair of stages (10 for 5 stages), computes spread over
// 0.75-1.25 of the mean.
ingest::TaskClassTable make_classes() {
  static_assert(kWireTouched == 2, "classes are stage pairs");
  ingest::TaskClassTable table;
  constexpr double kPairs = kWireStages * (kWireStages - 1) / 2;
  double c = 0;
  for (std::size_t a = 0; a < kWireStages; ++a) {
    for (std::size_t b = a + 1; b < kWireStages; ++b) {
      std::vector<core::StageDemand> stages(kWireStages);
      const double scale = 0.75 + 0.5 * c++ / (kPairs - 1);
      stages[a].compute = stages[b].compute = kWireMeanCompute * scale;
      table.add(std::move(stages));
    }
  }
  return table;
}

}  // namespace

WireStream::WireStream(const WireStreamConfig& cfg, std::uint64_t seed)
    : classes_(make_classes()) {
  util::Rng rng(seed);
  ingest::WireEncoder enc(kWireStages);
  core::TaskSpec spec;
  spec.importance = 1.0;
  spec.stages.resize(kWireStages);
  std::vector<std::size_t> order(kWireStages);
  std::uint64_t serial = 0;
  // Reserved for the largest possible frames, so the pool is never
  // reallocated and the set-up's peak memory does not depend on the seed.
  bytes_.reserve(kWirePoolFrames *
                 (ingest::kWireHeaderSize +
                  kWireRecords * (ingest::kWireRecordFixedSize +
                                  kWireTouched * ingest::kWirePairSize)));
  offsets_.reserve(kWirePoolFrames);
  sizes_.reserve(kWirePoolFrames);
  for (std::size_t f = 0; f < kWirePoolFrames; ++f) {
    enc.reset(kTimeZero);
    for (std::size_t i = 0; i < kWireRecords; ++i) {
      // Jittered slots keep every arrival inside [0, span) and strictly
      // ordered, also across the rebased frame boundary.
      const Time t =
          (static_cast<double>(i) + rng.uniform(0.05, 0.95)) * kWireSpacing;
      std::uint64_t id = cfg.id_base + ++serial;
      if (cfg.route_shards > 0) {
        std::size_t shard = 0;
        if (!rng.bernoulli(0.5)) {
          shard = 1 + static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(cfg.route_shards) - 2));
        }
        id = id * cfg.route_shards + shard;
      }
      const Duration deadline = rng.uniform(kWireDeadlineMin, kWireDeadlineMax);
      if (rng.bernoulli(0.5)) {
        const auto cls = static_cast<std::uint16_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(classes_.size()) - 1));
        enc.add_class(t, id, deadline, 1.0, cls);
        continue;
      }
      for (auto& s : spec.stages) s.compute = 0;
      for (std::size_t j = 0; j < kWireStages; ++j) order[j] = j;
      rng.shuffle(order);
      for (std::size_t k = 0; k < kWireTouched; ++k) {
        spec.stages[order[k]].compute =
            kWireMeanCompute * rng.uniform(0.5, 1.5);
      }
      spec.id = id;
      spec.deadline = deadline;
      enc.add(t, spec);
    }
    const auto frame = enc.frame();
    offsets_.push_back(bytes_.size());
    sizes_.push_back(frame.size());
    bytes_.insert(bytes_.end(), frame.begin(), frame.end());
  }
}

}  // namespace perfbench
