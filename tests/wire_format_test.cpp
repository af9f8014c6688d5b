// Wire-format codec: exact round trips, canonical re-encode byte identity,
// typed decode errors for every corruption class, and never-UB fuzzing
// (run under ASan/UBSan in CI). docs/wire_format.md is the contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "ingest/ingest_session.h"
#include "ingest/trace_codec.h"
#include "ingest/wire_decoder.h"
#include "ingest/wire_encoder.h"
#include "ingest/wire_format.h"
#include "workload/replay.h"

namespace {

using namespace frap;
using ingest::WireError;

constexpr std::size_t kStages = 5;

core::TaskSpec sparse_task(std::uint64_t id, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  core::TaskSpec spec;
  spec.id = id;
  spec.deadline = 0.1 + unif(rng);
  spec.importance = unif(rng) * 10.0 - 5.0;
  spec.stages.resize(kStages);
  bool any = false;
  for (auto& s : spec.stages) {
    if (unif(rng) < 0.5) {
      s.compute = 1e-6 + 1e-3 * unif(rng);
      any = true;
    }
  }
  if (!any) spec.stages[0].compute = 1e-4;
  return spec;
}

workload::ArrivalTrace random_trace(std::size_t count, std::uint64_t seed,
                                    Time start = 0.0) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(1000.0);
  workload::ArrivalTrace trace(kStages);
  Time t = start;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    trace.append(t, sparse_task(i + 1, rng));
  }
  return trace;
}

std::vector<std::byte> frame_copy(std::span<const std::byte> frame) {
  return std::vector<std::byte>(frame.begin(), frame.end());
}

// Decodes a frame into `*out` (replaced) the way the programs read one: a
// WireView cursor, with each record assembled by IngestSession::assemble.
// Class records resolve through `classes` when given. Returns the parse
// outcome (open() or the session's check()); on failure `*out` is empty.
ingest::WireParse decode_via_session(
    std::span<const std::byte> frame, workload::ArrivalTrace* out,
    const ingest::TaskClassTable* classes = nullptr) {
  *out = workload::ArrivalTrace{};
  ingest::WireParse parse;
  const auto view = ingest::WireView::open(frame, &parse);
  if (!parse.ok()) return parse;
  ingest::IngestSession session(
      view.num_stages(),
      classes != nullptr ? *classes : ingest::TaskClassTable{});
  parse = session.check(view);
  if (!parse.ok()) return parse;
  workload::ArrivalTrace trace(view.num_stages());
  ingest::WireArrival a;
  for (auto cur = view.cursor(); cur.next(a);) {
    trace.append(a.arrival(), session.assemble(a));
  }
  *out = std::move(trace);
  return parse;
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- layout and encoder basics ------------------------------------------

TEST(WireFormat, LayoutConstants) {
  EXPECT_EQ(ingest::kWireHeaderSize, 24u);
  EXPECT_EQ(ingest::kWireRecordFixedSize, 36u);
  EXPECT_EQ(ingest::kWirePairSize, 12u);
  EXPECT_EQ(ingest::kWireMagic, 0x50415246u);  // "FRAP" little-endian
}

TEST(WireFormat, HeaderFieldsDecodeBack) {
  ingest::WireEncoder enc(kStages, 2.5);
  core::TaskSpec spec = [] {
    std::mt19937_64 rng(7);
    return sparse_task(42, rng);
  }();
  enc.add(3.0, spec);
  ingest::WireParse parse;
  const auto view = ingest::WireView::open(enc.frame(), &parse);
  ASSERT_TRUE(parse.ok()) << ingest::wire_error_name(parse.error);
  EXPECT_EQ(view.num_stages(), kStages);
  EXPECT_EQ(view.record_count(), 1u);
  EXPECT_TRUE(bit_equal(view.base_time(), 2.5));
  EXPECT_EQ(view.size_bytes(), enc.frame().size());
}

TEST(WireFormat, EncoderBufferReuseIsByteIdentical) {
  const auto trace = random_trace(100, 11);
  ingest::WireEncoder reused(kStages);
  // Dirty the buffer with a different frame first.
  (void)ingest::encode_trace(random_trace(37, 99), reused);
  const auto a = frame_copy(ingest::encode_trace(trace, reused));
  ingest::WireEncoder fresh(kStages);
  const auto b = frame_copy(ingest::encode_trace(trace, fresh));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

// --- exact round trips --------------------------------------------------

TEST(WireFormat, TraceRoundTripIsBitExact) {
  const auto trace = random_trace(500, 3, /*start=*/1.75);
  ingest::WireEncoder enc(kStages);
  const auto frame = ingest::encode_trace(trace, enc);

  workload::ArrivalTrace back;
  const auto parse = decode_via_session(frame, &back);
  ASSERT_TRUE(parse.ok()) << ingest::wire_error_name(parse.error);
  ASSERT_EQ(back.size(), trace.size());
  ASSERT_EQ(back.num_stages(), trace.num_stages());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_TRUE(bit_equal(back[i].time, trace[i].time)) << i;
    EXPECT_EQ(back[i].task.id, trace[i].task.id);
    EXPECT_TRUE(bit_equal(back[i].task.deadline, trace[i].task.deadline));
    EXPECT_TRUE(bit_equal(back[i].task.importance, trace[i].task.importance));
    for (std::size_t j = 0; j < kStages; ++j) {
      EXPECT_TRUE(bit_equal(back[i].task.stages[j].compute,
                            trace[i].task.stages[j].compute))
          << i << "," << j;
    }
  }
}

TEST(WireFormat, DecodeReencodeIsByteIdentical) {
  ingest::WireEncoder enc(kStages);
  const auto original =
      frame_copy(ingest::encode_trace(random_trace(300, 17), enc));

  workload::ArrivalTrace decoded;
  ASSERT_TRUE(decode_via_session(original, &decoded).ok());
  ingest::WireEncoder enc2(kStages);
  const auto reencoded = ingest::encode_trace(decoded, enc2);
  ASSERT_EQ(reencoded.size(), original.size());
  EXPECT_EQ(std::memcmp(reencoded.data(), original.data(), original.size()),
            0);
}

TEST(WireFormat, ZeroTimestampsAndTiesRoundTrip) {
  workload::ArrivalTrace trace(kStages);
  std::mt19937_64 rng(5);
  trace.append(0.0, sparse_task(1, rng));
  trace.append(0.0, sparse_task(2, rng));  // simultaneous arrivals are legal
  trace.append(0.5, sparse_task(3, rng));
  ingest::WireEncoder enc(kStages);
  workload::ArrivalTrace back;
  ASSERT_TRUE(decode_via_session(ingest::encode_trace(trace, enc), &back)
                  .ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(bit_equal(back[1].time, 0.0));
}

// --- class records ------------------------------------------------------

TEST(WireFormat, ClassRecordsRoundTripThroughTable) {
  ingest::TaskClassTable table;
  std::vector<core::StageDemand> stages(kStages);
  stages[1].compute = 2e-3;
  stages[4].compute = 5e-4;
  const std::uint16_t cls = table.add(stages);

  ingest::WireEncoder enc(kStages, 0.0);
  enc.add_class(0.25, /*id=*/9, /*deadline=*/0.5, /*importance=*/3.0, cls);
  enc.add_class(0.50, /*id=*/10, /*deadline=*/0.75, /*importance=*/-1.0, cls);
  const auto frame = enc.frame();

  workload::ArrivalTrace back;
  ASSERT_TRUE(decode_via_session(frame, &back, &table).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].task.id, 9u);
  EXPECT_TRUE(bit_equal(back[0].task.stages[1].compute, 2e-3));
  EXPECT_TRUE(bit_equal(back[1].task.stages[4].compute, 5e-4));
  EXPECT_TRUE(bit_equal(back[1].task.importance, -1.0));

  // Without the table the ids cannot resolve: typed error, empty output.
  workload::ArrivalTrace none;
  const auto parse = decode_via_session(frame, &none);
  EXPECT_EQ(parse.error, WireError::kUnknownClass);
  EXPECT_TRUE(none.empty());
}

TEST(WireFormat, SessionCheckCatchesUnknownClassAndWidthMismatch) {
  ingest::TaskClassTable table;
  table.add(std::vector<core::StageDemand>(kStages,
                                           core::StageDemand{1e-3, {}}));
  ingest::WireEncoder enc(kStages);
  enc.add_class(0.0, 1, 0.5, 1.0, /*class_id=*/0);
  enc.add_class(0.1, 2, 0.5, 1.0, /*class_id=*/7);  // not registered
  const auto view = ingest::WireView::open(enc.frame());
  ASSERT_TRUE(view.valid());  // structurally fine: ids are session-level

  ingest::IngestSession session(kStages, table);
  EXPECT_EQ(session.check(view).error, WireError::kUnknownClass);

  ingest::IngestSession narrow(kStages - 1);
  EXPECT_EQ(narrow.check(view).error, WireError::kStageMismatch);
}

// --- typed decode errors ------------------------------------------------

class WireCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ingest::WireEncoder enc(kStages);
    frame_ = frame_copy(ingest::encode_trace(random_trace(4, 23), enc));
  }

  WireError error_of(const std::vector<std::byte>& f) {
    return ingest::WireView::validate(f).error;
  }

  // Overwrite the f64 at `off` with `v` and validate.
  WireError patch_f64(std::size_t off, double v) {
    auto f = frame_;
    ingest::store_f64(f.data() + off, v);
    return error_of(f);
  }

  std::vector<std::byte> frame_;
  static constexpr std::size_t kRec0 = ingest::kWireHeaderSize;
};

TEST_F(WireCorruptionTest, EveryPrefixTruncationIsATypedError) {
  for (std::size_t k = 0; k < frame_.size(); ++k) {
    const auto parse = ingest::WireView::validate(
        std::span<const std::byte>(frame_.data(), k));
    EXPECT_FALSE(parse.ok()) << "prefix " << k;
  }
}

TEST_F(WireCorruptionTest, TrailingBytes) {
  auto f = frame_;
  f.push_back(std::byte{0});
  EXPECT_EQ(error_of(f), WireError::kTrailingBytes);
}

TEST_F(WireCorruptionTest, HeaderCorruptions) {
  auto f = frame_;
  f[0] = std::byte{0x47};
  EXPECT_EQ(error_of(f), WireError::kBadMagic);

  f = frame_;
  ingest::store_u16(f.data() + 4, 2);
  EXPECT_EQ(error_of(f), WireError::kBadVersion);

  f = frame_;
  ingest::store_u16(f.data() + 6, 0);
  EXPECT_EQ(error_of(f), WireError::kZeroStages);

  f = frame_;
  ingest::store_u32(f.data() + 8, 0);
  EXPECT_EQ(error_of(f), WireError::kEmptyFrame);

  f = frame_;
  ingest::store_u32(f.data() + 12, 1);
  EXPECT_EQ(error_of(f), WireError::kBadReserved);

  EXPECT_EQ(patch_f64(16, std::numeric_limits<double>::quiet_NaN()),
            WireError::kBadValue);
}

TEST_F(WireCorruptionTest, RecordValueCorruptions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(patch_f64(kRec0 + 8, 0.0), WireError::kBadValue);   // deadline
  EXPECT_EQ(patch_f64(kRec0 + 8, -1.0), WireError::kBadValue);
  EXPECT_EQ(patch_f64(kRec0 + 8, nan), WireError::kBadValue);
  EXPECT_EQ(patch_f64(kRec0 + 16, nan), WireError::kBadValue);  // importance
  EXPECT_EQ(patch_f64(kRec0 + 24, nan), WireError::kBadValue);  // arrival
  // Arrival before base_time (base is the first arrival, so -1 precedes it).
  EXPECT_EQ(patch_f64(kRec0 + 24, -1.0), WireError::kBadValue);
}

TEST_F(WireCorruptionTest, NonMonotoneArrival) {
  // Push the FIRST record's arrival above the second's: record 1 stays
  // valid in isolation (still >= base_time), so the monotonicity check is
  // what fires on record 2.
  const double second = ingest::load_f64(
      frame_.data() + kRec0 + ingest::kWireRecordFixedSize +
      ingest::load_u16(frame_.data() + kRec0 + 34) * ingest::kWirePairSize +
      24);
  auto f = frame_;
  ingest::store_f64(f.data() + kRec0 + 24, second + 1.0);
  EXPECT_EQ(error_of(f), WireError::kNonMonotoneArrival);
}

TEST_F(WireCorruptionTest, RecordStructureCorruptions) {
  auto f = frame_;
  f[kRec0 + 32] = std::byte{2};  // neither kInline nor kClass
  EXPECT_EQ(error_of(f), WireError::kBadRecordKind);

  f = frame_;
  f[kRec0 + 33] = std::byte{1};  // per-record reserved byte
  EXPECT_EQ(error_of(f), WireError::kBadReserved);

  f = frame_;
  ingest::store_u16(f.data() + kRec0 + 34, 0);  // no pairs
  EXPECT_EQ(error_of(f), WireError::kBadPairCount);

  f = frame_;
  ingest::store_u16(f.data() + kRec0 + 34, kStages + 1);
  EXPECT_EQ(error_of(f), WireError::kBadPairCount);
}

TEST_F(WireCorruptionTest, PairCorruptions) {
  const std::size_t pair0 = kRec0 + ingest::kWireRecordFixedSize;
  auto f = frame_;
  ingest::store_u32(f.data() + pair0, kStages);  // stage index out of range
  EXPECT_EQ(error_of(f), WireError::kStageOutOfRange);

  // Duplicate/descending stages: copy pair 0's stage into pair 1 (the
  // random record for seed 23 has >= 2 pairs; assert to be safe).
  ASSERT_GE(ingest::load_u16(frame_.data() + kRec0 + 34), 2);
  f = frame_;
  ingest::store_u32(f.data() + pair0 + ingest::kWirePairSize,
                    ingest::load_u32(f.data() + pair0));
  EXPECT_EQ(error_of(f), WireError::kUnorderedStages);

  EXPECT_EQ(patch_f64(pair0 + 4, 0.0), WireError::kBadValue);  // demand
  EXPECT_EQ(patch_f64(pair0 + 4, -2.0), WireError::kBadValue);
  EXPECT_EQ(patch_f64(pair0 + 4, std::numeric_limits<double>::infinity()),
            WireError::kBadValue);
}

// --- fuzzing (never UB; ASan/UBSan enforce) ------------------------------

TEST(WireFormatFuzz, RandomByteFlipsNeverBreakTheDecoder) {
  ingest::WireEncoder enc(kStages);
  const auto pristine =
      frame_copy(ingest::encode_trace(random_trace(20, 41), enc));
  std::mt19937_64 rng(12345);
  std::uniform_int_distribution<std::size_t> pos(0, pristine.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  std::uniform_int_distribution<int> flips(1, 8);

  for (int round = 0; round < 2000; ++round) {
    auto f = pristine;
    const int n = flips(rng);
    for (int i = 0; i < n; ++i)
      f[pos(rng)] ^= std::byte{static_cast<unsigned char>(1 << bit(rng))};

    ingest::WireParse parse;
    const auto view = ingest::WireView::open(f, &parse);
    if (!parse.ok()) continue;  // typed rejection is a fine outcome
    // A surviving frame must iterate cleanly: every accessor in bounds.
    double acc = 0;
    std::uint32_t seen = 0;
    ingest::WireArrival a;
    for (auto cur = view.cursor(); cur.next(a);) {
      acc += a.arrival() + a.deadline() + a.importance();
      if (a.kind() == ingest::RecordKind::kInline) {
        for (std::uint16_t i = 0; i < a.pair_count(); ++i)
          acc += a.demand(i) + a.stage(i);
      }
      ++seen;
    }
    EXPECT_EQ(seen, view.record_count());
    EXPECT_TRUE(std::isfinite(acc));  // validator admits only finite values
  }
}

TEST(WireFormatFuzz, RandomGarbageNeverBreaksTheDecoder) {
  std::mt19937_64 rng(999);
  std::uniform_int_distribution<std::size_t> size_of(0, 512);
  std::uniform_int_distribution<int> byte_of(0, 255);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::byte> f(size_of(rng));
    for (auto& b : f)
      b = std::byte{static_cast<unsigned char>(byte_of(rng))};
    // Make a fraction of rounds pass the magic/version gate so the record
    // loop sees garbage too.
    if (f.size() >= ingest::kWireHeaderSize && round % 2 == 0) {
      ingest::store_u32(f.data(), ingest::kWireMagic);
      ingest::store_u16(f.data() + 4, ingest::kWireVersion);
    }
    const auto parse = ingest::WireView::validate(f);
    if (parse.ok()) {
      const auto view = ingest::WireView::open(f);
      ingest::WireArrival a;
      for (auto cur = view.cursor(); cur.next(a);) (void)a.id();
    }
  }
}

// --- frame file I/O ------------------------------------------------------

TEST(WireFrameIo, LengthPrefixedRoundTripAndEof) {
  ingest::WireEncoder enc(kStages);
  const auto f1 = frame_copy(ingest::encode_trace(random_trace(10, 1), enc));
  const auto f2 = frame_copy(ingest::encode_trace(random_trace(20, 2), enc));

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(ingest::write_frame(ss, f1));
  ASSERT_TRUE(ingest::write_frame(ss, f2));

  std::vector<std::byte> buf;
  ASSERT_TRUE(ingest::read_frame(ss, &buf));
  ASSERT_EQ(buf.size(), f1.size());
  EXPECT_EQ(std::memcmp(buf.data(), f1.data(), buf.size()), 0);
  ASSERT_TRUE(ingest::read_frame(ss, &buf));
  EXPECT_EQ(std::memcmp(buf.data(), f2.data(), buf.size()), 0);
  EXPECT_FALSE(ingest::read_frame(ss, &buf));  // clean EOF
  EXPECT_TRUE(buf.empty());
}

TEST(WireFrameIo, TruncatedAndLyingLengthsFail) {
  ingest::WireEncoder enc(kStages);
  const auto f1 = frame_copy(ingest::encode_trace(random_trace(10, 1), enc));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(ingest::write_frame(ss, f1));
  std::string s = ss.str();

  // Truncated payload.
  std::stringstream cut(s.substr(0, s.size() - 3),
                        std::ios::in | std::ios::binary);
  std::vector<std::byte> buf;
  EXPECT_FALSE(ingest::read_frame(cut, &buf));

  // Length field smaller than a header / absurdly large.
  for (const std::uint64_t bad :
       {std::uint64_t{3}, std::uint64_t{1} << 40}) {
    std::string lied = s;
    std::byte len[8];
    ingest::store_u64(len, bad);
    std::memcpy(lied.data(), len, 8);
    std::stringstream in(lied, std::ios::in | std::ios::binary);
    EXPECT_FALSE(ingest::read_frame(in, &buf));
  }
}

// --- property: randomized encode/decode against the text format ----------

TEST(WireFormatProperty, AgreesWithTextTraceFormatOnValues) {
  // The wire codec and the PR-2 text codec must describe the same trace;
  // the wire one is additionally bit-exact where text rounds through
  // decimal. Compare structure + near-equality here, bit-exactness above.
  const auto trace = random_trace(200, 77);
  ingest::WireEncoder enc(kStages);
  workload::ArrivalTrace wire_back;
  ASSERT_TRUE(
      decode_via_session(ingest::encode_trace(trace, enc), &wire_back)
          .ok());

  std::stringstream text;
  trace.save(text);
  workload::ArrivalTrace text_back;
  ASSERT_TRUE(text_back.load(text));

  ASSERT_EQ(wire_back.size(), text_back.size());
  for (std::size_t i = 0; i < wire_back.size(); ++i) {
    EXPECT_EQ(wire_back[i].task.id, text_back[i].task.id);
    EXPECT_NEAR(wire_back[i].time, text_back[i].time, 1e-12);
    for (std::size_t j = 0; j < kStages; ++j) {
      EXPECT_NEAR(wire_back[i].task.stages[j].compute,
                  text_back[i].task.stages[j].compute, 1e-15);
    }
  }
}

}  // namespace
