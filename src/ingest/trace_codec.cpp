#include "ingest/trace_codec.h"

#include <istream>
#include <ostream>

#include "ingest/wire_format.h"
#include "util/check.h"

namespace frap::ingest {

std::span<const std::byte> encode_trace(const workload::ArrivalTrace& trace,
                                        WireEncoder& enc) {
  FRAP_EXPECTS(!trace.empty());
  FRAP_EXPECTS(enc.num_stages() == trace.num_stages());
  enc.reset(trace[0].time);
  for (const auto& r : trace.records()) enc.add(r.time, r.task);
  return enc.frame();
}

bool write_frame(std::ostream& os, std::span<const std::byte> frame) {
  std::byte len[8];
  store_u64(len, static_cast<std::uint64_t>(frame.size()));
  os.write(reinterpret_cast<const char*>(len), sizeof(len));
  os.write(reinterpret_cast<const char*>(frame.data()),
           static_cast<std::streamsize>(frame.size()));
  return static_cast<bool>(os);
}

bool read_frame(std::istream& is, std::vector<std::byte>* buf) {
  FRAP_EXPECTS(buf != nullptr);
  buf->clear();
  std::byte len[8];
  if (!is.read(reinterpret_cast<char*>(len), sizeof(len))) return false;
  const std::uint64_t size = load_u64(len);
  // Cap far above any real frame so a corrupt length cannot trigger a
  // pathological allocation before the decoder ever sees the bytes.
  constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 32;
  if (size < kWireHeaderSize || size > kMaxFrameBytes) return false;
  buf->resize(static_cast<std::size_t>(size));
  return static_cast<bool>(
      is.read(reinterpret_cast<char*>(buf->data()),
              static_cast<std::streamsize>(buf->size())));
}

}  // namespace frap::ingest
