// Bridges the binary wire format to the existing trace / stream tooling.
//
// encode_trace converts a workload::ArrivalTrace (the line-oriented text
// capture) into a wire frame; decoding it through a WireView and
// IngestSession::assemble preserves every bit of every time, deadline,
// importance, and demand (arrivals are stored absolute on the wire).
// write_frame / read_frame move length-prefixed frames through iostreams so
// captures persist to files — the frame is stored verbatim, preceded by a
// u64 little-endian byte count, and read back into a caller-owned buffer
// that the decoder then views without copying again.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "ingest/wire_encoder.h"
#include "workload/replay.h"

namespace frap::ingest {

// Serializes a non-empty trace into `enc` (which must match the trace
// width; it is reset to the first arrival's instant) and returns the frame.
std::span<const std::byte> encode_trace(const workload::ArrivalTrace& trace,
                                        WireEncoder& enc);

// Length-prefixed frame I/O. write_frame returns false on a stream error;
// read_frame returns false on error or clean EOF (buf is cleared), so a
// file of concatenated frames is consumed by calling it until false.
bool write_frame(std::ostream& os, std::span<const std::byte> frame);
bool read_frame(std::istream& is, std::vector<std::byte>* buf);

}  // namespace frap::ingest
