// Length-prefixed record framing over a byte stream: a 4-byte host-order
// length, then the record. It is the only framing code in the tree. Users:
//   - tcp::RecordPipe, and through it the agents' TcpTrunk and the
//     per_stream_qp path's TcpFallbackChannel;
//   - workloads::RecordStream, and through it the key-value store's client
//     and server and the API gateway;
//   - core::MpiEndpoint, whose records carry the source rank and tag as
//     their first 8 bytes.
#pragma once

#include "common/bytes.h"

namespace freeflow {

/// One framed record, `head`, `body` and `tail` back to back: the only
/// copy of any of them the framing makes.
Buffer frame_record(ByteSpan head, ByteSpan body = {}, ByteSpan tail = {});

/// Appends stream bytes to the receive accumulator `accum`, adopting them
/// outright when nothing is pending.
void append_stream_bytes(Buffer& accum, Buffer&& bytes);

/// Pops the next complete record off the front of `accum` into `out`;
/// false (both unchanged) while the record is still partial. Parsed bytes
/// are consumed in place, so the unparsed rest is never re-copied; a record
/// that is all `accum` holds is handed over, and any other is a slice of
/// the accumulator's block. Neither is copied.
bool pop_record(Buffer& accum, Buffer& out);

}  // namespace freeflow
