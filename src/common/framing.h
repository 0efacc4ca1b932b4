// Length-prefixed record framing over a byte stream: a 4-byte host-order
// length, then the record. The agents' TCP trunk and the per_stream_qp
// path's TCP fallback channel carry their messages this way.
#pragma once

#include "common/bytes.h"

namespace freeflow {

/// One framed record, `head` followed by `body`: the only copy of either
/// the framing makes.
Buffer frame_record(ByteSpan head, ByteSpan body = {});

/// Appends stream bytes to the receive accumulator `accum`, adopting them
/// outright when nothing is pending.
void append_stream_bytes(Buffer& accum, Buffer&& bytes);

/// Pops the next complete record off the front of `accum` into `out`;
/// false (both unchanged) while the record is still partial. Parsed bytes
/// are consumed in place, so the unparsed rest is never re-copied, and a
/// record that is all `accum` holds is handed over without a copy.
bool pop_record(Buffer& accum, Buffer& out);

}  // namespace freeflow
