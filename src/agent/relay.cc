#include "agent/relay.h"

namespace freeflow::agent {

Buffer make_record(const RelayHeader& header, ByteSpan head, ByteSpan body) {
  std::byte encoded[RelayHeader::k_size];
  header.encode(encoded);
  return Buffer::gather({encoded, head, body});
}

Result<ParsedRecord> parse_record(ByteSpan record) {
  if (record.size() < RelayHeader::k_size) {
    return invalid_argument("relay record shorter than header");
  }
  ParsedRecord out;
  out.header = RelayHeader::decode(record.data());
  out.fragment = record.subspan(RelayHeader::k_size);
  if (out.header.frag_offset + out.fragment.size() > out.header.total_len) {
    return invalid_argument("relay fragment exceeds message length");
  }
  return out;
}

}  // namespace freeflow::agent
