#include "agent/relay.h"

namespace freeflow::agent {

Buffer make_record(const RelayHeader& header, ByteSpan fragment) {
  Buffer record = Buffer::for_overwrite(RelayHeader::k_size + fragment.size());
  header.encode(record.data());
  if (!fragment.empty()) {
    std::memcpy(record.data() + RelayHeader::k_size, fragment.data(), fragment.size());
  }
  return record;
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
