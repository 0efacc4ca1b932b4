#include "core/wire.h"

#include <cstring>

namespace freeflow::core {

void WireHeader::encode(std::byte* out) const noexcept {
  std::memset(out, 0, k_size);
  out[0] = static_cast<std::byte>(type);
  std::memcpy(out + 2, &port, 2);
  std::memcpy(out + 4, &mr, 4);
  std::memcpy(out + 8, &len, 4);
  std::memcpy(out + 16, &id, 8);
  std::memcpy(out + 24, &offset, 8);
  std::memcpy(out + 32, &token, 8);
  std::memcpy(out + 40, &seq, 8);
}

WireHeader WireHeader::decode(const std::byte* in) noexcept {
  WireHeader h;
  h.type = static_cast<VMsg>(in[0]);
  std::memcpy(&h.port, in + 2, 2);
  std::memcpy(&h.mr, in + 4, 4);
  std::memcpy(&h.len, in + 8, 4);
  std::memcpy(&h.id, in + 16, 8);
  std::memcpy(&h.offset, in + 24, 8);
  std::memcpy(&h.token, in + 32, 8);
  std::memcpy(&h.seq, in + 40, 8);
  return h;
}

EncodedHeader encode_header(const WireHeader& header, std::size_t payload_len) noexcept {
  WireHeader h = header;
  h.len = static_cast<std::uint32_t>(payload_len);
  EncodedHeader out{};
  h.encode(out.data());
  return out;
}

Result<ParsedMessage> parse_message(Message&& message) {
  ParsedMessage out;
  out.payload = std::move(message.body());
  const ByteSpan head = message.head();
  if (!head.empty()) {
    if (head.size() != WireHeader::k_size) {
      return invalid_argument("freeflow message head is not a wire header");
    }
    out.header = WireHeader::decode(head.data());
  } else {
    // Received contiguously: the header leads the body. Strip it in place.
    if (out.payload.size() < WireHeader::k_size) {
      return invalid_argument("freeflow message shorter than header");
    }
    out.header = WireHeader::decode(out.payload.view().data());
    out.payload.consume_front(WireHeader::k_size);
  }
  if (out.payload.size() != out.header.len) {
    return invalid_argument("freeflow message length mismatch");
  }
  return out;
}

}  // namespace freeflow::core
