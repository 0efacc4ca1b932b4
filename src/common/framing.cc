#include "common/framing.h"

#include <cstdint>
#include <cstring>

namespace freeflow {

namespace {
constexpr std::size_t k_length_bytes = 4;
}  // namespace

Buffer frame_record(ByteSpan head, ByteSpan body) {
  const std::size_t size = head.size() + body.size();
  Buffer framed = Buffer::for_overwrite(k_length_bytes + size);
  const auto len = static_cast<std::uint32_t>(size);
  std::memcpy(framed.data(), &len, k_length_bytes);
  std::byte* out = framed.data() + k_length_bytes;
  if (!head.empty()) std::memcpy(out, head.data(), head.size());
  if (!body.empty()) std::memcpy(out + head.size(), body.data(), body.size());
  return framed;
}

void append_stream_bytes(Buffer& accum, Buffer&& bytes) {
  if (accum.empty()) {
    accum = std::move(bytes);
  } else {
    accum.append(bytes.view());
  }
}

bool pop_record(Buffer& accum, Buffer& out) {
  if (accum.size() < k_length_bytes) return false;
  std::uint32_t len = 0;
  std::memcpy(&len, accum.data(), k_length_bytes);
  if (accum.size() - k_length_bytes < len) return false;
  accum.consume_front(k_length_bytes);
  if (accum.size() == len) {
    out = std::move(accum);
    return true;
  }
  out = Buffer(accum.data(), len);
  accum.consume_front(len);
  return true;
}

}  // namespace freeflow
