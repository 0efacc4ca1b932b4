// A message as the data path moves it: a short header held by value and a
// handle on the payload's block. A conduit encodes its wire header on the
// stack and hands the payload Buffer on; shm lanes, channel endpoints,
// overflow queues, the retained window and the agent's relay all carry the
// two parts, so no hop between a sender's send() and the peer's on_data
// copies a payload byte. Only a modelled move that must lay the bytes out
// contiguously (an RDMA send slot, a TCP frame, a DPDK record) gathers
// them, straight from the parts.
//
// A message a transport received contiguously (a relayed record, a TCP
// frame, an RDMA slot) travels on headless: its header is still the front
// of its body, and the receiver that knows the header's size splits it off.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"

namespace freeflow {

class Message {
 public:
  /// Largest header a message holds by value: the library's wire header.
  static constexpr std::size_t k_max_head = 48;

  Message() = default;
  /// A headless message: all of `body`.
  // NOLINTNEXTLINE(google-explicit-constructor): a buffer is a headless message.
  Message(Buffer body) noexcept : body_(std::move(body)) {}
  /// `head` (copied; at most k_max_head bytes) followed by `body`.
  explicit Message(ByteSpan head, Buffer body = {}) noexcept
      : head_size_(static_cast<std::uint8_t>(head.size())), body_(std::move(body)) {
    FF_CHECK(head.size() <= k_max_head);
    if (!head.empty()) std::memcpy(head_.data(), head.data(), head.size());
  }

  [[nodiscard]] ByteSpan head() const noexcept { return {head_.data(), head_size_}; }
  [[nodiscard]] const Buffer& body() const noexcept { return body_; }
  [[nodiscard]] Buffer& body() noexcept { return body_; }
  /// Head and body bytes together.
  [[nodiscard]] std::size_t size() const noexcept { return head_size_ + body_.size(); }

  /// Another message on the same payload block: the header is copied, the
  /// body shared.
  [[nodiscard]] Message share() const noexcept { return Message(head(), body_.share()); }

 private:
  std::array<std::byte, k_max_head> head_{};
  std::uint8_t head_size_ = 0;
  Buffer body_;
};

}  // namespace freeflow
