// FreeFlow library wire protocol: the messages the per-container network
// library exchanges over agent channels. One fixed header in front of every
// message multiplexes connection setup (CM-style QP rendezvous, socket
// handshakes, migration rebinds) and data-plane verbs.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace freeflow::core {

enum class VMsg : std::uint8_t {
  cm_connect,    ///< open a verbs QP toward `port` (token identifies conduit)
  cm_accept,
  cm_reject,
  sock_connect,  ///< open a byte-stream socket toward `port`
  sock_accept,
  sock_reject,
  sock_data,     ///< one stream chunk
  sock_fin,
  verbs_send,    ///< two-sided send (needs a posted recv)
  verbs_write,   ///< one-sided write into (mr, offset)
  verbs_read_req,
  verbs_read_resp,
  rebind,        ///< migration: this channel replaces conduit `token`
  mpi_data,      ///< MPI point-to-point payload (tag in `offset`)
  bye,           ///< teardown: the sending side closed conduit `token`
  bye_ack,       ///< close handshake: bye received, drain complete
  ack,           ///< conduit ARQ: cumulative receive ack (highest seq in `id`)
  // ---- stream adapter (src/stream): TSoR-style RC upgrade handshake ----
  rc_offer,      ///< initiator offers a per-stream RC QP (`id` = qp num, `offset` = host)
  rc_answer,     ///< peer's QP is connected and ready (`id` = qp num, `offset` = host)
  rc_switch,     ///< first message on the fresh RC channel: replace the tcp path
  rc_credit,     ///< RC flow control: `id` receive credits returned to the sender
};

struct WireHeader {
  VMsg type = VMsg::cm_connect;
  std::uint16_t port = 0;
  std::uint32_t mr = 0;         ///< target MR id (verbs)
  std::uint32_t len = 0;        ///< payload length that follows
  std::uint64_t id = 0;         ///< wr_id / request id
  std::uint64_t offset = 0;     ///< MR offset (verbs) or MPI tag
  std::uint64_t token = 0;      ///< conduit token (setup/rebind)
  std::uint64_t seq = 0;        ///< conduit ARQ sequence (0 = unsequenced)

  static constexpr std::size_t k_size = 48;

  void encode(std::byte* out) const noexcept;
  static WireHeader decode(const std::byte* in) noexcept;
};

/// A message's header bytes, `len` set to `payload_len`: senders gather
/// them in front of the payload instead of building the message.
using EncodedHeader = std::array<std::byte, WireHeader::k_size>;
EncodedHeader encode_header(const WireHeader& header, std::size_t payload_len = 0) noexcept;

/// One message = header + payload, built as one owned buffer.
Buffer make_message(const WireHeader& header, ByteSpan payload = {});

struct ParsedMessage {
  WireHeader header;
  ByteSpan payload;
};
Result<ParsedMessage> parse_message(ByteSpan message);

}  // namespace freeflow::core
