// FreeFlow library wire protocol: the messages the per-container network
// library exchanges over its channels. One fixed header in front of every
// message multiplexes connection setup (CM-style QP rendezvous, socket
// handshakes, migration rebinds) and data-plane verbs. A sender never
// builds the message: it encodes the header on its stack and sends it as
// the head of a Message whose body is the payload Buffer itself.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/message.h"
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
  rebind,        ///< first message on a fresh channel: it replaces conduit `token`'s
                 ///< (failover, migration and the per-stream QP upgrade alike)
  mpi_data,      ///< MPI point-to-point payload (tag in `offset`)
  // ---- the conduit's control lane: unsequenced (seq 0), never retained ----
  bye,           ///< teardown: the sender closed conduit `token`; `id` = the last
                 ///< sequence it sent (0: do not wait for any)
  bye_ack,       ///< close handshake: bye received, drain complete
  ack,           ///< conduit ARQ: cumulative receive ack (highest seq in `id`)
  rc_offer,      ///< per-stream QP upgrade: the initiator's fresh RC QP
                 ///< (`id` = qp num, `offset` = host)
  rc_answer,     ///< the peer's QP, connected to the offer (`id` = qp num,
                 ///< `offset` = host, `mr` = the offer's qp num it answers)
  rc_credit,     ///< RC channel flow control, internal to RcStreamChannel:
                 ///< `id` receive credits returned
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

/// A message's header bytes, `len` set to `payload_len`: a sender puts
/// them in front of its payload as a Message's head.
using EncodedHeader = std::array<std::byte, WireHeader::k_size>;
EncodedHeader encode_header(const WireHeader& header, std::size_t payload_len = 0) noexcept;
static_assert(WireHeader::k_size <= Message::k_max_head);

struct ParsedMessage {
  WireHeader header;
  Buffer payload;
};
/// Splits a message into its wire header and its payload, copying no
/// payload byte. The header is the message's head or, for a message a
/// transport received contiguously, the front of its body. Rejects a
/// message whose header is not whole or whose `len` is not its payload's
/// size.
Result<ParsedMessage> parse_message(Message&& message);

}  // namespace freeflow::core
