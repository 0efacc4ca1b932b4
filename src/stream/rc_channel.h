// RcStreamChannel: a per-stream RDMA RC queue pair wrapped in the
// agent::Channel interface — the TSoR data plane of a per_stream_qp socket.
// Unlike the agents' shared RdmaTrunk (one QP per host pair, all containers
// multiplexed), it carves one QP per upgraded stream directly out of the
// host NIC's device, so the socket byte stream rides RDMA end to end with
// no agent relay or per-record demux on the path. The slotted QP itself is
// rdma::SlotQp, the engine the trunk uses too; this class adds only the
// stream policy: credits, the control lane and failure reporting.
//
// One conduit message maps to one RDMA SEND into a registered slot.
// Sequenced (data) messages are credit-based: the receiver grants k_slots
// credits up front and returns them in rc_credit batches as it drains
// deliveries; a sender out of credits queues (the conduit's writable()
// deasserts, so well-behaved apps pace). Unsequenced messages (seq 0: the
// conduit's control lane and the credit grants themselves) skip the credit
// check, overtake queued data, and land in a reserve of extra receive
// buffers — so an ack can never wait behind the data it would unblock.
#pragma once

#include <deque>
#include <memory>

#include "agent/channel.h"
#include "rdma/slot_qp.h"

namespace freeflow::stream {

class RcStreamChannel final : public agent::Channel {
 public:
  /// Slot size: one 64 KiB socket chunk + wire header, rounded up.
  static constexpr std::size_t k_slot_bytes = 66 * 1024;
  /// Data credits granted to the peer (and local send slots).
  static constexpr std::uint32_t k_slots = 16;
  /// Extra receive buffers for unsequenced messages, which consume no
  /// credit: at most one credit grant per k_credit_batch deliveries plus the
  /// control lane's occasional ack or handshake. A burst beyond it waits in
  /// the QP's receive-not-ready backlog; it is never lost.
  static constexpr std::uint32_t k_credit_reserve = 4;
  /// Deliveries per returned credit batch.
  static constexpr std::uint32_t k_credit_batch = 4;

  /// A started channel: receive buffers posted and completion notifies
  /// hooked (weakly, by the engine; its wakeups reach this channel through
  /// a weak handle too). `tenant` classifies the QP's traffic for the
  /// NIC's per-tenant scheduler (a per-stream QP belongs to one container).
  static std::shared_ptr<RcStreamChannel> make(rdma::RdmaDevice& device,
                                               sim::UsageAccount* account,
                                               std::uint32_t tenant = 0);
  /// Connects the QP to the peer's (the out-of-band exchange rides the
  /// conduit's rc_offer / rc_answer control messages). Queued sends flow.
  Status connect(fabric::HostId remote_host, rdma::QpNum remote_qp);

  [[nodiscard]] rdma::QpNum qp_num() const noexcept { return slots_->qp()->num(); }

  Status send(ByteSpan head, ByteSpan body = {}) override;
  [[nodiscard]] bool writable() const noexcept override;
  void set_on_message(DeliverFn cb) override { on_message_ = std::move(cb); }
  void set_on_space(std::function<void()> cb) override { on_space_ = std::move(cb); }
  [[nodiscard]] orch::Transport transport() const noexcept override {
    return orch::Transport::rdma;
  }
  void close() noexcept override;

  [[nodiscard]] std::uint32_t credits() const noexcept { return credits_; }

 private:
  RcStreamChannel() = default;

  /// A free send slot and a peer credit: a sequenced message can post.
  [[nodiscard]] bool can_post_data() const noexcept;
  void pump();
  /// The engine's wakeup: polls, then runs the stream policy.
  void on_wake();
  /// One received message; false once the channel closed under it.
  bool on_slot(Buffer&& message);
  void return_credits();

  std::shared_ptr<rdma::SlotQp> slots_;
  std::deque<Buffer> control_;       ///< unsequenced messages awaiting a slot
  std::deque<Buffer> queue_;         ///< data messages awaiting slot + credit
  std::uint32_t credits_ = k_slots;  ///< peer receive credits we may consume
  std::uint32_t since_credit_ = 0;   ///< data deliveries since the last grant
  DeliverFn on_message_;
  std::function<void()> on_space_;
  bool closed_ = false;
};

}  // namespace freeflow::stream
