// RcStreamChannel: a per-stream RDMA RC queue pair wrapped in the
// agent::Channel interface — the TSoR data plane. Unlike the agents'
// shared RdmaTrunk (one QP per host pair, all containers multiplexed), the
// stream adapter carves one QP per upgraded stream directly out of the
// host NIC's device, so the socket byte stream rides RDMA end to end with
// no agent relay or per-record demux on the path.
//
// One conduit message maps to one RDMA SEND into a registered slot.
// Flow control is credit-based: the receiver grants k_slots credits up
// front and returns them in rc_credit batches as it drains deliveries; a
// sender out of credits queues (the conduit's writable() deasserts, so
// well-behaved apps pace). Credit messages themselves bypass the credit
// check and are covered by a reserved pool of extra receive buffers.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "agent/channel.h"
#include "rdma/device.h"
#include "rdma/queue_pair.h"

namespace freeflow::stream {

class RcStreamChannel final : public agent::Channel,
                              public std::enable_shared_from_this<RcStreamChannel> {
 public:
  /// Slot size: one 64 KiB socket chunk + wire header, rounded up.
  static constexpr std::size_t k_slot_bytes = 66 * 1024;
  /// Data credits granted to the peer (and local send slots).
  static constexpr std::uint32_t k_slots = 16;
  /// Extra receive buffers covering in-flight rc_credit messages: at most
  /// one credit grant per k_credit_batch deliveries can be outstanding.
  static constexpr std::uint32_t k_credit_reserve = 4;
  /// Deliveries per returned credit batch.
  static constexpr std::uint32_t k_credit_batch = 4;

  /// `tenant` classifies the QP's traffic for the NIC's per-tenant
  /// scheduler (per-stream QPs belong to exactly one container).
  RcStreamChannel(rdma::RdmaDevice& device, sim::UsageAccount* account,
                  orch::ContainerId peer, std::uint32_t tenant = 0);
  ~RcStreamChannel() override;

  /// Posts receive buffers and hooks completion notifies (weakly — the QP
  /// and CQs live in the device registry and can outlive this channel).
  /// Must be called once, immediately after construction.
  void start();

  /// Connects the QP to the peer's (out-of-band exchange rides the
  /// conduit's rc_offer / rc_answer handshake). Queued sends then flow.
  Status connect(fabric::HostId remote_host, rdma::QpNum remote_qp);

  [[nodiscard]] rdma::QpNum qp_num() const noexcept { return qp_->num(); }

  Status send(ByteSpan head, ByteSpan body = {}) override;
  [[nodiscard]] bool writable() const noexcept override;
  void set_on_message(DeliverFn cb) override { on_message_ = std::move(cb); }
  void set_on_space(std::function<void()> cb) override { on_space_ = std::move(cb); }
  [[nodiscard]] orch::Transport transport() const noexcept override {
    return orch::Transport::rdma;
  }
  [[nodiscard]] orch::ContainerId peer() const noexcept override { return peer_; }
  void close() noexcept override;
  [[nodiscard]] bool closed() const noexcept override { return closed_; }

  [[nodiscard]] std::uint32_t credits() const noexcept { return credits_; }

 private:
  /// Ready QP, a free send slot and a peer credit: a data message can post.
  [[nodiscard]] bool can_post_data() const noexcept;
  /// Gathers `head` and `body` into a free send slot and posts them.
  void post_to_slot(ByteSpan head, ByteSpan body = {});
  void pump();
  void schedule_poll();
  void poll_cqs();
  void repost_recv(std::uint32_t slot);
  void return_credits();

  rdma::RdmaDevice& device_;
  sim::UsageAccount* account_;  ///< container CPU account for verb posts
  orch::ContainerId peer_;
  rdma::MrPtr send_mr_;
  rdma::MrPtr recv_mr_;
  rdma::CqPtr send_cq_;
  rdma::CqPtr recv_cq_;
  std::shared_ptr<rdma::QueuePair> qp_;
  std::vector<std::uint32_t> free_slots_;
  std::deque<Buffer> queue_;         ///< messages awaiting slot + credit
  std::uint32_t credits_ = k_slots;  ///< peer receive credits we may consume
  std::uint32_t since_credit_ = 0;   ///< deliveries since the last grant
  DeliverFn on_message_;
  std::function<void()> on_space_;
  bool closed_ = false;
  bool completion_error_ = false;
  bool poll_scheduled_ = false;
};

using RcStreamChannelPtr = std::shared_ptr<RcStreamChannel>;

}  // namespace freeflow::stream
