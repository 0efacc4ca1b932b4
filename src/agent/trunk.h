// Trunks: the agent-to-agent bulk transports. One trunk per (host pair,
// mechanism); all container channels between the two hosts share it. The
// RDMA trunk is the paper's primary inter-host data plane; DPDK and
// host-mode TCP are the fallbacks the orchestrator picks when NICs are
// less capable.
#pragma once

#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>

#include "agent/relay.h"
#include "common/bytes.h"
#include "dpdk/pmd.h"
#include "rdma/slot_qp.h"
#include "sim/resource.h"
#include "tcpstack/record_pipe.h"

namespace freeflow::agent {

class Trunk {
 public:
  using RecordFn = std::function<void(Buffer&&)>;

  Trunk() = default;
  virtual ~Trunk() = default;
  /// Engines and pipes hold hooks into their trunk: a trunk never moves.
  Trunk(const Trunk&) = delete;
  Trunk& operator=(const Trunk&) = delete;

  /// Sends one relay record toward the peer agent: `header`, then the
  /// fragment, given as the part of the message's head and the part of its
  /// body it covers. Both are views: the trunk gathers them where they go
  /// (a send slot, a frame) and builds an owned record only where one must
  /// be owned. Trunks buffer internally; delivery order is preserved.
  /// `tenant` classifies the record for the NIC's per-tenant scheduler on
  /// kernel-bypass paths (0 = infrastructure class; the TCP trunk's byte
  /// stream interleaves records and stays unclassified).
  virtual void send(const RelayHeader& header, ByteSpan head, ByteSpan body,
                    std::uint32_t tenant = 0) = 0;

  /// True while the trunk's internal queue is deep: senders should pause
  /// (this is what backpressures containers to the NIC's actual rate).
  [[nodiscard]] virtual bool congested() const noexcept = 0;

 protected:
  RecordFn on_record_;     ///< set by the owning agent pair
  std::function<void()> on_drained_;

  void maybe_drained() {
    if (!congested() && on_drained_) on_drained_();
  }

 public:
  void set_on_record(RecordFn cb) { on_record_ = std::move(cb); }
  void set_on_drained(std::function<void()> cb) { on_drained_ = std::move(cb); }

  static constexpr std::size_t k_congestion_records = 32;
};

/// RDMA trunk: a slotted RC QP (rdma::SlotQp) plus a FIFO of owned
/// records waiting for a send slot. In zero-copy mode the payload bytes are
/// charged no agent-CPU copy (the shm block itself is registered, as in
/// the paper's Fig. 6 flow); copy mode is the ablation baseline.
class RdmaTrunk final : public Trunk {
 public:
  RdmaTrunk(rdma::RdmaDevice& device, sim::UsageAccount& account, bool zero_copy,
            std::size_t slot_bytes, std::uint32_t slots);

  [[nodiscard]] const std::shared_ptr<rdma::QueuePair>& qp() const noexcept {
    return slots_->qp();
  }
  /// Call once on each side after the QP is connected: posts the receive
  /// slots, hooks the CQs and pumps what queued before.
  void start();

  /// Writes header and fragment straight into a free send slot when nothing
  /// is queued and the QP is ready; otherwise queues an owned record behind
  /// the others, so records post in send order.
  void send(const RelayHeader& header, ByteSpan head, ByteSpan body,
            std::uint32_t tenant = 0) override;
  [[nodiscard]] bool congested() const noexcept override {
    return queue_.size() > k_congestion_records;
  }
  /// Records waiting for a send slot or for the QP to become ready.
  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }

 private:
  struct QueuedRecord {
    Buffer record;
    std::uint32_t tenant = 0;
  };

  /// Charges the relay CPU for the record's bytes, then gathers `parts`
  /// into a send slot.
  void post(std::initializer_list<ByteSpan> parts, std::uint32_t tenant);
  void pump();
  void poll();

  sim::UsageAccount& account_;
  bool zero_copy_;
  std::shared_ptr<rdma::SlotQp> slots_;
  std::deque<QueuedRecord> queue_;
};

/// DPDK trunk: records ride the shared per-host PMD port.
class DpdkTrunk final : public Trunk {
 public:
  DpdkTrunk(dpdk::DpdkPort& port, fabric::HostId peer);

  /// Builds the record the PMD owns while it streams the frames.
  void send(const RelayHeader& header, ByteSpan head, ByteSpan body,
            std::uint32_t tenant = 0) override;
  [[nodiscard]] bool congested() const noexcept override {
    return port_.tx_queue_depth() > k_congestion_records;
  }

  /// The owning agent routes port messages here.
  void deliver(Buffer&& record) {
    if (on_record_) on_record_(std::move(record));
  }

 private:
  dpdk::DpdkPort& port_;
  fabric::HostId peer_;
};

/// TCP trunk: a host-mode kernel TCP connection between the two agents,
/// carrying length-prefixed records through a tcp::RecordPipe.
class TcpTrunk final : public Trunk {
 public:
  /// Records queue until attach().
  TcpTrunk();

  /// Attaches the established connection (either side).
  void attach(tcp::TcpConnection::Ptr conn);

  /// Frames length, relay header and fragment in one copy.
  void send(const RelayHeader& header, ByteSpan head, ByteSpan body,
            std::uint32_t tenant = 0) override;
  [[nodiscard]] bool congested() const noexcept override {
    return pipe_->queued() > k_congestion_records;
  }
  [[nodiscard]] bool connected() const noexcept { return pipe_->attached(); }

 private:
  std::shared_ptr<tcp::RecordPipe> pipe_;
};

}  // namespace freeflow::agent
