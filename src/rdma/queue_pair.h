// Reliable-connected queue pair. Posting a work request costs the caller a
// small amount of host CPU (the verb syscall-free doorbell path); the NIC
// processor then chunks the message at the RDMA MTU and streams it, keeping
// everything pipelined without further host involvement.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "fabric/packet.h"
#include "rdma/verbs.h"

namespace freeflow::rdma {

class RdmaDevice;
struct RdmaChunk;

enum class QpState : std::uint8_t { reset, ready, error };

class QueuePair : public std::enable_shared_from_this<QueuePair> {
 public:
  QueuePair(RdmaDevice& device, QpNum num, CqPtr send_cq, CqPtr recv_cq, QpAttr attr);

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Connects to a remote QP (out-of-band exchange done by the CM/agent).
  Status connect(fabric::HostId remote_host, QpNum remote_qp);

  [[nodiscard]] QpState state() const noexcept { return state_; }
  [[nodiscard]] QpNum num() const noexcept { return num_; }
  [[nodiscard]] fabric::HostId remote_host() const noexcept { return remote_host_; }
  [[nodiscard]] QpNum remote_qp() const noexcept { return remote_qp_; }

  /// Posts a SEND/WRITE/READ. Charged rdma_post_ns on the caller's host
  /// CPU (`account`). Fails with resource_exhausted when the SQ is full.
  Status post_send(const SendWr& wr, sim::UsageAccount* account = nullptr);

  /// Posts a receive buffer for incoming SENDs.
  Status post_recv(const RecvWr& wr, sim::UsageAccount* account = nullptr);

  [[nodiscard]] CqPtr send_cq() const noexcept { return send_cq_; }
  [[nodiscard]] CqPtr recv_cq() const noexcept { return recv_cq_; }
  [[nodiscard]] RdmaDevice& device() noexcept { return device_; }

  // ---- device-internal receive path ------------------------------------
  void rx_data_chunk(const std::shared_ptr<RdmaChunk>& chunk);
  void rx_ack(const std::shared_ptr<RdmaChunk>& chunk);

 private:
  void pump();
  void emit_chunks(const SendWr& wr, std::uint64_t msg_id);
  void stream_chunk(std::uint64_t msg_id, std::uint32_t offset);
  void emit_read_request(const SendWr& wr, std::uint64_t msg_id);
  void finish_wr(const SendWr& wr, std::uint32_t byte_len, WcStatus status);
  void send_ack(const std::shared_ptr<RdmaChunk>& chunk, WcStatus status);

  RdmaDevice& device_;
  QpNum num_;
  CqPtr send_cq_;
  CqPtr recv_cq_;
  QpAttr attr_;
  QpState state_ = QpState::reset;
  fabric::HostId remote_host_ = fabric::k_invalid_host;
  QpNum remote_qp_ = 0;

  std::deque<SendWr> sq_;
  std::deque<RecvWr> rq_;
  bool tx_active_ = false;
  std::uint64_t next_msg_id_ = 1;

  /// WRs fully transmitted, awaiting the remote ack (or read response).
  std::unordered_map<std::uint64_t, SendWr> outstanding_;

  /// Receive-side reassembly state per in-flight message.
  struct RxProgress {
    std::uint64_t msg_id = 0;
    bool claimed = false;  ///< a SEND took `recv_wr` off the receive queue
    RecvWr recv_wr;
    std::uint32_t received = 0;
    WcStatus error = WcStatus::success;
  };
  /// Finds or starts the reassembly entry for `msg_id`.
  RxProgress& rx_progress(std::uint64_t msg_id);
  void erase_rx_progress(std::uint64_t msg_id);
  /// Only a few messages are ever mid-reassembly on one QP: a flat vector
  /// that keeps its capacity costs no allocation per message. Entries move
  /// on erase, so hold no reference across a call that may re-enter.
  std::vector<RxProgress> rx_progress_;

  /// Chunks that arrived before a RecvWr was posted (infinite RNR-retry
  /// semantics, a simplification of RC's NAK/retry loop).
  std::deque<std::shared_ptr<RdmaChunk>> rnr_backlog_;

  friend class RdmaDevice;
};

}  // namespace freeflow::rdma
