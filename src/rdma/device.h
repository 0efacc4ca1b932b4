// RdmaDevice: the software NIC-resident RDMA engine bound to one host's
// fabric NIC. Owns the key/QP registries and the chunk receive path. Work
// posted to QPs is executed by the NIC processor resource, so host CPU
// stays nearly idle during transfers — the property the paper's Fig. 2(b/c)
// measures (host CPU low, NIC processor busy).
#pragma once

#include <memory>
#include <unordered_map>

#include "common/bytes.h"
#include "common/slab_pool.h"
#include "fabric/host.h"
#include "fabric/packet.h"
#include "rdma/verbs.h"

namespace freeflow::rdma {

class QueuePair;

/// The wire format of one MTU chunk (or control message) between devices.
struct RdmaChunk final : fabric::PacketBody {
  enum class Kind : std::uint8_t { data, ack, read_request };

  Kind kind = Kind::data;
  Opcode opcode = Opcode::send;
  QpNum src_qp = 0;
  QpNum dst_qp = 0;
  std::uint64_t msg_id = 0;    ///< per-QP message sequence
  std::uint64_t wr_id = 0;     ///< echoed in acks for completion matching
  std::uint32_t total_len = 0;
  std::uint32_t chunk_offset = 0;
  bool last = false;
  WcStatus status = WcStatus::success;  ///< acks/NAKs carry the outcome
  Buffer payload;              ///< data chunks
  RemoteBuffer remote;         ///< write/read target
  std::uint32_t read_len = 0;  ///< read_request only
  /// NIC scheduling class; responses and acks echo the request's.
  std::uint32_t tenant = 0;
};

/// Acquires a fresh RdmaChunk from the process-wide slab pool.
inline std::shared_ptr<RdmaChunk> acquire_chunk() {
  static common::SlabPool<RdmaChunk> pool;
  return pool.make();
}

class RdmaDevice {
 public:
  explicit RdmaDevice(fabric::Host& host);

  RdmaDevice(const RdmaDevice&) = delete;
  RdmaDevice& operator=(const RdmaDevice&) = delete;

  /// Registers a memory region of `length` bytes; real backing storage.
  /// The caller owns it: once dropped, its rkey no longer resolves.
  MrPtr reg_mr(std::size_t length);

  /// Creates a completion queue.
  CqPtr create_cq(std::size_t capacity = 4096);

  /// Creates an RC queue pair (send/recv completions may share a CQ).
  std::shared_ptr<QueuePair> create_qp(CqPtr send_cq, CqPtr recv_cq, QpAttr attr = {});

  /// Key/QP lookups (device-internal and for the connection manager).
  [[nodiscard]] MrPtr mr_by_rkey(Key rkey);
  [[nodiscard]] std::shared_ptr<QueuePair> qp(QpNum num);

  [[nodiscard]] fabric::Host& host() noexcept { return host_; }
  [[nodiscard]] sim::Resource& nic_proc() noexcept { return host_.nic().processor(); }

  /// Total payload bytes delivered into local MRs by remote operations.
  [[nodiscard]] std::uint64_t bytes_received() const noexcept { return bytes_received_; }

  /// Transmits a chunk toward `dst_host` (possibly this host: NIC hairpin).
  void transmit(fabric::HostId dst_host, std::shared_ptr<RdmaChunk> chunk);

 private:
  void on_chunk(fabric::PacketPtr packet);
  void handle_data(const std::shared_ptr<RdmaChunk>& chunk);
  void handle_read_request(const std::shared_ptr<RdmaChunk>& chunk,
                           fabric::HostId requester);
  /// Fails the READ at the requester with remote_access_error.
  void nak_read(const std::shared_ptr<RdmaChunk>& request, fabric::HostId requester);
  void stream_read_chunk(const std::shared_ptr<RdmaChunk>& request,
                         fabric::HostId requester, std::uint32_t offset);

  static std::uint32_t wire_bytes(const RdmaChunk& chunk) noexcept;

  fabric::Host& host_;
  Key next_key_ = 1;
  QpNum next_qp_ = 1;
  MrTable mrs_;
  /// Held for the device's life, so a QP's posted receives keep their MRs.
  std::unordered_map<QpNum, std::shared_ptr<QueuePair>> qps_;
  std::uint64_t bytes_received_ = 0;

  friend class QueuePair;
};

}  // namespace freeflow::rdma
