// DPDK-style poll-mode driver port: a userspace packet path that bypasses
// the kernel by dedicating ("pinning") one host core that spins polling the
// NIC queues. Per-packet cost is far below the kernel stack's, at the price
// of one core burned at 100 % whether or not traffic flows — the
// CPU/latency trade FreeFlow's orchestrator weighs when a host NIC lacks
// RDMA support but supports DPDK.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "common/slab_pool.h"
#include "common/status.h"
#include "fabric/host.h"
#include "fabric/packet.h"
#include "sim/resource.h"

namespace freeflow::dpdk {

struct DpdkFrame final : fabric::PacketBody {
  std::uint64_t msg_id = 0;
  std::uint32_t total_len = 0;
  std::uint32_t offset = 0;
  bool last = false;
  std::uint32_t tenant = 0;  ///< NIC scheduling class of the owning flow
  /// The whole message the frame was cut from. Its frames share it, each
  /// viewing its own slice, and it lives until the last frame is gone.
  std::shared_ptr<const Buffer> message;
  ByteSpan payload;  ///< this frame's slice of `message`
};

/// Acquires a fresh DpdkFrame from the process-wide slab pool.
inline std::shared_ptr<DpdkFrame> acquire_frame() {
  static common::SlabPool<DpdkFrame> pool;
  return pool.make();
}

class DpdkPort {
 public:
  using MessageFn = std::function<void(fabric::HostId src, Buffer&&)>;

  explicit DpdkPort(fabric::Host& host);

  DpdkPort(const DpdkPort&) = delete;
  DpdkPort& operator=(const DpdkPort&) = delete;

  /// Starts the PMD: the pinned core spins from now on.
  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Sends a message (chunked at the DPDK burst/frame size) to the peer
  /// port on `dst`. Fails if the port is not running or the NIC lacks DPDK.
  /// `tenant` classifies the frames for the NIC's per-tenant scheduler.
  Status send(fabric::HostId dst, Buffer message, std::uint32_t tenant = 0);

  void set_on_message(MessageFn cb) { on_message_ = std::move(cb); }

  /// Core-seconds burned by the pinned core since start (always wall time
  /// while running: a PMD core spins even when idle).
  [[nodiscard]] double spin_core_busy_ns() const noexcept;

  /// Actual packet-processing work done by the PMD (for efficiency stats).
  [[nodiscard]] sim::Resource& pmd_core() noexcept { return pmd_core_; }

  [[nodiscard]] std::uint64_t messages_delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::size_t tx_queue_depth() const noexcept { return tx_queue_.size(); }
  /// Fires when the tx queue drains below the notification threshold.
  void set_on_tx_space(std::function<void()> cb) { on_tx_space_ = std::move(cb); }

 private:
  void on_frame(fabric::PacketPtr packet);

  fabric::Host& host_;
  sim::Resource pmd_core_;
  bool running_ = false;
  SimTime started_at_ = 0;
  double spin_accum_ns_ = 0;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t delivered_ = 0;
  bool tx_active_ = false;
  struct TxMessage {
    fabric::HostId dst = fabric::k_invalid_host;
    Buffer data;
    std::uint32_t tenant = 0;
  };
  std::deque<TxMessage> tx_queue_;
  MessageFn on_message_;
  std::function<void()> on_tx_space_;

  struct Reassembly {
    Buffer data;
    std::uint32_t received = 0;
    std::uint32_t filled = 0;  ///< every byte below this is written
    /// Zeroes the unwritten bytes in [filled, upto).
    void zero_gap(std::uint32_t upto) noexcept {
      if (upto <= filled) return;
      std::memset(data.data() + filled, 0, upto - filled);
      filled = upto;
    }
  };
  std::map<std::pair<fabric::HostId, std::uint64_t>, Reassembly> rx_;

  void pump_tx();
  void stream_frames(const std::shared_ptr<const Buffer>& msg, std::uint64_t msg_id,
                     fabric::HostId dst, std::uint32_t tenant, std::uint32_t offset);

  static constexpr std::uint32_t k_frame_payload = 4096;  // burst unit
  static constexpr std::uint32_t k_frame_header = 42;
};

}  // namespace freeflow::dpdk
