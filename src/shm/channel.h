// Simulation-level shared-memory message channel between two containers on
// the same host. A lane is a descriptor queue of owned messages: the sender
// gathers each message once (its modelled copy into the shared segment) and
// the receiver is handed that very buffer, so one host copy stands for the
// modelled copy-in and copy-out. Admission is a flat byte ring's: until it is
// delivered, each queued message holds its payload plus a 4-byte length
// header of the lane's capacity, so backpressure is what a length-prefixed
// ring of the same size in the shared segment would give.
// The cost model charges sender/receiver CPU (enqueue + memcpy) and the host
// memory bus, which is what makes shm throughput plateau at the bus for many
// pairs (paper Fig. 2a) while staying far above TCP/RDMA for one pair.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/bytes.h"
#include "common/handler_slot.h"
#include "common/status.h"
#include "fabric/host.h"
#include "sim/resource.h"

namespace freeflow::shm {

/// One direction of a channel.
///
/// Lifetime: work queued on the lane's own executors dies with the lane
/// (SerialExecutor's liveness token turns in-flight pool completions into
/// no-ops), so queued jobs never pin their owner — no leak cycle at
/// shutdown. Only the cross-core wakeup hop through the event loop escapes
/// the lane; when the lane is shared_ptr-owned (agent-brokered channels)
/// that hop carries a keep-alive, so an endpoint may be torn down with
/// traffic still queued without dangling the pending event. Stack- or
/// unique-owned lanes (workload drivers) must simply outlive the run.
class ShmLane : public std::enable_shared_from_this<ShmLane> {
 public:
  /// Bytes a queued message of `payload` size holds: header + payload.
  [[nodiscard]] static constexpr std::size_t record_size(std::size_t payload) noexcept {
    return k_header_size + payload;
  }

  /// Largest message a lane asked for `ring_bytes` can ever take: it must
  /// fit whole while the lane is empty.
  [[nodiscard]] static constexpr std::size_t max_payload(std::size_t ring_bytes) noexcept {
    return std::bit_ceil(ring_bytes) - k_header_size;
  }

  /// Admits what a flat ring of `ring_bytes` (rounded up to a power of two,
  /// >= 64) would: each queued message holds record_size bytes of it.
  ShmLane(fabric::Host& host, std::size_t ring_bytes);

  ShmLane(const ShmLane&) = delete;
  ShmLane& operator=(const ShmLane&) = delete;

  void set_sender_account(sim::UsageAccount* account) noexcept { sender_account_ = account; }
  void set_receiver_account(sim::UsageAccount* account) noexcept { receiver_account_ = account; }
  /// Both handlers run in place; one set while a delivery is dispatching
  /// takes effect once that dispatch returns (see common::HandlerSlot).
  void set_receiver(std::function<void(Buffer&&)> on_message) {
    on_message_.set(std::move(on_message));
  }

  /// Invoked whenever a delivery frees lane space (senders blocked on
  /// would_block re-arm themselves here).
  void set_on_space(std::function<void()> cb) { on_space_.set(std::move(cb)); }

  [[nodiscard]] bool can_send(std::size_t payload) const noexcept;

  /// Enqueues one message, `head` followed by `body`, gathered into one
  /// owned buffer (the caller keeps its buffers). Returns would_block, with
  /// no side effects, when the lane lacks space — retry from on_space.
  Status send(ByteSpan head, ByteSpan body = {});
  /// Enqueues `message` itself. On would_block it is left untouched.
  Status send(Buffer&& message);

  /// True when no message waits for delivery.
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept { return delivered_; }
  [[nodiscard]] fabric::Host& host() noexcept { return host_; }

 private:
  static constexpr std::size_t k_header_size = 4;

  void enqueue(Buffer&& message);
  void deliver_one(std::size_t payload_size);

  fabric::Host& host_;
  /// Producer and consumer are each one thread: their copies serialize.
  sim::SerialExecutor tx_thread_;
  sim::SerialExecutor rx_thread_;
  std::size_t capacity_;
  std::size_t used_ = 0;  ///< record bytes of the queued messages
  std::deque<Buffer> queue_;
  common::HandlerSlot<void(Buffer&&)> on_message_;
  common::HandlerSlot<void()> on_space_;
  sim::UsageAccount* sender_account_ = nullptr;
  sim::UsageAccount* receiver_account_ = nullptr;
  std::uint64_t delivered_ = 0;
};

}  // namespace freeflow::shm
