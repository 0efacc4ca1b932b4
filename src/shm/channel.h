// Simulation-level shared-memory message channel between two containers on
// the same host. Payload bytes really travel through an SpscRing; the cost
// model charges sender/receiver CPU (enqueue + memcpy) and the host memory
// bus, which is what makes shm throughput plateau at the bus for many pairs
// (paper Fig. 2a) while staying far above TCP/RDMA for one pair.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/bytes.h"
#include "common/handler_slot.h"
#include "common/status.h"
#include "fabric/host.h"
#include "shm/spsc_ring.h"
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
/// traffic still in the ring without dangling the pending event. Stack- or
/// unique-owned lanes (workload drivers) must simply outlive the run.
class ShmLane : public std::enable_shared_from_this<ShmLane> {
 public:
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

  /// Invoked whenever a pop frees ring space (senders blocked on
  /// would_block re-arm themselves here).
  void set_on_space(std::function<void()> cb) { on_space_.set(std::move(cb)); }

  [[nodiscard]] bool can_send(std::size_t payload) const noexcept {
    return ring_.can_push(payload);
  }

  /// Enqueues one message (bytes are copied into the ring; the caller keeps
  /// its buffer). Returns would_block, with no side effects, when the ring
  /// lacks space — retry from on_space.
  Status send(ByteSpan message);

  [[nodiscard]] std::uint64_t messages_delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept { return bytes_delivered_; }
  [[nodiscard]] SpscRing& ring() noexcept { return ring_; }
  [[nodiscard]] fabric::Host& host() noexcept { return host_; }

 private:
  void deliver_one(std::size_t payload_size);

  fabric::Host& host_;
  /// Producer and consumer are each one thread: their copies serialize.
  sim::SerialExecutor tx_thread_;
  sim::SerialExecutor rx_thread_;
  SpscRing ring_;
  common::HandlerSlot<void(Buffer&&)> on_message_;
  common::HandlerSlot<void()> on_space_;
  sim::UsageAccount* sender_account_ = nullptr;
  sim::UsageAccount* receiver_account_ = nullptr;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
};

/// Bidirectional channel: two lanes over one logical shm region.
class ShmChannel {
 public:
  ShmChannel(fabric::Host& host, std::size_t ring_bytes)
      : a_to_b_(host, ring_bytes), b_to_a_(host, ring_bytes) {}

  [[nodiscard]] ShmLane& a_to_b() noexcept { return a_to_b_; }
  [[nodiscard]] ShmLane& b_to_a() noexcept { return b_to_a_; }

 private:
  ShmLane a_to_b_;
  ShmLane b_to_a_;
};

/// Models "memcpy uses CPU and memory bus simultaneously": charges the bus
/// as contention-only work, defers the CPU job by the bus backlog observed
/// before our own charge, so the binding constraint approximates
/// max(cpu, bus) rather than their sum.
void charge_bus_then_cpu(fabric::Host& host, double bus_bytes, double cpu_units,
                         sim::UsageAccount* account, std::function<void()> done);

}  // namespace freeflow::shm
