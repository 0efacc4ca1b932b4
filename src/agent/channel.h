// Transport-agnostic duplex message channels between two containers. The
// core library's virtual NIC sits on top of exactly this interface, which
// is how the actual data-plane mechanism stays invisible to applications.
//
// send() never rejects for backpressure: a lane-backed endpoint's lane puts
// what does not fit in its overflow, and the per-stream channels queue
// internally; both drain as space frees. `writable()` is the advisory
// signal sources should pace on (closed-loop workloads never build a
// queue), and the space callback fires at least on every transition back to
// writable (an shm lane fires it after every delivery), so nothing polls.
//
// A message goes in as a Message (common/message.h): a header held by value
// and a handle on the payload's block. The shm and remote endpoints put it
// on their lane as it is, so neither the payload a socket handed over nor a
// conduit's retained share of it is ever copied on the way; the per-stream
// channels copy its parts into their send slots and frames.
//
// The interface carries no peer identity and no closed() query: the conduit
// that owns a channel knows its peer and whether it closed it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/message.h"
#include "common/status.h"
#include "orchestrator/container.h"
#include "orchestrator/network_orchestrator.h"
#include "shm/channel.h"
#include "shm/region.h"

namespace freeflow::agent {

class Agent;

class Channel {
 public:
  using DeliverFn = std::function<void(Message&&)>;

  virtual ~Channel() = default;

  /// Sends one message, taking it over; fails only if the channel is
  /// closed. Lane-backed endpoints queue this very message (its payload
  /// block shared, never copied); the per-stream channels copy its head and
  /// body into a send slot or a frame. Received messages arrive whole: as
  /// sent over shm, headless (header at the front of the body) where a
  /// transport delivered the bytes contiguously.
  virtual Status send(Message&& message) = 0;

  /// False while the underlying lane is full (advisory pacing signal).
  [[nodiscard]] virtual bool writable() const noexcept = 0;

  virtual void set_on_message(DeliverFn cb) = 0;
  /// Invoked on every transition back to writable; an shm endpoint calls it
  /// after every delivery.
  virtual void set_on_space(std::function<void()> cb) = 0;

  /// Hands back the messages this end sent that its peer has not been
  /// handed, oldest first: an shm endpoint's lane and overflow, which
  /// nothing retains. Lossy channels return none — the conduit's retained
  /// window replays what they lose.
  [[nodiscard]] virtual std::vector<Message> take_unsent() { return {}; }

  [[nodiscard]] virtual orch::Transport transport() const noexcept = 0;

  /// After close() the endpoint drops all traffic (used on migration).
  virtual void close() noexcept = 0;

  /// Failure observer: the agent fails a channel when the lane backing it
  /// dies (NIC fault, trunk declared dead). Distinct from close(): the
  /// owner is expected to detach and splice onto a fallback transport.
  void set_on_failed(std::function<void()> cb) { on_failed_ = std::move(cb); }
  void fail() {
    // Move-out first: the observer typically detaches this channel.
    auto cb = std::move(on_failed_);
    on_failed_ = nullptr;
    if (cb) cb();
  }

 private:
  std::function<void()> on_failed_;
};

using ChannelPtr = std::shared_ptr<Channel>;

/// Intra-host endpoint: a pair of shm lanes directly between the two
/// containers (the agent only brokers setup — the data plane is pure
/// shared memory, paper Fig. 7).
class ShmChannelEndpoint final : public Channel {
 public:
  ShmChannelEndpoint(std::shared_ptr<shm::ShmLane> tx, std::shared_ptr<shm::ShmLane> rx);
  ~ShmChannelEndpoint() override;

  Status send(Message&& message) override;
  [[nodiscard]] bool writable() const noexcept override { return tx_->writable(); }
  void set_on_message(DeliverFn cb) override;
  void set_on_space(std::function<void()> cb) override { tx_->set_on_space(std::move(cb)); }
  [[nodiscard]] std::vector<Message> take_unsent() override { return tx_->take_back(); }
  [[nodiscard]] orch::Transport transport() const noexcept override {
    return orch::Transport::shm;
  }
  void close() noexcept override;

  /// Ties the backing shm region's budget charge to this endpoint's
  /// lifetime; close() unlinks it from `registry` (idempotently, so the
  /// pair's two closes unlink it once).
  void hold_region(std::shared_ptr<shm::Region> region, shm::RegionRegistry& registry) {
    region_ = std::move(region);
    registry_ = &registry;
  }

 private:
  std::shared_ptr<shm::ShmLane> tx_;
  std::shared_ptr<shm::ShmLane> rx_;
  std::shared_ptr<shm::Region> region_;
  shm::RegionRegistry* registry_ = nullptr;
  bool closed_ = false;
};

/// Inter-host endpoint: container <-shm-> local agent <-trunk-> remote
/// agent <-shm-> container.
class RemoteChannelEndpoint final
    : public Channel,
      public std::enable_shared_from_this<RemoteChannelEndpoint> {
 public:
  RemoteChannelEndpoint(Agent& local_agent, fabric::HostId peer_host,
                        std::uint64_t channel_id, orch::Transport transport,
                        std::shared_ptr<shm::ShmLane> to_agent,
                        std::shared_ptr<shm::ShmLane> from_agent);
  ~RemoteChannelEndpoint() override;

  Status send(Message&& message) override;
  /// Writable only while both the container->agent lane has space AND the
  /// agent's trunk toward the peer host is uncongested — this propagates
  /// NIC-rate backpressure all the way to the application.
  [[nodiscard]] bool writable() const noexcept override;
  void set_on_message(DeliverFn cb) override;
  void set_on_space(std::function<void()> cb) override { tx_->set_on_space(std::move(cb)); }
  /// Agent-internal: trunk drained, re-signal writability.
  void poke_space() { tx_->poke(); }
  [[nodiscard]] orch::Transport transport() const noexcept override { return transport_; }
  void close() noexcept override;
  [[nodiscard]] bool closed() const noexcept { return closed_; }

  [[nodiscard]] std::uint64_t channel_id() const noexcept { return channel_id_; }
  [[nodiscard]] fabric::HostId peer_host() const noexcept { return peer_host_; }

  /// Agent-side: delivers a fully reassembled inbound message.
  void deliver_inbound(Message&& message);

 private:
  Agent& agent_;
  fabric::HostId peer_host_;
  std::uint64_t channel_id_;
  orch::Transport transport_;
  std::shared_ptr<shm::ShmLane> tx_;          ///< container -> agent
  std::shared_ptr<shm::ShmLane> from_agent_;  ///< agent -> container
  bool closed_ = false;
};

}  // namespace freeflow::agent
