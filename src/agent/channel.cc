#include "agent/channel.h"

#include "agent/agent.h"

#include "common/logging.h"

namespace freeflow::agent {

// ------------------------------------------------------------- LaneSender

LaneSender::LaneSender(std::shared_ptr<shm::ShmLane> lane) : lane_(std::move(lane)) {
  lane_->set_on_space([this]() { drain(); });
}

void LaneSender::send(Message&& message) {
  if (overflow_.empty() && lane_->send(std::move(message)).is_ok()) return;
  overflow_.push_back(std::move(message));
}

bool LaneSender::writable() const noexcept {
  return overflow_.empty() && lane_->can_send(1);
}

void LaneSender::drain() {
  while (!overflow_.empty()) {
    if (!lane_->send(std::move(overflow_.front())).is_ok()) return;
    overflow_.pop_front();
  }
  if (user_on_space_) user_on_space_();
}

void LaneSender::detach() noexcept {
  lane_->set_on_space(nullptr);
  user_on_space_ = nullptr;
  overflow_.clear();
}

// ------------------------------------------------------- ShmChannelEndpoint

ShmChannelEndpoint::ShmChannelEndpoint(std::shared_ptr<shm::ShmLane> tx,
                                       std::shared_ptr<shm::ShmLane> rx)
    : tx_(std::move(tx)), rx_(std::move(rx)) {}

ShmChannelEndpoint::~ShmChannelEndpoint() { close(); }

Status ShmChannelEndpoint::send(Message&& message) {
  if (closed_) return failed_precondition("channel closed");
  tx_.send(std::move(message));
  return ok_status();
}

void ShmChannelEndpoint::set_on_message(DeliverFn cb) {
  rx_->set_receiver([this, cb = std::move(cb)](Message&& msg) {
    if (!closed_ && cb) cb(std::move(msg));
  });
}

void ShmChannelEndpoint::close() noexcept {
  if (closed_) return;
  closed_ = true;
  // Unhook our slots on the shared lanes: the receive hook (so in-flight
  // traffic is dropped, not delivered to a dead handler) and the tx space
  // re-arm. Messages already in the tx lane still drain to the peer — its
  // receive hook lives on the other lane end.
  rx_->set_receiver(nullptr);
  tx_.detach();
  // Unlink the segment's name; the budget charge stays until both endpoints
  // release the region (shm_unlink with live mappings).
  if (region_) registry_->unlink(region_->id());
}

// ---------------------------------------------------- RemoteChannelEndpoint

RemoteChannelEndpoint::RemoteChannelEndpoint(Agent& local_agent, fabric::HostId peer_host,
                                             std::uint64_t channel_id,
                                             orch::Transport transport,
                                             std::shared_ptr<shm::ShmLane> to_agent,
                                             std::shared_ptr<shm::ShmLane> from_agent)
    : agent_(local_agent),
      peer_host_(peer_host),
      channel_id_(channel_id),
      transport_(transport),
      tx_(std::move(to_agent)),
      from_agent_(from_agent),
      inbound_(from_agent) {
  // The container->agent relay hook is installed by the Agent (see
  // Agent::open_endpoint): it captures routing fields by value, not this
  // endpoint, so the lane keeps draining after the endpoint is torn down.
}

RemoteChannelEndpoint::~RemoteChannelEndpoint() { close(); }

bool RemoteChannelEndpoint::writable() const noexcept {
  return tx_.writable() && agent_.trunk_writable(peer_host_, transport_);
}

Status RemoteChannelEndpoint::send(Message&& message) {
  if (closed_) return failed_precondition("channel closed");
  tx_.send(std::move(message));
  return ok_status();
}

void RemoteChannelEndpoint::set_on_message(DeliverFn cb) {
  from_agent_->set_receiver([this, cb = std::move(cb)](Message&& msg) {
    if (!closed_ && cb) cb(std::move(msg));
  });
}

void RemoteChannelEndpoint::deliver_inbound(Message&& message) {
  if (closed_) return;
  inbound_.send(std::move(message));
}

void RemoteChannelEndpoint::close() noexcept {
  if (closed_) return;
  closed_ = true;
  // Unhook the container-facing receive hook and both sender re-arms; the
  // agent-owned outbound relay on the container->agent lane stays so queued records (the
  // closing bye among them) still reach the trunk. Deregistering with the
  // agent stops inbound records from resolving to this channel id.
  from_agent_->set_receiver(nullptr);
  tx_.detach();
  inbound_.detach();
  agent_.release_channel(channel_id_);
}

}  // namespace freeflow::agent
