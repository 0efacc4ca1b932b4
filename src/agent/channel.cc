#include "agent/channel.h"

#include "agent/agent.h"

#include "common/logging.h"

namespace freeflow::agent {

// ------------------------------------------------------- ShmChannelEndpoint

ShmChannelEndpoint::ShmChannelEndpoint(std::shared_ptr<shm::ShmLane> tx,
                                       std::shared_ptr<shm::ShmLane> rx)
    : tx_(std::move(tx)), rx_(std::move(rx)) {}

ShmChannelEndpoint::~ShmChannelEndpoint() { close(); }

Status ShmChannelEndpoint::send(Message&& message) {
  if (closed_) return failed_precondition("channel closed");
  tx_->send(std::move(message));
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
  // traffic is dropped, not delivered to a dead handler) and the tx lane's
  // sender side. Messages already in the tx ring still drain to the peer —
  // its receive hook lives on the other lane end.
  rx_->set_receiver(nullptr);
  tx_->close_sender();
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
      from_agent_(std::move(from_agent)) {
  // The container->agent relay hook is installed by the Agent (see
  // Agent::open_endpoint): it captures routing fields by value, not this
  // endpoint, so the lane keeps draining after the endpoint is torn down.
}

RemoteChannelEndpoint::~RemoteChannelEndpoint() { close(); }

bool RemoteChannelEndpoint::writable() const noexcept {
  return tx_->writable() && agent_.trunk_writable(peer_host_, transport_);
}

Status RemoteChannelEndpoint::send(Message&& message) {
  if (closed_) return failed_precondition("channel closed");
  tx_->send(std::move(message));
  return ok_status();
}

void RemoteChannelEndpoint::set_on_message(DeliverFn cb) {
  from_agent_->set_receiver([this, cb = std::move(cb)](Message&& msg) {
    if (!closed_ && cb) cb(std::move(msg));
  });
}

void RemoteChannelEndpoint::deliver_inbound(Message&& message) {
  if (closed_) return;
  from_agent_->send(std::move(message));
}

void RemoteChannelEndpoint::close() noexcept {
  if (closed_) return;
  closed_ = true;
  // Unhook the container-facing receive hook and both lanes' senders; the
  // agent-owned outbound relay on the container->agent lane stays so queued records (the
  // closing bye among them) still reach the trunk. Deregistering with the
  // agent stops inbound records from resolving to this channel id.
  from_agent_->set_receiver(nullptr);
  tx_->close_sender();
  from_agent_->close_sender();
  agent_.release_channel(channel_id_);
}

}  // namespace freeflow::agent
