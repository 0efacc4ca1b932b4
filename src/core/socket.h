// FreeFlow's socket API: a reliable byte stream with the familiar
// listen/connect/send shapes, translated by the library onto the verbs-like
// message conduit (rsocket-style). Applications using sockets get the
// orchestrator-chosen data plane without a line of code changing.
#pragma once

#include <memory>

#include "core/conduit.h"

namespace freeflow::core {

class ContainerNet;

class FlowSocket : public std::enable_shared_from_this<FlowSocket> {
 public:
  using DataFn = std::function<void(Buffer&&)>;
  using VoidFn = std::function<void()>;
  using CloseFn = std::function<void(CloseReason)>;

  FlowSocket(ContainerNet& net, ConduitPtr conduit);

  FlowSocket(const FlowSocket&) = delete;
  FlowSocket& operator=(const FlowSocket&) = delete;

  /// Sends stream bytes (chunked into conduit messages), taking over
  /// `data`: its block travels to the peer as it is, and a write through
  /// another handle on it copies that handle's bytes first. Never blocks;
  /// pace on writable()/on_space for bounded memory.
  Status send(Buffer data);

  [[nodiscard]] bool writable() const noexcept { return open_ && conduit_->writable(); }

  void set_on_data(DataFn cb) { on_data_ = std::move(cb); }
  /// Fires on every blocked -> writable transition, a re-attach after
  /// failover or migration and an unpause included, so a sender paced on
  /// it never needs to poll.
  void set_on_space(VoidFn cb);
  /// Fires once when the stream closes from anywhere but local close():
  /// orderly fin (peer_bye), fault teardown (transport_failed /
  /// host_crashed), or a close handshake that timed out (drain_timeout).
  void set_on_close(CloseFn cb) { on_close_ = std::move(cb); }

  void close();

  [[nodiscard]] bool is_open() const noexcept { return open_; }
  [[nodiscard]] orch::Transport transport() const noexcept { return conduit_->transport(); }
  [[nodiscard]] ConduitPtr conduit() const noexcept { return conduit_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept { return bytes_received_; }

  /// ContainerNet-internal: wires conduit messages to this socket.
  void bind();

  /// Stream chunk size (matches the kernel stack's GSO unit for fairness).
  static constexpr std::size_t k_chunk = 64 * 1024;

 private:
  void handle_message(const WireHeader& header, Buffer&& payload);
  /// Once closed, the stored callbacks are dead weight — and worse, an
  /// application closure that captures its own stream adapter would cycle
  /// back to this socket through on_data_. Dropping them on every close
  /// path keeps socket ownership a DAG.
  void release_callbacks() noexcept;

  ContainerNet& net_;
  ConduitPtr conduit_;
  bool open_ = true;
  DataFn on_data_;
  CloseFn on_close_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

using FlowSocketPtr = std::shared_ptr<FlowSocket>;

}  // namespace freeflow::core
