// StreamSocket: the stream adapter's application-facing byte stream. Same
// surface as core::FlowSocket (send / on_data / on_space / on_close), but
// the conduit underneath is bound by StreamNet, which splices it between
// the overlay-TCP fallback and a per-stream RDMA RC channel at runtime —
// the unmodified socket app never observes the transport changing.
//
// The socket additionally forwards the adapter's in-band control messages
// (rc_offer / rc_answer) back to StreamNet, and splits its byte counters
// by the transport each chunk actually arrived on, so benches and the CI
// gate can prove how much of the stream really rode RDMA.
#pragma once

#include <memory>

#include "core/conduit.h"
#include "telemetry/metrics.h"

namespace freeflow::stream {

class StreamSocket : public std::enable_shared_from_this<StreamSocket> {
 public:
  using DataFn = std::function<void(Buffer&&)>;
  using VoidFn = std::function<void()>;
  using CloseFn = std::function<void(core::CloseReason)>;
  using ControlFn = std::function<void(const core::WireHeader&)>;

  StreamSocket(core::ConduitPtr conduit, telemetry::Counter* rx_rdma_bytes,
               telemetry::Counter* rx_tcp_bytes);

  StreamSocket(const StreamSocket&) = delete;
  StreamSocket& operator=(const StreamSocket&) = delete;

  /// Sends stream bytes (chunked into conduit messages). Never blocks;
  /// pace on writable()/on_space for bounded memory.
  Status send(Buffer data);

  [[nodiscard]] bool writable() const noexcept { return open_ && conduit_->writable(); }

  void set_on_data(DataFn cb) { on_data_ = std::move(cb); }
  void set_on_space(VoidFn cb) { conduit_->set_on_space(std::move(cb)); }
  void set_on_close(CloseFn cb) { on_close_ = std::move(cb); }
  /// StreamNet-internal: receives the RC upgrade handshake messages.
  void set_on_control(ControlFn cb) { on_control_ = std::move(cb); }

  void close();

  [[nodiscard]] bool is_open() const noexcept { return open_; }
  [[nodiscard]] orch::Transport transport() const noexcept { return conduit_->transport(); }
  [[nodiscard]] core::ConduitPtr conduit() const noexcept { return conduit_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept { return bytes_received_; }
  /// Received-byte split by arrival transport (rdma vs everything else).
  [[nodiscard]] std::uint64_t bytes_rdma() const noexcept { return bytes_rdma_; }
  [[nodiscard]] std::uint64_t bytes_tcp() const noexcept { return bytes_tcp_; }

  /// StreamNet-internal: wires conduit messages to this socket.
  void bind();

  /// Stream chunk size (matches FlowSocket / the kernel stack's GSO unit).
  static constexpr std::size_t k_chunk = 64 * 1024;

 private:
  void handle_message(const core::WireHeader& header, Buffer&& payload);
  void release_callbacks() noexcept;

  core::ConduitPtr conduit_;
  bool open_ = true;
  DataFn on_data_;
  CloseFn on_close_;
  ControlFn on_control_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t bytes_rdma_ = 0;
  std::uint64_t bytes_tcp_ = 0;
  telemetry::Counter* ctr_rx_rdma_ = telemetry::Counter::discard();
  telemetry::Counter* ctr_rx_tcp_ = telemetry::Counter::discard();
};

using StreamSocketPtr = std::shared_ptr<StreamSocket>;

}  // namespace freeflow::stream
