// Stream adapters: one byte-stream interface over either a FreeFlow socket
// or a kernel-TCP connection, so application workloads (KV store, shuffle)
// run identically on FreeFlow and on the overlay baseline — which is the
// whole point of the paper's transparency claim.
#pragma once

#include <functional>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"
#include "core/socket.h"
#include "tcpstack/connection.h"

namespace freeflow::workloads {

class StreamAdapter {
 public:
  using DataFn = std::function<void(Buffer&&)>;

  virtual ~StreamAdapter() = default;
  virtual Status send(Buffer data) = 0;
  virtual void set_on_data(DataFn cb) = 0;
  /// Fires when a previously backpressured stream can accept more data.
  virtual void set_on_writable(std::function<void()> cb) = 0;
};

using StreamPtr = std::shared_ptr<StreamAdapter>;

class SocketStream final : public StreamAdapter {
 public:
  explicit SocketStream(core::FlowSocketPtr sock) : sock_(std::move(sock)) {}

  Status send(Buffer data) override { return sock_->send(std::move(data)); }
  void set_on_data(DataFn cb) override { sock_->set_on_data(std::move(cb)); }
  void set_on_writable(std::function<void()> cb) override {
    sock_->set_on_space(std::move(cb));
  }

 private:
  core::FlowSocketPtr sock_;
};

class TcpStream final : public StreamAdapter {
 public:
  explicit TcpStream(tcp::TcpConnection::Ptr conn) : conn_(std::move(conn)) {}

  Status send(Buffer data) override {
    const Status s = conn_->send(std::move(data));
    // The kernel path exerts backpressure via would_block; workloads pace
    // themselves, so surface it unchanged.
    return s;
  }
  void set_on_data(DataFn cb) override { conn_->set_on_data(std::move(cb)); }
  void set_on_writable(std::function<void()> cb) override {
    conn_->set_on_writable(std::move(cb));
  }

 private:
  tcp::TcpConnection::Ptr conn_;
};

}  // namespace freeflow::workloads
