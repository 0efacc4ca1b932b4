// RecordPipe: whole records over one TcpConnection's byte stream, framed by
// common/framing.h — the one record pipe under the agents' TcpTrunk and a
// per_stream_qp socket's TcpFallbackChannel. Sent records wait, framed, in
// a FIFO and leave it only when the connection's send buffer admits them
// whole; received bytes accumulate until pop_record() yields a record.
//
// The connection's callbacks hold only a weak handle to the pipe, and the
// destructor releases them: a dropped pipe leaves the connection nothing
// to call.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "common/bytes.h"
#include "tcpstack/connection.h"

namespace freeflow::tcp {

class RecordPipe : public std::enable_shared_from_this<RecordPipe> {
 public:
  /// `on_record` gets each received record, `on_writable` runs once the
  /// connection's writable transition has pumped the queue, and `on_close`
  /// reports the peer's FIN or RST.
  RecordPipe(std::function<void(Buffer&&)> on_record, std::function<void()> on_writable,
             std::function<void()> on_close = nullptr)
      : on_record_(std::move(on_record)),
        on_writable_(std::move(on_writable)),
        on_close_(std::move(on_close)) {}
  ~RecordPipe() {
    if (conn_ != nullptr) conn_->release_callbacks();
  }
  RecordPipe(const RecordPipe&) = delete;
  RecordPipe& operator=(const RecordPipe&) = delete;

  /// Wires the connection (either side) and pumps what queued before it.
  void attach(TcpConnection::Ptr conn);
  [[nodiscard]] bool attached() const noexcept { return conn_ != nullptr; }

  /// Frames `head`, `body` and `tail` in one copy, queues the frame and
  /// pumps.
  void send(ByteSpan head, ByteSpan body = {}, ByteSpan tail = {});

  /// Framed records waiting for the connection or its send buffer.
  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }
  /// Attached, nothing queued, and the connection takes more bytes.
  [[nodiscard]] bool writable() const noexcept {
    return conn_ != nullptr && queue_.empty() && conn_->writable();
  }

  /// Drops the queued records.
  void clear() noexcept { queue_.clear(); }
  /// Drops the queued records and the connection's callbacks, then closes
  /// the connection gracefully.
  void close() noexcept;

 private:
  void pump();

  TcpConnection::Ptr conn_;
  std::deque<Buffer> queue_;
  Buffer rx_accum_;
  std::function<void(Buffer&&)> on_record_;
  std::function<void()> on_writable_;
  std::function<void()> on_close_;
};

}  // namespace freeflow::tcp
