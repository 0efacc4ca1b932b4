// Software RDMA Verbs: the API surface mirrors libibverbs (protection
// domains, registered memory regions with lkey/rkey, completion queues,
// reliable-connected queue pairs, SEND/RECV/WRITE/READ work requests) so
// that FreeFlow's vNIC can intercept the very same call shapes the paper's
// containers issue. Execution is performed by the simulated NIC processor
// over the fabric; RoCE-style lossless delivery (PFC) is assumed, as on the
// paper's CX3 testbed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/status.h"
#include "sim/resource.h"

namespace freeflow::rdma {

class RdmaDevice;
class QueuePair;

using QpNum = std::uint32_t;
using Key = std::uint32_t;

enum class Opcode : std::uint8_t { send, recv, write, read };

enum class WcStatus : std::uint8_t {
  success,
  local_length_error,
  remote_access_error,
  qp_error,
};

struct WorkCompletion {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::send;
  WcStatus status = WcStatus::success;
  std::uint32_t byte_len = 0;
  QpNum qp_num = 0;
};

/// Registered memory: a real buffer addressable by (key, offset).
///
/// Like ibv_reg_mr, registration takes the memory as it is: the bytes start
/// uninitialised and nothing is zero-filled, so a large MR (an agent
/// trunk's slot ring) faults its pages in as records are first written, not
/// at registration. Nothing reads MR bytes it has not written; an owner
/// that posts a buffer as it is fills it first.
///
/// Storage of k_pooled_bytes or more outlives its MR: it goes back to a
/// per-length pool and the next MR of that length takes it as it is, so
/// steady trunk churn reuses the pages earlier slot rings faulted in
/// instead of faulting fresh heap in every time. Sanitizer builds fill
/// recycled storage with a poison byte, so stale bytes never pass for new.
class MemoryRegion {
 public:
  static constexpr std::size_t k_pooled_bytes = 1 << 20;

  MemoryRegion(Key lkey, Key rkey, std::size_t length);
  ~MemoryRegion();

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  /// Storage blocks of `length` bytes waiting in the pool.
  [[nodiscard]] static std::size_t pooled_blocks(std::size_t length);

  [[nodiscard]] Key lkey() const noexcept { return lkey_; }
  [[nodiscard]] Key rkey() const noexcept { return rkey_; }
  [[nodiscard]] std::size_t length() const noexcept { return data_.size(); }
  [[nodiscard]] Buffer& data() noexcept { return data_; }
  [[nodiscard]] const Buffer& data() const noexcept { return data_; }

  /// Bounds-checked views.
  [[nodiscard]] Result<MutableByteSpan> slice(std::size_t offset, std::size_t len) {
    if (offset + len > data_.size()) return out_of_range("MR slice out of bounds");
    return MutableByteSpan{data_.data() + offset, len};
  }

 private:
  Key lkey_;
  Key rkey_;
  Buffer data_;
};

using MrPtr = std::shared_ptr<MemoryRegion>;

/// Completion queue. Consumers either poll (paying per-completion CPU, like
/// busy-polling verbs apps) or register a notify callback (comp-channel
/// style, paying a wakeup latency).
class CompletionQueue {
 public:
  explicit CompletionQueue(std::size_t capacity = 4096) : capacity_(capacity) {}

  /// Drains up to `out.size()` completions. Does NOT charge CPU — callers
  /// that model an application loop should charge rdma_poll_ns per entry.
  std::size_t poll(std::span<WorkCompletion> out);

  [[nodiscard]] std::size_t depth() const noexcept { return entries_.size(); }
  [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }

  /// Comp-channel: invoked (once per push) when a completion arrives.
  void set_notify(std::function<void()> cb) { notify_ = std::move(cb); }

  /// Device-internal.
  void push(const WorkCompletion& wc);

 private:
  std::size_t capacity_;
  std::deque<WorkCompletion> entries_;
  std::function<void()> notify_;
  bool overflowed_ = false;
};

using CqPtr = std::shared_ptr<CompletionQueue>;

struct LocalBuffer {
  MrPtr mr;
  std::size_t offset = 0;
  std::size_t length = 0;
};

struct RemoteBuffer {
  Key rkey = 0;
  std::size_t offset = 0;
};

struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::send;  ///< send, write or read
  LocalBuffer local;
  RemoteBuffer remote;  ///< write/read only
  bool signaled = true;
  /// Traffic class stamped on the emitted chunks (0 = inherit QpAttr's).
  std::uint32_t tenant = 0;
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  LocalBuffer local;
};

struct QpAttr {
  std::uint32_t max_send_wr = 256;
  std::uint32_t max_recv_wr = 256;
  /// Default traffic class for every WR posted on the QP (per-stream RC QPs
  /// belong to exactly one container, so one class per QP fits them).
  std::uint32_t tenant = 0;
};

}  // namespace freeflow::rdma
