// SlotQp: a connected RC queue pair whose send and receive MRs are cut into
// fixed-size slots — the one engine under the agents' shared RdmaTrunk (one
// QP per host pair, paper §3) and a per_stream_qp socket's RcStreamChannel
// (one QP per stream, TSoR). It owns the MRs, both CQs, the QP, the free
// send-slot list, receive reposting, completion wakeups and the poll loop;
// queueing, credits and CPU charges beyond the verbs' own stay with the user.
//
// Lifetime: the scheduled poll holds only a weak handle, and the destructor
// unhooks the CQ notifies (the CQs live on in the device registry), so a
// user that drops its engine leaves no event or hook that can reach it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "rdma/device.h"
#include "rdma/queue_pair.h"

namespace freeflow::rdma {

class SlotQp : public std::enable_shared_from_this<SlotQp> {
 public:
  /// Gets one received message; returning false ends the poll (the user
  /// closed mid-batch).
  using RecvFn = std::function<bool(Buffer&&)>;

  /// `send_slots` and `recv_slots` slots of `slot_bytes` each, CQs of 4
  /// entries and a QP of 2 WRs per slot. Verb posts and polls are charged
  /// to `account`; `tenant` is the QP's default traffic class.
  SlotQp(RdmaDevice& device, sim::UsageAccount* account, std::size_t slot_bytes,
         std::uint32_t send_slots, std::uint32_t recv_slots, std::uint32_t tenant = 0);
  ~SlotQp() { unhook(); }
  SlotQp(const SlotQp&) = delete;
  SlotQp& operator=(const SlotQp&) = delete;

  /// Posts every receive slot and hooks both CQs: a completion schedules
  /// one `on_wake` call agent_wakeup_ns later (at most one pending), from
  /// which the user polls. poll() hands receives to `on_recv`.
  void start(std::function<void()> on_wake, RecvFn on_recv);
  /// Unhooks the CQs: no new wakeup is scheduled (a pending one still fires).
  void unhook() noexcept {
    send_cq_->set_notify(nullptr);
    recv_cq_->set_notify(nullptr);
  }

  /// The QP is ready and a send slot is free.
  [[nodiscard]] bool can_post() const noexcept {
    return qp_->state() == QpState::ready && !free_slots_.empty();
  }
  /// Gathers `head` and `body` into a free send slot and posts a signaled
  /// SEND of class `tenant` (0: the QP's). Requires can_post().
  void post(ByteSpan head, ByteSpan body = {}, std::uint32_t tenant = 0);

  /// Drains both CQs, charging rdma_poll_ns per completion. A send
  /// completion frees its slot. A receive is copied out, its slot reposted,
  /// and only then the copy handed to `on_recv` (DESIGN §5: the repost can
  /// drain an RNR backlog into that very slot). False if any completion
  /// failed; a failed receive is reposted, not handed over.
  [[nodiscard]] bool poll();

  [[nodiscard]] const std::shared_ptr<QueuePair>& qp() const noexcept { return qp_; }
  [[nodiscard]] RdmaDevice& device() noexcept { return device_; }

 private:
  void repost_recv(std::uint32_t slot);

  RdmaDevice& device_;
  sim::UsageAccount* account_;
  std::size_t slot_bytes_;
  std::uint32_t recv_slots_;
  MrPtr send_mr_;
  MrPtr recv_mr_;
  CqPtr send_cq_;
  CqPtr recv_cq_;
  std::shared_ptr<QueuePair> qp_;
  std::vector<std::uint32_t> free_slots_;
  std::function<void()> on_wake_;
  RecvFn on_recv_;
  bool poll_scheduled_ = false;
};

}  // namespace freeflow::rdma
