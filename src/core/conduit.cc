#include "core/conduit.h"

#include <string>

#include "common/logging.h"
#include "orchestrator/network_orchestrator.h"

namespace freeflow::core {

namespace {
/// Trace coordinates: one "process" per container, one "thread" per conduit.
std::uint32_t trace_tid(std::uint64_t token) noexcept {
  return static_cast<std::uint32_t>(token);
}

void warn_if_failed(const Status& s) {
  if (!s.is_ok()) {
    FF_LOG(warn, "core") << "conduit send failed: " << s;
  }
}
}  // namespace

Conduit::Conduit(std::uint64_t token, orch::ContainerId self, orch::ContainerId peer,
                 tcp::Ipv4Addr peer_ip, std::uint16_t service_port, bool initiator,
                 telemetry::Telemetry& hub, sim::EventLoop& loop)
    : token_(token),
      self_(self),
      peer_(peer),
      peer_ip_(peer_ip),
      service_port_(service_port),
      initiator_(initiator),
      loop_(loop),
      tracer_(hub.tracer()) {
  // Both endpoints of a channel share the token, so the metric entity is
  // (token, endpoint container) — "conduit/<token>/c<self>/<metric>".
  const std::string prefix = "conduit/" + std::to_string(token_) + "/c" +
                             std::to_string(self_) + "/";
  auto& m = hub.metrics();
  ctr_sent_ = &m.counter(prefix + "sent");
  ctr_received_ = &m.counter(prefix + "received");
  ctr_acks_ = &m.counter(prefix + "acks");
  ctr_delayed_acks_ = &m.counter(prefix + "delayed_acks");
  ctr_retransmits_ = &m.counter(prefix + "retransmits");
  ctr_rebinds_ = &m.counter(prefix + "rebinds");
  ctr_window_full_ = &m.counter(prefix + "window_full");
  ctr_blackout_ns_ = &m.counter(prefix + "blackout_ns");
  ctr_blocked_ns_ = &m.counter(prefix + "blocked_ns");
  gauge_retained_ = &m.gauge(prefix + "retained");
  tracer_.name_thread(self_, trace_tid(token_), "conduit " + std::to_string(token_));
}

void Conduit::send(const WireHeader& header, Buffer payload) {
  if (closed_ || closing_) return;  // teardown races with in-flight sends
  WireHeader h = header;
  h.seq = ++tx_seq_;
  // The header is encoded on the stack and travels in front of the payload
  // block itself: no hop below copies the payload.
  const EncodedHeader head = encode_header(h, payload.size());
  Message message(head, std::move(payload));
  if (channel_ == nullptr || paused_) {
    // Detached, or transmit-frozen for quiesce: the sequence is assigned
    // (message-boundary pause keeps ordering contiguous) but the message
    // waits in the queue until drain() runs again.
    queue_.push_back(std::move(message));
    return;
  }
  transmit(h.seq, std::move(message));
}

void Conduit::send(const WireHeader& header, ByteSpan payload) {
  send(header, Buffer(payload.data(), payload.size()));
}

void Conduit::transmit(std::uint64_t seq, Message message) {
  // On a lossy channel the retained window keeps a share of the message:
  // a replay after a failover needs the bytes once the channel they went
  // out on is gone. The share copies the header, not the payload.
  if (retains()) {
    retained_.emplace_back(seq, message.share());
    gauge_retained_->set(static_cast<std::int64_t>(retained_.size()));
    if (retained_.size() == k_max_retained) note_window_filled();
  }
  ctr_sent_->inc();
  warn_if_failed(channel_->send(std::move(message)));
}

void Conduit::note_window_filled() {
  // The retained window just hit the cap: writable() deasserts until an ack
  // drains it. Track how long the app stays blocked on the window.
  ctr_window_full_->inc();
  window_full_since_ = loop_.now();
}

void Conduit::send_control(WireHeader header) {
  // Unsequenced (seq 0), never retained, not counted as sent — protocol
  // overhead, not traffic.
  if (channel_ == nullptr) return;
  header.token = token_;
  header.seq = 0;
  channel_->send(Message(encode_header(header)));
}

void Conduit::send_control(VMsg type, std::uint64_t id) {
  WireHeader h;
  h.type = type;
  h.id = id;
  send_control(h);
}

void Conduit::attach_channel(agent::ChannelPtr channel) {
  FF_CHECK(!closed_);
  if (channel_ != nullptr) {
    channel_->close();
  }
  // Until the retained replay and blackout drain below finish, nothing new
  // may enter the channel: an on_space_ fired mid-replay (the fresh channel
  // drains fast) would re-enter the application's pump and put a new, higher
  // sequence on the wire between two replayed ones — the peer sees a gap it
  // can never heal. Defer writable notifications until the splice completes.
  splicing_ = true;
  channel_ = std::move(channel);
  auto self = weak_from_this();
  channel_->set_on_message([self](Message&& message) {
    if (auto conduit = self.lock()) conduit->handle_message(std::move(message));
  });
  channel_->set_on_space([self]() {
    auto conduit = self.lock();
    if (conduit == nullptr) return;
    conduit->check_quiesced();
    if (!conduit->splicing_ && !conduit->paused_ && conduit->on_space_) {
      conduit->on_space_();
    }
  });
  channel_->set_on_failed([self]() {
    if (auto conduit = self.lock()) conduit->handle_channel_failed();
  });
  const bool recovering = in_blackout_;
  const orch::Transport now_on = channel_->transport();
  if (recovering) {
    in_blackout_ = false;
    ctr_blackout_ns_->inc(static_cast<std::uint64_t>(loop_.now() - blackout_started_));
    tracer_.instant("conduit", "rebind", self_, trace_tid(token_),
                    telemetry::Tracer::arg("to", std::string(orch::transport_name(now_on))));
  }
  retransmit_retained();
  if (recovering) {
    tracer_.end("conduit", "failover", self_, trace_tid(token_));
    // Re-attaching onto a strictly better transport than the one that died
    // is the heal-path re-upgrade (Transport enum orders best-first).
    if (static_cast<int>(now_on) < static_cast<int>(pre_failover_transport_)) {
      tracer_.instant("conduit", "re-upgrade", self_, trace_tid(token_),
                      telemetry::Tracer::arg("to", std::string(orch::transport_name(now_on))));
    }
  }
  drain();
  // A receive-side ack obligation may have been parked while detached
  // (delayed-ack timer fires as a no-op without a channel): resume it.
  if (since_ack_ > 0 || resync_ack_) arm_ack_timer();
  if (closing_) {
    // Close handshake started while stale: re-issue the bye on the new path
    // so the peer's bye_ack can still beat the drain timer.
    send_control(VMsg::bye, tx_seq_);
  }
  splicing_ = false;
  if (writable() && on_space_) on_space_();
  // Copy: the observer may finish a move and clear this hook.
  if (auto cb = on_attached_) cb();
}

void Conduit::handle_message(Message&& message) {
  auto parsed = parse_message(std::move(message));
  if (!parsed.is_ok()) {
    FF_LOG(warn, "core") << "conduit got malformed message: " << parsed.status();
    return;
  }
  const WireHeader h = parsed->header;
  switch (h.type) {
    case VMsg::ack:
      handle_ack(h.id);
      return;
    case VMsg::bye:
      handle_bye(h.id);
      return;
    case VMsg::bye_ack:
      handle_bye_ack();
      return;
    case VMsg::rc_offer:
    case VMsg::rc_answer: {
      // Copy: the handler splices channels and may re-enter this conduit.
      auto cb = on_handshake_;
      if (cb) cb(h);
      return;
    }
    default:
      break;
  }
  if (h.seq != 0) {
    if (h.seq < rx_next_) {
      // Duplicate from a failover retransmit. The original ack for these
      // sequences may have died with the old lane, and the piggyback cadence
      // will never re-fire for them (rx_next_ is unchanged) — without a
      // re-ack the sender's retained window can stay pinned full forever.
      resync_ack_ = true;
      arm_ack_timer();
      return;
    }
    if (h.seq > rx_next_) {
      // Cumulative acks make this impossible in-protocol; a gap means the
      // channel below reordered, which the transports never do.
      FF_LOG(warn, "core") << "conduit " << token_ << " seq gap: got " << h.seq
                           << " expected " << rx_next_;
      return;
    }
    ++rx_next_;
    maybe_ack();
  }
  ctr_received_->inc();
  if (on_message_) on_message_(h, std::move(parsed->payload));
  if (bye_after_ != 0 && rx_next_ > bye_after_ && !closed_) handle_bye(bye_after_);
}

void Conduit::maybe_ack() {
  if (!retains()) return;  // shm is lossless: peer retains nothing
  if (++since_ack_ >= k_ack_every) {
    send_ack_now();
    return;
  }
  // Mid-cadence: guarantee the ack goes out within the delayed-ack bound
  // even if no further messages arrive — the sender may be blocked on a
  // full retained window right now, with nothing left to send us.
  arm_ack_timer();
}

void Conduit::send_ack_now() {
  since_ack_ = 0;
  resync_ack_ = false;
  ack_timer_.cancel();
  send_control(VMsg::ack, rx_next_ - 1);
  ctr_acks_->inc();
}

void Conduit::arm_ack_timer() {
  if (ack_timer_.pending()) return;
  auto self = weak_from_this();
  ack_timer_ = loop_.schedule_cancellable(k_delayed_ack_ns, [self]() {
    auto conduit = self.lock();
    if (conduit == nullptr || conduit->closed_ || conduit->closing_) return;
    if (conduit->since_ack_ == 0 && !conduit->resync_ack_) return;
    if (!conduit->retains()) return;  // detached or lossless: no ack path
    conduit->ctr_delayed_acks_->inc();
    conduit->send_ack_now();
  });
}

void Conduit::handle_ack(std::uint64_t acked_upto) {
  const bool was_full = retained_.size() >= k_max_retained;
  while (!retained_.empty() && retained_.front().first <= acked_upto) {
    retained_.pop_front();
  }
  gauge_retained_->set(static_cast<std::int64_t>(retained_.size()));
  // Every sequence this side put on a lossy wire may now be acknowledged,
  // so the capture carries no replay tail.
  check_quiesced();
  if (was_full && retained_.size() < k_max_retained) {
    if (window_full_since_ != 0) {
      ctr_blocked_ns_->inc(static_cast<std::uint64_t>(loop_.now() - window_full_since_));
      window_full_since_ = 0;
    }
    if (!paused_ && on_space_) on_space_();
  }
}

void Conduit::handle_bye(std::uint64_t last_seq) {
  if (last_seq >= rx_next_) {
    // The bye overtook data still in flight (the control lane skips an RC
    // channel's credits): finish once that tail lands, or after a drain
    // timeout if it never does.
    bye_after_ = last_seq;
    if (!drain_timer_.pending()) {
      auto self = weak_from_this();
      drain_timer_ = loop_.schedule_cancellable(k_drain_timeout_ns, [self]() {
        auto conduit = self.lock();
        if (conduit != nullptr && !conduit->closed_) conduit->handle_bye(0);
      });
    }
    return;
  }
  bye_after_ = 0;
  // Peer-initiated close (or the peer's half of a simultaneous close):
  // acknowledge so the peer's drain completes, then tear down this side.
  send_control(VMsg::bye_ack);
  finish_close(closing_ ? pending_reason_ : CloseReason::peer_bye,
               /*notify_peer=*/false);
}

void Conduit::handle_bye_ack() {
  if (closing_) finish_close(pending_reason_, /*notify_peer=*/false);
}

void Conduit::handle_channel_failed() {
  if (closed_) return;
  if (closing_) {
    // The path carrying our bye died; the ack can never come.
    finish_close(CloseReason::transport_failed, /*notify_peer=*/false);
    return;
  }
  if (paused_) {
    // Mid-quiesce lane death (e.g. migration racing a NIC failure): detach,
    // but do NOT trigger the observer's reactive rebind — the move's resume
    // owns this conduit's next attach. Retained messages can no longer
    // drain, so the quiesce deadline will fire and capture carries them.
    mark_stale();
    return;
  }
  mark_stale();
  // Copy: the observer re-binds, which may re-enter this conduit.
  auto cb = on_transport_failed_;
  if (cb) cb();
}

void Conduit::force_close(CloseReason reason) {
  if (closed_) return;
  // Hard teardown (net destructor / container stop): finish immediately with
  // a best-effort bye. A drain already in flight keeps its original reason —
  // the app asked first; the handshake just didn't get to complete.
  finish_close(closing_ ? pending_reason_ : reason,
               /*notify_peer=*/channel_ != nullptr);
}

void Conduit::close_with(CloseReason reason, bool handshake) {
  if (closed_) return;
  if (closing_) {
    // A no-handshake close overtaking an in-flight drain (peer died): the
    // ack can never come, so finish now instead of waiting out the timer.
    if (!handshake) finish_close(pending_reason_, /*notify_peer=*/false);
    return;
  }
  if (!handshake || channel_ == nullptr) {
    // Fire-and-forget close: the only option for a detached conduit or a
    // known-dead peer. Still sends a best-effort bye.
    finish_close(reason, /*notify_peer=*/handshake && channel_ != nullptr);
    return;
  }
  closing_ = true;
  pending_reason_ = reason;
  // The app-facing hooks go now, not at finish_close: connect handshakes
  // park a self-capturing lambda in on_message_, and a loop that stops
  // mid-drain would strand that cycle forever. Nothing app-visible may
  // fire during the drain anyway — bye/bye_ack dispatch internally.
  set_on_message(nullptr);
  on_space_ = nullptr;
  on_transport_failed_ = nullptr;
  send_control(VMsg::bye, tx_seq_);
  auto self = weak_from_this();
  drain_timer_ = loop_.schedule_cancellable(k_drain_timeout_ns, [self]() {
    auto conduit = self.lock();
    if (conduit == nullptr || conduit->closed_) return;
    conduit->finish_close(CloseReason::drain_timeout, /*notify_peer=*/false);
  });
}

void Conduit::finish_close(CloseReason reason, bool notify_peer) {
  if (closed_) return;
  closed_ = true;
  closing_ = false;
  close_reason_ = reason;
  drain_timer_.cancel();
  ack_timer_.cancel();
  // A close mid-quiesce leaves nothing of this end to move.
  finish_quiesce(/*drained=*/true);
  if (in_blackout_) {
    // Close during a failover gap: end the span so B/E stay balanced.
    in_blackout_ = false;
    tracer_.end("conduit", "failover", self_, trace_tid(token_));
  }
  queue_.clear();
  retained_.clear();
  if (channel_ != nullptr) {
    if (notify_peer) {
      // Best effort, and the queue and window above are already dropped:
      // last sequence 0 tells the peer not to wait for any of them.
      send_control(VMsg::bye);
    }
    channel_->close();
    channel_ = nullptr;
  }
  // Unhook everything the application registered: callbacks must not keep
  // peers (or this conduit's captures) alive past close.
  set_on_message(nullptr);
  on_space_ = nullptr;
  on_transport_failed_ = nullptr;
  on_handshake_ = nullptr;
  on_attached_ = nullptr;
  auto closed_cb = std::move(on_closed_);
  on_closed_ = nullptr;
  if (closed_cb) closed_cb(reason);
  auto teardown = std::move(on_teardown_);
  on_teardown_ = nullptr;
  if (teardown) teardown();
}

void Conduit::mark_stale() {
  if (channel_ != nullptr) {
    pre_failover_transport_ = channel_->transport();
    channel_->close();
    ctr_rebinds_->inc();
    if (!in_blackout_) {
      in_blackout_ = true;
      blackout_started_ = loop_.now();
      tracer_.begin("conduit", "failover", self_, trace_tid(token_),
                    telemetry::Tracer::arg(
                        "from", std::string(orch::transport_name(pre_failover_transport_))));
      tracer_.instant("conduit", "mark_stale", self_, trace_tid(token_));
    }
  }
  channel_ = nullptr;
  ++generation_;
}

void Conduit::retransmit_retained() {
  // The peer drops already-delivered duplicates by sequence, so replaying
  // the whole unacked window is safe — and the only way to guarantee the
  // lost tail of the dead lane arrives.
  if (!retained_.empty()) {
    ctr_retransmits_->inc(retained_.size());
    tracer_.instant("conduit", "retransmit", self_, trace_tid(token_),
                    telemetry::Tracer::arg("count", std::to_string(retained_.size())));
  }
  // Index loop: a reentrant Conduit::send (e.g. an ack-driven on_space_)
  // may push_back into the deque mid-replay, which invalidates iterators.
  for (std::size_t i = 0; i < retained_.size(); ++i) {
    const Status s = channel_->send(retained_[i].second.share());
    if (!s.is_ok()) {
      FF_LOG(warn, "core") << "conduit retransmit failed: " << s;
    }
  }
  if (!retains()) {
    // The new channel is lossless shm: once pushed it cannot be lost, and
    // the peer will never ack over shm. Drop the window.
    retained_.clear();
  }
}

void Conduit::unpause() {
  if (!paused_) return;
  paused_ = false;
  drain();
  if (since_ack_ > 0 || resync_ack_) arm_ack_timer();
  if (writable() && on_space_) on_space_();
}

void Conduit::quiesce(SimDuration deadline, std::function<void(bool)> done) {
  pause();
  FF_CHECK(!quiesce_done_);  // one quiesce at a time per conduit
  if (!in_flight()) {
    // Nothing unacked on a lossy wire and nothing left in an shm lane: the
    // pause alone is a clean message boundary.
    done(true);
    return;
  }
  quiesce_done_ = std::move(done);
  if (retained_.empty()) return;  // an shm lane: its deliveries complete it
  auto self = weak_from_this();
  quiesce_timer_ = loop_.schedule_cancellable(deadline, [self]() {
    auto conduit = self.lock();
    if (conduit != nullptr) conduit->finish_quiesce(/*drained=*/false);
  });
}

void Conduit::check_quiesced() {
  if (quiesce_done_ && !in_flight()) finish_quiesce(/*drained=*/true);
}

void Conduit::finish_quiesce(bool drained) {
  quiesce_timer_.cancel();
  auto cb = std::move(quiesce_done_);
  quiesce_done_ = nullptr;
  if (cb) cb(drained);
}

std::size_t Conduit::state_bytes() const noexcept {
  // Sized as a checkpoint of the state would be: 44 B of counters (token,
  // tx_seq, rx_next and since_ack at 8 B; resync flag, transport and
  // padding in 4 B; window and queue depths at 4 B), then each retained
  // and queued message behind a 4 B length.
  constexpr std::size_t k_counter_bytes = 44;
  constexpr std::size_t k_length_bytes = 4;
  std::size_t bytes = k_counter_bytes;
  for (std::size_t i = 0; i < retained_.size(); ++i) {
    bytes += k_length_bytes + retained_[i].second.size();
  }
  for (const auto& message : queue_) bytes += k_length_bytes + message.size();
  return bytes;
}

void Conduit::drain() {
  while (!queue_.empty() && channel_ != nullptr && !paused_) {
    Message message = std::move(queue_.front());
    queue_.pop_front();
    const std::uint64_t seq = WireHeader::decode(message.head().data()).seq;
    transmit(seq, std::move(message));
  }
}

}  // namespace freeflow::core
