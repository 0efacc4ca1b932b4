#include "core/mpi.h"

#include <cstring>

#include "common/framing.h"
#include "common/logging.h"

namespace freeflow::core {

namespace {
/// Each record's head: the sender's rank (i32) and the tag (u32). With the
/// 4-byte length prefix a frame is 12 + payload bytes.
constexpr std::size_t k_route_bytes = 8;

Buffer frame(int src, std::uint32_t tag, ByteSpan payload) {
  std::byte head[k_route_bytes];
  const auto s = static_cast<std::int32_t>(src);
  std::memcpy(head, &s, 4);
  std::memcpy(head + 4, &tag, 4);
  return frame_record(head, payload);
}
}  // namespace

MpiEndpoint::MpiEndpoint(ContainerNetPtr net, int rank,
                         std::vector<tcp::Ipv4Addr> members, std::uint16_t port)
    : net_(std::move(net)), rank_(rank), members_(std::move(members)), port_(port) {
  FF_CHECK(rank_ >= 0 && rank_ < static_cast<int>(members_.size()));
}

Status MpiEndpoint::start() {
  auto self = weak_from_this();
  return net_->sock_listen(port_, [self](FlowSocketPtr sock) {
    if (auto me = self.lock()) me->adopt_socket(std::move(sock));
  });
}

void MpiEndpoint::adopt_socket(FlowSocketPtr sock) {
  accepted_.push_back(sock);  // the endpoint owns its inbound sockets
  auto self = weak_from_this();
  auto accum = std::make_shared<Buffer>();
  sock->set_on_data([self, accum](Buffer&& chunk) {
    auto me = self.lock();
    if (me == nullptr) return;
    append_stream_bytes(*accum, std::move(chunk));
    Buffer record;
    while (pop_record(*accum, record)) {
      FF_CHECK(record.size() >= k_route_bytes);
      std::int32_t src = 0;
      std::uint32_t tag = 0;
      std::memcpy(&src, record.view().data(), 4);
      std::memcpy(&tag, record.view().data() + 4, 4);
      record.consume_front(k_route_bytes);
      me->dispatch(src, tag, std::move(record));
    }
  });
}

void MpiEndpoint::with_socket(int dst, std::function<void(Result<FlowSocketPtr>)> cb) {
  if (auto it = sockets_.find(dst); it != sockets_.end()) {
    cb(it->second);
    return;
  }
  auto& waiters = connecting_[dst];
  waiters.push_back(std::move(cb));
  if (waiters.size() > 1) return;

  auto self = shared_from_this();
  net_->sock_connect(members_[static_cast<std::size_t>(dst)], port_,
                     [self, dst](Result<FlowSocketPtr> sock) {
    if (sock.is_ok()) {
      self->adopt_socket(*sock);
      self->sockets_[dst] = *sock;
    }
    auto pending = std::move(self->connecting_[dst]);
    self->connecting_.erase(dst);
    for (auto& w : pending) w(sock);
  });
}

void MpiEndpoint::send(int dst, std::uint32_t tag, Buffer data) {
  FF_CHECK(dst >= 0 && dst < size());
  if (dst == rank_) {
    dispatch(rank_, tag, std::move(data));
    return;
  }
  with_socket(dst, [rank = rank_, tag, data = std::move(data)](Result<FlowSocketPtr> sock) {
    if (!sock.is_ok()) {
      FF_LOG(warn, "mpi") << "send failed: " << sock.status();
      return;
    }
    (void)(*sock)->send(frame(rank, tag, data.view()));
  });
}

void MpiEndpoint::recv(int src, std::uint32_t tag, RecvFn cb) {
  const MatchKey key{src, tag};
  auto uit = unexpected_.find(key);
  if (uit != unexpected_.end() && !uit->second.empty()) {
    Buffer payload = std::move(uit->second.front());
    uit->second.pop_front();
    cb(std::move(payload));
    return;
  }
  waiting_[key].push_back(std::move(cb));
}

void MpiEndpoint::dispatch(int src, std::uint32_t tag, Buffer&& payload) {
  const MatchKey key{src, tag};
  auto wit = waiting_.find(key);
  if (wit != waiting_.end() && !wit->second.empty()) {
    RecvFn cb = std::move(wit->second.front());
    wit->second.pop_front();
    cb(std::move(payload));
    return;
  }
  unexpected_[key].push_back(std::move(payload));
}

// ----------------------------------------------------------- collectives

void MpiEndpoint::barrier(std::function<void()> done) {
  const std::uint32_t tag = k_reserved_tag_base + (barrier_round_++ & 0xFFF);
  auto self = shared_from_this();
  if (rank_ == 0) {
    auto remaining = std::make_shared<int>(size() - 1);
    if (*remaining == 0) {
      net_->loop().schedule(0, std::move(done));
      return;
    }
    for (int r = 1; r < size(); ++r) {
      recv(r, tag, [self, remaining, tag, done](Buffer&&) mutable {
        if (--*remaining == 0) {
          for (int r2 = 1; r2 < self->size(); ++r2) self->send(r2, tag + 0x1000, Buffer{});
          done();
        }
      });
    }
  } else {
    send(0, tag, Buffer{});
    recv(0, tag + 0x1000, [done = std::move(done)](Buffer&&) { done(); });
  }
}

void MpiEndpoint::broadcast(int root, Buffer data, RecvFn done) {
  const std::uint32_t tag = k_reserved_tag_base + 0x2000 + (bcast_round_++ & 0xFFF);
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, tag, data);
    }
    net_->loop().schedule(0, [done = std::move(done), data = std::move(data)]() mutable {
      done(std::move(data));
    });
  } else {
    recv(root, tag, std::move(done));
  }
}

void MpiEndpoint::allreduce_sum(std::vector<double> values,
                                std::function<void(std::vector<double>)> done) {
  const std::uint32_t tag = k_reserved_tag_base + 0x4000 + (reduce_round_++ & 0xFFF);
  const std::size_t n = values.size();
  auto self = shared_from_this();

  auto unpack = [n](ByteSpan bytes) {
    std::vector<double> out(n);
    FF_CHECK(bytes.size() == n * sizeof(double));
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  };
  auto pack = [](const std::vector<double>& v) {
    return Buffer(v.data(), v.size() * sizeof(double));
  };

  if (rank_ == 0) {
    auto sum = std::make_shared<std::vector<double>>(std::move(values));
    auto remaining = std::make_shared<int>(size() - 1);
    auto finish = [self, sum, tag, pack, done]() {
      for (int r = 1; r < self->size(); ++r) self->send(r, tag + 0x1000, pack(*sum));
      done(*sum);
    };
    if (*remaining == 0) {
      net_->loop().schedule(0, finish);
      return;
    }
    for (int r = 1; r < size(); ++r) {
      recv(r, tag, [sum, remaining, unpack, finish](Buffer&& payload) mutable {
        const auto theirs = unpack(payload.view());
        for (std::size_t i = 0; i < sum->size(); ++i) (*sum)[i] += theirs[i];
        if (--*remaining == 0) finish();
      });
    }
  } else {
    send(0, tag, pack(values));
    recv(0, tag + 0x1000,
         [unpack, done = std::move(done)](Buffer&& payload) { done(unpack(payload.view())); });
  }
}

void MpiEndpoint::gather(int root, Buffer data,
                         std::function<void(std::vector<Buffer>)> done) {
  const std::uint32_t tag = k_reserved_tag_base + 0x6000 + (gather_round_++ & 0xFFF);
  if (rank_ == root) {
    auto parts = std::make_shared<std::vector<Buffer>>(static_cast<std::size_t>(size()));
    (*parts)[static_cast<std::size_t>(root)] = std::move(data);
    auto remaining = std::make_shared<int>(size() - 1);
    if (*remaining == 0) {
      net_->loop().schedule(0, [parts, done = std::move(done)]() mutable {
        done(std::move(*parts));
      });
      return;
    }
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv(r, tag, [parts, remaining, r, done](Buffer&& payload) mutable {
        (*parts)[static_cast<std::size_t>(r)] = std::move(payload);
        if (--*remaining == 0) done(std::move(*parts));
      });
    }
  } else {
    send(root, tag, std::move(data));
    net_->loop().schedule(0, [done = std::move(done)]() { done({}); });
  }
}

void MpiEndpoint::scatter(int root, std::vector<Buffer> parts, RecvFn done) {
  const std::uint32_t tag = k_reserved_tag_base + 0x8000 + (scatter_round_++ & 0xFFF);
  if (rank_ == root) {
    FF_CHECK(parts.size() == static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, tag, std::move(parts[static_cast<std::size_t>(r)]));
    }
    net_->loop().schedule(
        0, [done = std::move(done),
            mine = std::move(parts[static_cast<std::size_t>(root)])]() mutable {
          done(std::move(mine));
        });
  } else {
    recv(root, tag, std::move(done));
  }
}

}  // namespace freeflow::core
