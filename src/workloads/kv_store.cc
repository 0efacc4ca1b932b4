#include "workloads/kv_store.h"

#include <cstring>

#include "common/framing.h"
#include "common/logging.h"

namespace freeflow::workloads {

// ------------------------------------------------------------ RecordStream

RecordStream::RecordStream(StreamPtr stream, RecordFn on_record)
    : stream_(std::move(stream)) {
  // The accumulator is shared, not held in the closure by value: the
  // stream may invoke a copy of its handler.
  stream_->set_on_data([accum = std::make_shared<Buffer>(),
                        cb = std::move(on_record)](Buffer&& chunk) {
    append_stream_bytes(*accum, std::move(chunk));
    Buffer record;
    while (pop_record(*accum, record)) cb(record.view());
  });
}

Status RecordStream::send_record(ByteSpan head, ByteSpan body, ByteSpan tail) {
  return stream_->send(frame_record(head, body, tail));
}

// ---------------------------------------------------------------- KvServer

namespace {
constexpr std::size_t k_req_header = 1 + 8 + 2 + 4;
constexpr std::size_t k_resp_header = 1 + 8 + 4;
}  // namespace

void KvServer::serve(StreamPtr stream) {
  // The RecordStream is owned by the on_data closure chain.
  auto rs = std::make_shared<std::unique_ptr<RecordStream>>();
  *rs = std::make_unique<RecordStream>(std::move(stream), [this, rs](ByteSpan record) {
    // The capture keeps the parser alive as long as the stream feeds it.
    handle_record(**rs, record);
  });
}

void KvServer::handle_record(RecordStream& records, ByteSpan record) {
  if (record.size() < k_req_header) return;
  const auto op = static_cast<KvOp>(record[0]);
  std::uint64_t req_id = 0;
  std::uint16_t klen = 0;
  std::uint32_t vlen = 0;
  std::memcpy(&req_id, record.data() + 1, 8);
  std::memcpy(&klen, record.data() + 9, 2);
  std::memcpy(&vlen, record.data() + 11, 4);
  if (record.size() < k_req_header + klen + (op == KvOp::put ? vlen : 0)) return;

  std::string key(reinterpret_cast<const char*>(record.data() + k_req_header), klen);
  ++served_;

  KvStatus status = KvStatus::ok;
  const Buffer* value = nullptr;
  if (op == KvOp::put) {
    (*store_)[key] = Buffer(record.data() + k_req_header + klen, vlen);
  } else {
    auto it = store_->find(key);
    if (it == store_->end()) {
      status = KvStatus::not_found;
    } else {
      value = &it->second;
    }
  }

  const std::uint32_t out_vlen =
      (op == KvOp::get && value != nullptr) ? static_cast<std::uint32_t>(value->size()) : 0;
  std::byte head[k_resp_header];
  head[0] = static_cast<std::byte>(status);
  std::memcpy(head + 1, &req_id, 8);
  std::memcpy(head + 9, &out_vlen, 4);
  (void)records.send_record(head, out_vlen != 0 ? value->view() : ByteSpan{});
}

// ---------------------------------------------------------------- KvClient

KvClient::KvClient(StreamPtr stream)
    : records_(std::move(stream), [this](ByteSpan record) { handle_record(record); }) {}

void KvClient::get(std::string key, GetFn cb) {
  send(KvOp::get, std::move(key), {}, std::move(cb), nullptr);
}

void KvClient::put(std::string key, Buffer value, PutFn cb) {
  send(KvOp::put, std::move(key), value.view(), nullptr, std::move(cb));
}

void KvClient::send(KvOp op, std::string key, ByteSpan value, GetFn on_get, PutFn on_put) {
  const std::uint64_t id = next_req_++;
  Pending p;
  p.on_get = std::move(on_get);
  p.on_put = std::move(on_put);
  p.started = now_ ? now_() : 0;
  pending_.emplace(id, std::move(p));

  const auto klen = static_cast<std::uint16_t>(key.size());
  const auto vlen = static_cast<std::uint32_t>(value.size());
  std::byte head[k_req_header];
  head[0] = static_cast<std::byte>(op);
  std::memcpy(head + 1, &id, 8);
  std::memcpy(head + 9, &klen, 2);
  std::memcpy(head + 11, &vlen, 4);
  (void)records_.send_record(
      head, ByteSpan{reinterpret_cast<const std::byte*>(key.data()), key.size()}, value);
}

void KvClient::handle_record(ByteSpan record) {
  if (record.size() < k_resp_header) return;
  const auto status = static_cast<KvStatus>(record[0]);
  std::uint64_t req_id = 0;
  std::uint32_t vlen = 0;
  std::memcpy(&req_id, record.data() + 1, 8);
  std::memcpy(&vlen, record.data() + 9, 4);

  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  ++completed_;
  if (now_) latency_.record(now_() - p.started);
  if (p.on_get) {
    p.on_get(status, Buffer(record.data() + k_resp_header, vlen));
  } else if (p.on_put) {
    p.on_put(status);
  }
}

}  // namespace freeflow::workloads
