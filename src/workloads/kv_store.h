// In-memory key-value store — the paper's motivating class of
// latency-sensitive distributed systems (memcached/FaRM-style). Runs over
// any StreamAdapter, so the same code serves the FreeFlow and overlay
// benchmarks. Protocol: RecordStream records (common/framing.h).
//   request:  [u8 op] [u64 req_id] [u16 klen] [u32 vlen] key value?
//   response: [u8 status] [u64 req_id] [u32 vlen] value?
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/histogram.h"
#include "workloads/stream_adapter.h"

namespace freeflow::workloads {

/// Whole records over a byte stream, framed by common/framing.h: the KV
/// store and the API gateway speak it.
class RecordStream {
 public:
  using RecordFn = std::function<void(ByteSpan)>;

  explicit RecordStream(StreamPtr stream, RecordFn on_record);

  /// Sends one record, `head`, `body` and `tail` back to back.
  Status send_record(ByteSpan head, ByteSpan body = {}, ByteSpan tail = {});
  [[nodiscard]] StreamPtr stream() const noexcept { return stream_; }

 private:
  StreamPtr stream_;
};

enum class KvOp : std::uint8_t { get = 1, put = 2 };
enum class KvStatus : std::uint8_t { ok = 0, not_found = 1 };

/// Server side: attach one per accepted stream; state shared via the map.
class KvServer {
 public:
  using Store = std::unordered_map<std::string, Buffer>;

  explicit KvServer(std::shared_ptr<Store> store = nullptr)
      : store_(store ? std::move(store) : std::make_shared<Store>()) {}

  /// Serves requests arriving on `stream` until it goes away.
  void serve(StreamPtr stream);

  [[nodiscard]] std::shared_ptr<Store> store() const noexcept { return store_; }
  [[nodiscard]] std::uint64_t requests_served() const noexcept { return served_; }

 private:
  void handle_record(RecordStream& records, ByteSpan record);

  std::shared_ptr<Store> store_;
  std::uint64_t served_ = 0;
};

/// Client side: pipelined async GET/PUT over one stream.
class KvClient {
 public:
  using GetFn = std::function<void(KvStatus, Buffer&&)>;
  using PutFn = std::function<void(KvStatus)>;

  explicit KvClient(StreamPtr stream);

  void get(std::string key, GetFn cb);
  void put(std::string key, Buffer value, PutFn cb);

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  /// Per-operation latency in virtual ns (recorded internally).
  [[nodiscard]] Histogram& latency() noexcept { return latency_; }
  void set_clock(std::function<SimTime()> now) { now_ = std::move(now); }

 private:
  struct Pending {
    GetFn on_get;
    PutFn on_put;
    SimTime started = 0;
  };

  void send(KvOp op, std::string key, ByteSpan value, GetFn on_get, PutFn on_put);
  void handle_record(ByteSpan record);

  RecordStream records_;
  std::uint64_t next_req_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t completed_ = 0;
  Histogram latency_;
  std::function<SimTime()> now_;
};

}  // namespace freeflow::workloads
