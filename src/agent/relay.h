// Relay framing between FreeFlow agents: every container-to-container
// message crossing hosts is carried as one or more records, each a fixed
// header plus a payload fragment. Records are what the trunks (RDMA QP,
// DPDK port, agent TCP connection) actually move.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/bytes.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/units.h"
#include "orchestrator/container.h"

namespace freeflow::agent {

struct RelayHeader {
  orch::ContainerId src_container = 0;
  orch::ContainerId dst_container = 0;
  std::uint64_t channel = 0;   ///< fabric-wide channel id
  std::uint64_t msg_seq = 0;   ///< per-channel message counter
  std::uint32_t total_len = 0;
  std::uint32_t frag_offset = 0;

  static constexpr std::size_t k_size = 32;

  void encode(std::byte* out) const noexcept {
    std::memcpy(out + 0, &src_container, 4);
    std::memcpy(out + 4, &dst_container, 4);
    std::memcpy(out + 8, &channel, 8);
    std::memcpy(out + 16, &msg_seq, 8);
    std::memcpy(out + 24, &total_len, 4);
    std::memcpy(out + 28, &frag_offset, 4);
  }

  static RelayHeader decode(const std::byte* in) noexcept {
    RelayHeader h;
    std::memcpy(&h.src_container, in + 0, 4);
    std::memcpy(&h.dst_container, in + 4, 4);
    std::memcpy(&h.channel, in + 8, 8);
    std::memcpy(&h.msg_seq, in + 16, 8);
    std::memcpy(&h.total_len, in + 24, 4);
    std::memcpy(&h.frag_offset, in + 28, 4);
    return h;
  }

  [[nodiscard]] bool last_fragment(std::size_t frag_len) const noexcept {
    return frag_offset + frag_len >= total_len;
  }
};

/// Builds one record (header + fragment bytes).
Buffer make_record(const RelayHeader& header, ByteSpan fragment);

/// Splits a record back into header + fragment view.
struct ParsedRecord {
  RelayHeader header;
  ByteSpan fragment;
};
Result<ParsedRecord> parse_record(ByteSpan record);

/// Agent tuning knobs (ablation benchmarks sweep these).
struct AgentConfig {
  bool zero_copy = true;             ///< relay posts shm blocks as MRs directly
  std::size_t fragment_bytes = 256 * 1024;
  std::size_t lane_ring_bytes = 4 * 1024 * 1024;
  /// Trunk establishment retry budget (with_trunk / setup_*_trunk): transient
  /// setup failures — a lane dying mid-handshake, a setup race resolving
  /// against us, an attempt watchdog firing — degrade to delayed
  /// establishment with exponential backoff instead of a permanent
  /// `unavailable`. After the budget the caller sees one terminal error.
  RetryPolicy trunk_retry;

  /// Control-plane shard count (host-partitioned; see DESIGN.md §12).
  /// Benches sweep 1/4/16; the default keeps small deployments realistic
  /// while still exercising cross-shard forwarding.
  int control_plane_shards = 4;
  /// Per-agent decision-cache bound: beyond this many (src, dst) entries
  /// the least-recently-used entry is evicted (selector/cache_evictions).
  std::size_t selector_cache_capacity = 4096;
};

}  // namespace freeflow::agent
