// Packet paths: a segment traverses an ordered chain of hops, each charging
// work to the resource it models (sender stack CPU, veth+bridge softirq,
// overlay router core, NIC wire, receiver softirq) before delivery. The
// "hairpin" penalties of container networking (paper Fig. 1) are expressed
// entirely as hop composition, so one TCP implementation serves host mode,
// bridge mode, overlay mode and FreeFlow's fallback alike.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "common/rng.h"
#include "fabric/host.h"
#include "fabric/packet.h"
#include "sim/resource.h"
#include "tcpstack/segment.h"

namespace freeflow::tcp {

/// Delivery continuation at the far end of a path walk. Deliberately tiny
/// (16-byte capture): walk callers bind a reference or a boxed pointer, so
/// each per-segment walk stays allocation-free.
using DeliverFn = common::InlineFunction<void(SegmentPtr), 16>;

class Hop {
 public:
  virtual ~Hop() = default;
  /// Processes `seg`; invokes `next` when the segment moves on. A hop that
  /// drops the segment simply never calls `next`.
  virtual void transit(const SegmentPtr& seg, sim::DoneFn next) = 0;
};

/// Charges CPU work on a host before forwarding. The work runs on a
/// SerialExecutor ("software thread"): per-thread processing is serialized,
/// which is what CPU-bounds a single flow even on a multicore host. The
/// executor is shared between hops that execute in the same context (e.g.
/// the sender's stack + veth/bridge softirq, or one software router).
///
/// The hop only *observes* the thread: the owning edge lives with whoever
/// registered the endpoint (tcp::AddressMap binding, overlay binding or
/// router). Otherwise a segment queued on the thread — whose continuation
/// holds the hop list, which holds this hop — would cycle back to the
/// executor and pin the whole path at teardown. A transit after the owner
/// unbound is simply a dropped packet.
class CpuHop final : public Hop {
 public:
  using CostFn = std::function<double(const Segment&)>;

  CpuHop(fabric::Host& host, const std::shared_ptr<sim::SerialExecutor>& thread,
         CostFn cost, sim::UsageAccount* account = nullptr,
         double bus_bytes_per_payload_byte = 0.0)
      : host_(host),
        thread_(thread),
        cost_(std::move(cost)),
        account_(account),
        bus_factor_(bus_bytes_per_payload_byte) {}

  void transit(const SegmentPtr& seg, sim::DoneFn next) override;

 private:
  fabric::Host& host_;
  std::weak_ptr<sim::SerialExecutor> thread_;
  CostFn cost_;
  sim::UsageAccount* account_;
  double bus_factor_;
};

/// Serializes onto the source NIC and crosses the switch to the
/// destination host, where the walk continues.
class WireHop final : public Hop {
 public:
  WireHop(fabric::Host& src, fabric::HostId dst) : src_(src), dst_(dst) {}

  void transit(const SegmentPtr& seg, sim::DoneFn next) override;

  /// Installs the tcp_frame receive handler on a host's NIC. Must be called
  /// once per host that terminates wire hops.
  static void install_rx(fabric::Host& host);

 private:
  fabric::Host& src_;
  fabric::HostId dst_;
};

/// Pure latency (e.g. scheduler wakeup when data reaches a blocked app).
class DelayHop final : public Hop {
 public:
  DelayHop(sim::EventLoop& loop, SimDuration delay) : loop_(loop), delay_(delay) {}

  void transit(const SegmentPtr& seg, sim::DoneFn next) override;

 private:
  sim::EventLoop& loop_;
  SimDuration delay_;
};

/// Drops segments with probability p (fault injection for retransmit tests).
class LossHop final : public Hop {
 public:
  LossHop(Rng& rng, double drop_probability) : rng_(rng), p_(drop_probability) {}

  void transit(const SegmentPtr& seg, sim::DoneFn next) override;

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  Rng& rng_;
  double p_;
  std::uint64_t dropped_ = 0;
};

class Path {
 public:
  using HopList = std::vector<std::shared_ptr<Hop>>;

  Path() : hops_(std::make_shared<HopList>()) {}
  explicit Path(HopList hops) : hops_(std::make_shared<HopList>(std::move(hops))) {}

  void add(std::shared_ptr<Hop> hop) { hops_->push_back(std::move(hop)); }

  /// Sends `seg` through every hop; `deliver` fires at the far end (never,
  /// if a hop drops the segment). Allocation-free per walk: the hop list is
  /// shared (not snapshotted — paths are assembled before traffic starts)
  /// and the continuation state travels inline through each hop.
  void walk(SegmentPtr seg, DeliverFn deliver) const;

 private:
  static void step(std::shared_ptr<const HopList> hops, std::size_t index,
                   SegmentPtr seg, DeliverFn deliver);

  std::shared_ptr<HopList> hops_;
};

/// Paths from one endpoint toward its peer: full-cost data path and a
/// lightweight control path for SYN/ACK/FIN segments.
struct PathPair {
  Path data;
  Path control;
};

}  // namespace freeflow::tcp
