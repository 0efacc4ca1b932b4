#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dpdk/pmd.h"
#include "fabric/cluster.h"

namespace freeflow::dpdk {
namespace {

struct DpdkFixture : ::testing::Test {
  DpdkFixture() {
    cluster.add_hosts(2);
    port_a = std::make_unique<DpdkPort>(cluster.host(0));
    port_b = std::make_unique<DpdkPort>(cluster.host(1));
  }

  bool run_until(const std::function<bool()>& pred, SimDuration budget = k_second) {
    const SimTime deadline = cluster.loop().now() + budget;
    for (;;) {
      if (pred()) return true;
      if (cluster.loop().now() >= deadline || !cluster.loop().step()) return false;
    }
  }

  fabric::Cluster cluster;
  std::unique_ptr<DpdkPort> port_a;
  std::unique_ptr<DpdkPort> port_b;
};

TEST_F(DpdkFixture, SendRequiresRunningPmd) {
  EXPECT_EQ(port_a->send(1, Buffer(10)).code(), Errc::failed_precondition);
  port_a->start();
  port_b->start();
  EXPECT_TRUE(port_a->send(1, Buffer(10)).is_ok());
}

TEST_F(DpdkFixture, MessageRoundTripWithIntegrity) {
  port_a->start();
  port_b->start();
  Buffer got;
  fabric::HostId from = 99;
  port_b->set_on_message([&](fabric::HostId src, Buffer&& msg) {
    from = src;
    got = std::move(msg);
  });
  Buffer msg(100000);
  fill_pattern(msg.mutable_view(), 8);
  ASSERT_TRUE(port_a->send(1, std::move(msg)).is_ok());
  EXPECT_TRUE(run_until([&]() { return !got.empty(); }));
  EXPECT_EQ(from, 0u);
  EXPECT_EQ(got.size(), 100000u);
  EXPECT_TRUE(check_pattern(got.view(), 8));
}

TEST_F(DpdkFixture, LargeMessageFragmentsAndReassembles) {
  port_a->start();
  port_b->start();
  Buffer got;
  port_b->set_on_message([&](fabric::HostId, Buffer&& msg) { got = std::move(msg); });
  Buffer msg(3 * 1024 * 1024 + 17);  // many 4 KiB frames + remainder
  fill_pattern(msg.mutable_view(), 44);
  ASSERT_TRUE(port_a->send(1, std::move(msg)).is_ok());
  EXPECT_TRUE(run_until([&]() { return got.size() == 3 * 1024 * 1024 + 17; }));
  EXPECT_TRUE(check_pattern(got.view(), 44));
  EXPECT_EQ(port_b->messages_delivered(), 1u);
}

TEST_F(DpdkFixture, InterleavedSendersDemuxCorrectly) {
  fabric::Cluster big;
  big.add_hosts(3);
  DpdkPort p0(big.host(0)), p1(big.host(1)), p2(big.host(2));
  p0.start();
  p1.start();
  p2.start();
  std::map<fabric::HostId, Buffer> got;
  p2.set_on_message([&](fabric::HostId src, Buffer&& msg) { got[src] = std::move(msg); });
  Buffer m0(500000), m1(400000);
  fill_pattern(m0.mutable_view(), 1);
  fill_pattern(m1.mutable_view(), 2);
  ASSERT_TRUE(p0.send(2, std::move(m0)).is_ok());
  ASSERT_TRUE(p1.send(2, std::move(m1)).is_ok());
  const SimTime deadline = big.loop().now() + k_second;
  while (got.size() < 2 && big.loop().now() < deadline) {
    if (!big.loop().step()) break;
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(check_pattern(got[0].view(), 1));
  EXPECT_TRUE(check_pattern(got[1].view(), 2));
}

TEST_F(DpdkFixture, SpinAccountingTracksWallTime) {
  port_a->start();
  cluster.loop().run_for(10 * k_millisecond);
  EXPECT_NEAR(port_a->spin_core_busy_ns(), 1e7, 1.0);
  port_a->stop();
  cluster.loop().run_for(10 * k_millisecond);
  EXPECT_NEAR(port_a->spin_core_busy_ns(), 1e7, 1.0);  // frozen after stop
}

TEST_F(DpdkFixture, StoppedPortDropsFrames) {
  port_a->start();  // b stays stopped
  int delivered = 0;
  port_b->set_on_message([&](fabric::HostId, Buffer&&) { ++delivered; });
  ASSERT_TRUE(port_a->send(1, Buffer(100)).is_ok());
  cluster.loop().run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(DpdkFixture, FramesKeepTheirMessageAliveAfterTheSenderDropsIt) {
  // Frames view the message they were cut from instead of copying their
  // slice. Hold every frame at the receiving NIC until the sending port
  // has finished streaming and let go of the message: the frames alone
  // must keep it alive and intact, and free it once they are gone.
  port_a->start();
  std::vector<fabric::PacketPtr> held;
  long use_count_mid_stream = 0;
  cluster.host(1).nic().set_rx_handler(fabric::PacketKind::dpdk_frame,
                                       [&](fabric::PacketPtr p) {
    if (held.empty()) {
      use_count_mid_stream = fabric::body_as<DpdkFrame>(p)->message.use_count();
    }
    held.push_back(std::move(p));
  });
  constexpr std::size_t k_size = 10 * 4096 + 123;  // 11 frames
  Buffer reference(k_size);
  fill_pattern(reference.mutable_view(), 21);
  ASSERT_TRUE(port_a->send(1, Buffer(reference)).is_ok());
  ASSERT_TRUE(run_until([&]() { return held.size() == 11; }));
  cluster.loop().run();  // the sender's last frame job has completed

  EXPECT_GE(use_count_mid_stream, 2);  // the sender was still streaming it
  const std::weak_ptr<const Buffer> message =
      fabric::body_as<DpdkFrame>(held.front())->message;
  EXPECT_EQ(message.use_count(), 11);  // only the frames hold it now
  for (const auto& packet : held) {
    const auto frame = fabric::body_as<DpdkFrame>(packet);
    EXPECT_EQ(frame->message, message.lock());
    EXPECT_EQ(frame->payload.data(), frame->message->data() + frame->offset);
    EXPECT_TRUE(std::equal(frame->payload.begin(), frame->payload.end(),
                           reference.data() + frame->offset));
  }

  // A fresh port on host 1 takes the held frames and reassembles them.
  port_b = std::make_unique<DpdkPort>(cluster.host(1));
  port_b->start();
  Buffer got;
  port_b->set_on_message([&](fabric::HostId, Buffer&& m) { got = std::move(m); });
  for (auto& packet : held) cluster.host(1).nic().deliver(std::move(packet));
  held.clear();
  ASSERT_TRUE(run_until([&]() { return !got.empty(); }));
  EXPECT_EQ(got, reference);
  cluster.loop().run();
  EXPECT_TRUE(message.expired());
}

TEST_F(DpdkFixture, ThroughputNearLineRateWithLowPerPacketCost) {
  port_a->start();
  port_b->start();
  std::uint64_t received = 0;
  port_b->set_on_message([&](fabric::HostId, Buffer&& m) { received += m.size(); });
  const std::size_t msg = 1 << 20;
  const int count = 200;
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(port_a->send(1, Buffer(msg)).is_ok());
  }
  const SimTime start = cluster.loop().now();
  EXPECT_TRUE(run_until([&]() { return received == count * msg; }, 600 * k_second));
  const double gbps = throughput_gbps(received, cluster.loop().now() - start);
  EXPECT_GT(gbps, 30.0);
  EXPECT_LE(gbps, 40.5);
}

}  // namespace
}  // namespace freeflow::dpdk
