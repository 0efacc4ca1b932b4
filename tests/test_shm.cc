#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/cluster.h"
#include "shm/channel.h"
#include "shm/region.h"

namespace freeflow::shm {
namespace {

// ----------------------------------------------------------------- Region

TEST(RegionRegistry, CreateAttachDestroy) {
  RegionRegistry reg;
  auto r = reg.create(/*owner=*/1, 4096);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(reg.region_count(), 1u);
  EXPECT_EQ(reg.bytes_in_use(), 4096u);

  auto same = reg.attach((*r)->id(), 1);
  EXPECT_TRUE(same.is_ok());
  EXPECT_TRUE(reg.unlink((*r)->id()));
  EXPECT_FALSE(reg.unlink((*r)->id()));  // idempotent: the pair's second close
  EXPECT_EQ(reg.region_count(), 0u);
}

TEST(RegionRegistry, EnforcesTenantIsolation) {
  RegionRegistry reg;
  auto r = reg.create(1, 1024);
  ASSERT_TRUE(r.is_ok());
  auto denied = reg.attach((*r)->id(), 2);
  EXPECT_EQ(denied.status().code(), Errc::permission_denied);

  (*r)->allow(2);
  EXPECT_TRUE(reg.attach((*r)->id(), 2).is_ok());
  auto still_denied = reg.attach((*r)->id(), 3);
  EXPECT_EQ(still_denied.status().code(), Errc::permission_denied);
}

TEST(RegionAccounting, DestroyWithLiveAttachmentsKeepsBudgetCharged) {
  // Regression: unlinking used to release the budget immediately even with
  // attachments outstanding, so the registry over-admitted new regions
  // against memory that was still pinned (shm_unlink does not free live
  // mmaps). The charge must persist until the LAST holder releases.
  RegionRegistry reg;
  reg.set_capacity(1000);
  auto r = reg.create(1, 600);
  ASSERT_TRUE(r.is_ok());
  auto held = reg.attach((*r)->id(), 1);
  ASSERT_TRUE(held.is_ok());

  ASSERT_TRUE(reg.unlink((*r)->id()));
  EXPECT_EQ(reg.region_count(), 0u);          // unlinked from the namespace
  EXPECT_EQ(reg.bytes_in_use(), 600u);        // ...but still pinned
  EXPECT_EQ(reg.create(1, 600).status().code(), Errc::resource_exhausted);

  (*r).reset();
  (*held).reset();  // last holder gone -> budget released
  EXPECT_EQ(reg.bytes_in_use(), 0u);
  EXPECT_TRUE(reg.create(1, 600).is_ok());
}

TEST(RegionTenantIsolation, CrossTenantAttachMatrixDeniedAndAudited) {
  // Full 3-tenant matrix: every cross-tenant attach is denied (and counted)
  // unless explicitly granted; grants are pairwise, not transitive.
  RegionRegistry reg;
  std::vector<std::shared_ptr<Region>> owned;
  for (TenantId t = 1; t <= 3; ++t) {
    auto r = reg.create(t, 1024);
    ASSERT_TRUE(r.is_ok());
    owned.push_back(*r);
  }
  for (TenantId t = 1; t <= 3; ++t) {
    for (const auto& region : owned) {
      auto got = reg.attach(region->id(), t);
      if (region->owner() == t) {
        EXPECT_TRUE(got.is_ok());
      } else {
        EXPECT_EQ(got.status().code(), Errc::permission_denied);
      }
    }
  }
  EXPECT_EQ(reg.denied_attaches(), 6u);   // 3x3 matrix minus the diagonal
  EXPECT_EQ(reg.foreign_attaches(), 0u);

  owned[0]->allow(2);  // tenant 1 trusts tenant 2 with this region only
  EXPECT_TRUE(reg.attach(owned[0]->id(), 2).is_ok());
  EXPECT_EQ(reg.attach(owned[0]->id(), 3).status().code(), Errc::permission_denied);
  EXPECT_EQ(reg.attach(owned[1]->id(), 1).status().code(), Errc::permission_denied);
  EXPECT_EQ(reg.foreign_attaches(), 1u);  // exactly the granted one
  EXPECT_EQ(reg.denied_attaches(), 8u);
}

TEST(RegionRegistry, CapacityLimit) {
  RegionRegistry reg;
  reg.set_capacity(1000);
  EXPECT_TRUE(reg.create(1, 600).is_ok());
  auto too_big = reg.create(1, 600);
  EXPECT_EQ(too_big.status().code(), Errc::resource_exhausted);
}

TEST(RegionRegistry, RejectsZeroSize) {
  RegionRegistry reg;
  EXPECT_EQ(reg.create(1, 0).status().code(), Errc::invalid_argument);
}

TEST(RegionRegistry, AttachUnknownFails) {
  RegionRegistry reg;
  EXPECT_EQ(reg.attach(999, 1).status().code(), Errc::not_found);
}

// ---------------------------------------------------------------- ShmLane

struct LaneFixture : ::testing::Test {
  LaneFixture() { cluster.add_hosts(1); }
  fabric::Cluster cluster;
};

TEST_F(LaneFixture, DeliversMessagesInOrderWithIntegrity) {
  ShmLane lane(cluster.host(0), 1 << 20);
  std::vector<Buffer> got;
  lane.set_receiver([&](Message&& m) { got.push_back(std::move(m.body())); });
  for (int i = 0; i < 10; ++i) {
    Buffer msg(1000 + static_cast<std::size_t>(i));
    fill_pattern(msg.mutable_view(), static_cast<std::uint64_t>(i));
    lane.send(std::move(msg));
  }
  cluster.loop().run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].size(), 1000u + static_cast<std::size_t>(i));
    EXPECT_TRUE(check_pattern(got[static_cast<std::size_t>(i)].view(),
                              static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(lane.messages_delivered(), 10u);
}

/// A flat byte ring with only its cursors: each record is a 4-byte length
/// header and its payload, written at `tail` and freed from `head`. The
/// expected messages stand in for the bytes between the cursors.
struct FlatRingModel {
  std::size_t capacity;
  std::uint64_t head = 0, tail = 0;
  std::deque<Buffer> queued;

  [[nodiscard]] bool can_push(std::size_t payload) const {
    return capacity - (tail - head) >= 4 + payload;
  }
  void push(Buffer message) {
    tail += 4 + message.size();
    queued.push_back(std::move(message));
  }
  Buffer pop() {
    Buffer message = std::move(queued.front());
    queued.pop_front();
    head += 4 + message.size();
    return message;
  }
};

TEST_F(LaneFixture, AdmissionMatchesFlatRingOfSameCapacity) {
  // Property: whatever the interleaving of sends and deliveries, the lane
  // admits exactly what a flat byte ring of the same capacity admits, and
  // delivers the same messages in the same order. Only what the flat ring
  // admits is sent, so nothing waits in the overflow.
  constexpr std::size_t k_ring_bytes = 3000;  // rounds up to 4096
  constexpr std::size_t max_payload = 4096 - 4;
  static_assert(ShmLane::max_payload(k_ring_bytes) == max_payload);
  ShmLane lane(cluster.host(0), k_ring_bytes);
  FlatRingModel ring{4096, 0, 0, {}};
  std::deque<Message> got;
  lane.set_receiver([&](Message&& m) { got.push_back(std::move(m)); });
  Rng rng(11);
  auto random_size = [&]() -> std::size_t {
    const double pick = rng.next_double();
    if (pick < 0.05) return 0;
    if (pick < 0.10) return max_payload - rng.next_below(8);
    return rng.next_below(1200);
  };
  std::uint64_t next_push = 0, next_pop = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::size_t probe = random_size();
    ASSERT_EQ(lane.can_send(probe), ring.can_push(probe)) << "step " << step;
    ASSERT_EQ(lane.can_send(max_payload), ring.can_push(max_payload)) << "step " << step;
    ASSERT_EQ(lane.empty(), ring.queued.empty()) << "step " << step;
    if (rng.chance(0.5)) {
      Buffer msg(random_size());
      fill_pattern(msg.mutable_view(), next_push);
      if (!ring.can_push(msg.size())) continue;
      ring.push(msg);  // a deep copy: the lane takes msg's block
      // Headless, or split into a head held by value and a body: the lane
      // admits both by their total size.
      const std::size_t head = rng.chance(0.5) ? std::min(msg.size(), Message::k_max_head) : 0;
      lane.send(Message(msg.view().first(head), msg.slice(head, msg.size() - head)));
      ++next_push;
    } else if (!lane.empty()) {
      const std::uint64_t before = lane.messages_delivered();
      while (lane.messages_delivered() == before) ASSERT_TRUE(cluster.loop().step());
      const Buffer expected = ring.pop();
      ASSERT_EQ(got.size(), 1u);
      const Buffer arrived = Buffer::gather({got.front().head(), got.front().body().view()});
      ASSERT_EQ(arrived, expected) << "step " << step;
      ASSERT_TRUE(check_pattern(arrived.view(), next_pop++));
      got.pop_front();
    }
  }
  EXPECT_GT(next_pop, 1000u);
}

TEST_F(LaneFixture, SendByMoveHandsOverTheBufferOrLeavesIt) {
  // The lane takes the message itself and delivers that very payload
  // block, whether it fits the ring now or waits in the overflow first.
  ShmLane lane(cluster.host(0), 1 << 10);
  std::vector<Message> got;
  lane.set_receiver([&](Message&& m) { got.push_back(std::move(m)); });
  Buffer payload(600);
  fill_pattern(payload.mutable_view(), 1);
  const std::byte* first_storage = payload.data();
  Message first(std::move(payload));
  lane.send(std::move(first));
  EXPECT_TRUE(first.body().empty());  // NOLINT(bugprone-use-after-move): moved from

  Message second(Buffer(600));
  fill_pattern(second.body().mutable_view(), 2);
  const std::byte* second_storage = second.body().data();
  EXPECT_FALSE(lane.can_send(600));
  lane.send(std::move(second));
  EXPECT_TRUE(second.body().empty());  // NOLINT(bugprone-use-after-move): moved from
  EXPECT_FALSE(lane.writable());

  cluster.loop().run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].body().view().data(), first_storage);
  EXPECT_TRUE(check_pattern(got[0].body().view(), 1));
  EXPECT_EQ(got[1].body().view().data(), second_storage);
  EXPECT_TRUE(check_pattern(got[1].body().view(), 2));
  EXPECT_TRUE(lane.writable());
}

TEST_F(LaneFixture, ChargesSenderAndReceiverCpu) {
  ShmLane lane(cluster.host(0), 1 << 20);
  sim::UsageAccount tx("tx"), rx("rx");
  lane.set_sender_account(&tx);
  lane.set_receiver_account(&rx);
  lane.set_receiver([](Message&&) {});
  lane.send(Buffer(100000));
  cluster.loop().run();
  const auto& m = cluster.cost_model();
  EXPECT_NEAR(tx.busy_ns, m.shm_post_ns + m.shm_copy_ns_per_byte * 100000, 1.0);
  EXPECT_NEAR(rx.busy_ns, m.shm_poll_ns + m.shm_copy_ns_per_byte * 100000, 1.0);
}

TEST_F(LaneFixture, BackpressureAndOnSpace) {
  // A send past capacity waits in the overflow: the lane is not writable
  // until the first delivery frees room and the waiting message enters the
  // ring, in order, before on_space fires.
  ShmLane lane(cluster.host(0), 1 << 10);  // tiny ring
  std::vector<std::size_t> delivered;
  lane.set_receiver([&](Message&& m) { delivered.push_back(m.size()); });
  lane.send(Buffer(600));
  EXPECT_TRUE(lane.writable());
  lane.send(Buffer(500));
  EXPECT_FALSE(lane.writable());
  EXPECT_FALSE(lane.empty());
  lane.send(Buffer(10));  // fits the ring, but queues behind the waiting one
  EXPECT_FALSE(lane.writable());

  std::vector<bool> writable_on_space;
  lane.set_on_space([&]() { writable_on_space.push_back(lane.writable()); });
  cluster.loop().run();
  EXPECT_EQ(delivered, (std::vector<std::size_t>{600, 500, 10}));
  // The first delivery moved both waiting messages into the ring.
  ASSERT_EQ(writable_on_space.size(), 3u);
  EXPECT_TRUE(writable_on_space[0]);
  EXPECT_TRUE(lane.empty());
  EXPECT_TRUE(lane.can_send(600));
}

TEST_F(LaneFixture, TakeBackReturnsRingThenOverflowOldestFirst) {
  // take_back hands over every undelivered message, ring then overflow,
  // oldest first. The deliveries already scheduled for them do nothing: a
  // message sent after the take-back arrives exactly once, by its own
  // delivery, and the receiver is charged for that one alone.
  ShmLane lane(cluster.host(0), 1 << 10);
  sim::UsageAccount rx("rx");
  lane.set_receiver_account(&rx);
  std::vector<std::string> got;
  lane.set_receiver([&](Message&& m) { got.push_back(m.body().to_string()); });
  const std::string big(600, 'a');
  lane.send(Buffer::from_string(big));
  lane.send(Buffer::from_string("b"));
  lane.send(Buffer::from_string(std::string(600, 'c')));  // overflow
  lane.send(Buffer::from_string("d"));                    // behind it
  // Both copies into the ring are done (250 ns post + 0.06 ns/B each) and
  // their wakeups (300 ns) are in flight: no receive has run yet.
  cluster.loop().run_until(cluster.loop().now() + 550);
  ASSERT_EQ(lane.messages_delivered(), 0u);
  ASSERT_EQ(rx.busy_ns, 0.0);

  std::vector<Message> back = lane.take_back();
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[0].body().to_string(), big);
  EXPECT_EQ(back[1].body().to_string(), "b");
  EXPECT_EQ(back[2].body().to_string(), std::string(600, 'c'));
  EXPECT_EQ(back[3].body().to_string(), "d");
  EXPECT_TRUE(lane.empty());
  EXPECT_TRUE(lane.writable());

  lane.send(Buffer::from_string("after"));
  cluster.loop().run();
  EXPECT_EQ(got, (std::vector<std::string>{"after"}));
  EXPECT_EQ(lane.messages_delivered(), 1u);
  const auto& m = cluster.cost_model();
  EXPECT_NEAR(rx.busy_ns, m.shm_poll_ns + m.shm_copy_ns_per_byte * 5, 1.0);
  EXPECT_TRUE(lane.empty());
}

TEST_F(LaneFixture, CloseSenderDropsOverflowWhileTheRingDrains) {
  ShmLane lane(cluster.host(0), 1 << 10);
  std::vector<std::size_t> delivered;
  lane.set_receiver([&](Message&& m) { delivered.push_back(m.size()); });
  int spaces = 0;
  lane.set_on_space([&]() { ++spaces; });
  lane.send(Buffer(600));
  lane.send(Buffer(600));  // overflow
  lane.close_sender();
  cluster.loop().run();
  EXPECT_EQ(delivered, (std::vector<std::size_t>{600}));
  EXPECT_EQ(spaces, 0);
  EXPECT_TRUE(lane.empty());
}

TEST_F(LaneFixture, ReceiverInstalledDuringDispatchGetsTheNextMessage) {
  // A handshake handler installs its data-phase successor from inside its
  // own call, then keeps using its captures: the running handler must stay
  // alive until it returns, and every later message reaches the successor.
  ShmLane lane(cluster.host(0), 1 << 16);
  std::vector<std::string> got;
  auto tag = std::make_shared<std::string>("handshake");
  lane.set_receiver([&lane, &got, tag](Message&& m) {
    lane.set_receiver(
        [&got](Message&& data) { got.push_back("data:" + data.body().to_string()); });
    got.push_back(*tag + ":" + m.body().to_string());  // captures still alive here
  });
  tag.reset();
  for (const char* m : {"1", "2", "3"}) {
    lane.send(Buffer::from_string(m));
  }
  cluster.loop().run();
  EXPECT_EQ(got, (std::vector<std::string>{"handshake:1", "data:2", "data:3"}));
  EXPECT_EQ(lane.messages_delivered(), 3u);
}

TEST_F(LaneFixture, HandlersClearingThemselvesDuringDispatch) {
  // A receiver that unhooks itself (an endpoint closing from inside its
  // handler) sees exactly one message; the rest are dropped, not delivered
  // to the dead handler. The space handler does the same from its own call.
  ShmLane lane(cluster.host(0), 1 << 16);
  auto received = std::make_shared<int>(0);
  auto spaces = std::make_shared<int>(0);
  lane.set_receiver([&lane, received](Message&&) {
    lane.set_receiver(nullptr);
    ++*received;
  });
  lane.set_on_space([&lane, spaces]() {
    lane.set_on_space(nullptr);
    ++*spaces;
  });
  for (int i = 0; i < 3; ++i) {
    lane.send(Buffer::from_string("m"));
  }
  cluster.loop().run();
  EXPECT_EQ(*received, 1);
  EXPECT_EQ(*spaces, 1);
  EXPECT_EQ(lane.messages_delivered(), 3u);
  EXPECT_EQ(received.use_count(), 1);  // the cleared handler was released
  EXPECT_EQ(spaces.use_count(), 1);
}

TEST_F(LaneFixture, SinglePairThroughputNearMemoryBandwidth) {
  // The paper's claim: shm throughput approaches memory bandwidth and
  // dwarfs the 40 Gb/s NIC. Stream 1 MiB messages closed-loop for 20 ms.
  ShmLane lane(cluster.host(0), 8 << 20);
  std::uint64_t received = 0;
  const std::size_t msg = 1 << 20;
  std::function<void()> refill = [&]() {
    while (lane.can_send(msg)) {
      lane.send(Buffer(msg));
    }
  };
  lane.set_receiver([&](Message&& m) { received += m.size(); });
  lane.set_on_space(refill);
  refill();
  cluster.loop().run_until(20 * k_millisecond);
  const double gbps = throughput_gbps(received, cluster.loop().now());
  EXPECT_GT(gbps, 90.0);   // far above the 40 Gb/s NIC
  EXPECT_LT(gbps, 250.0);  // below the memory bus ceiling
}

TEST_F(LaneFixture, SenderCopiesSerializeOnOneCore) {
  // Queue several large messages at once: the producer is one thread, so
  // total elapsed >= sum of the per-message copy costs even on 4 cores.
  ShmLane lane(cluster.host(0), 32 << 20);
  int delivered = 0;
  lane.set_receiver([&](Message&&) { ++delivered; });
  const std::size_t msg = 1 << 20;
  const auto& m = cluster.cost_model();
  for (int i = 0; i < 8; ++i) {
    lane.send(Buffer(msg));
  }
  cluster.loop().run();
  EXPECT_EQ(delivered, 8);
  const double copy_ns = m.shm_copy_ns_per_byte * static_cast<double>(msg);
  EXPECT_GE(static_cast<double>(cluster.loop().now()), 8 * copy_ns);
}

TEST_F(LaneFixture, InterleavedLanesPreservePerLaneOrder) {
  ShmLane a(cluster.host(0), 1 << 20);
  ShmLane b(cluster.host(0), 1 << 20);
  std::vector<std::uint64_t> got_a, got_b;
  a.set_receiver([&](Message&& msg) {
    got_a.push_back(static_cast<std::uint64_t>(msg.size()));
  });
  b.set_receiver([&](Message&& msg) {
    got_b.push_back(static_cast<std::uint64_t>(msg.size()));
  });
  for (std::size_t i = 1; i <= 6; ++i) {
    a.send(Buffer(100 * i));
    b.send(Buffer(200 * i));
  }
  cluster.loop().run();
  EXPECT_EQ(got_a, (std::vector<std::uint64_t>{100, 200, 300, 400, 500, 600}));
  EXPECT_EQ(got_b, (std::vector<std::uint64_t>{200, 400, 600, 800, 1000, 1200}));
}

TEST_F(LaneFixture, ZeroLengthMessageDelivered) {
  ShmLane lane(cluster.host(0), 1 << 12);
  bool got = false;
  lane.set_receiver([&](Message&& msg) { got = msg.size() == 0; });
  lane.send(Message());
  cluster.loop().run();
  EXPECT_TRUE(got);
}

TEST_F(LaneFixture, LatencySubMicrosecondForSmallMessages) {
  ShmLane lane(cluster.host(0), 1 << 20);
  SimTime sent = 0, got = -1;
  lane.set_receiver([&](Message&&) { got = cluster.loop().now(); });
  sent = cluster.loop().now();
  lane.send(Buffer(64));
  cluster.loop().run();
  const SimDuration oneway = got - sent;
  EXPECT_GT(oneway, 0);
  EXPECT_LT(oneway, 2 * k_microsecond);
}

}  // namespace
}  // namespace freeflow::shm
