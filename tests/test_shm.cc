#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fabric/cluster.h"
#include "shm/channel.h"
#include "shm/region.h"
#include "shm/spsc_ring.h"

namespace freeflow::shm {
namespace {

// --------------------------------------------------------------- SpscRing

TEST(SpscRing, PushPopRoundTrip) {
  SpscRing ring(1024);
  EXPECT_TRUE(ring.try_push(Buffer::from_string("hello").view()));
  Buffer out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out.to_string(), "hello");
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, PopOnEmptyFails) {
  SpscRing ring(256);
  Buffer out;
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, ZeroLengthMessages) {
  SpscRing ring(256);
  EXPECT_TRUE(ring.try_push(ByteSpan{}));
  Buffer out = Buffer::from_string("junk");
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(out.empty());
}

TEST(SpscRing, RejectsWhenFull) {
  SpscRing ring(64);
  Buffer big(60);
  EXPECT_TRUE(ring.try_push(big.view()));
  EXPECT_FALSE(ring.try_push(big.view()));
  Buffer out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(big.view()));  // space reclaimed
}

TEST(SpscRing, CapacityRoundsToPowerOfTwo) {
  SpscRing ring(1000);
  EXPECT_EQ(ring.capacity(), 1024u);
}

TEST(SpscRing, WrapAroundPreservesContent) {
  SpscRing ring(128);
  // Drive the cursors past the wrap point many times.
  for (int i = 0; i < 500; ++i) {
    Buffer msg(static_cast<std::size_t>(i % 40 + 1));
    fill_pattern(msg.mutable_view(), static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ring.try_push(msg.view()));
    Buffer out;
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out.size(), msg.size());
    ASSERT_TRUE(check_pattern(out.view(), static_cast<std::uint64_t>(i)));
  }
}

TEST(SpscRing, PropertyRandomOpsMatchModelQueue) {
  // Property: against a reference deque, random interleaved push/pop never
  // loses, duplicates or reorders messages.
  Rng rng(42);
  SpscRing ring(1 << 12);
  std::deque<Buffer> model;
  std::uint64_t next_seed = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.chance(0.55)) {
      Buffer msg(rng.next_below(200));
      fill_pattern(msg.mutable_view(), next_seed);
      const bool pushed = ring.try_push(msg.view());
      const bool expected = ring.record_size(msg.size()) <= (1u << 12) || !pushed;
      (void)expected;
      if (pushed) {
        model.push_back(std::move(msg));
        ++next_seed;
      } else {
        ASSERT_FALSE(model.empty());  // only full rings reject
      }
    } else {
      Buffer out;
      const bool popped = ring.try_pop(out);
      ASSERT_EQ(popped, !model.empty());
      if (popped) {
        ASSERT_EQ(out, model.front());
        model.pop_front();
      }
    }
  }
  EXPECT_EQ(ring.pushed() - ring.popped(), model.size());
}

TEST(SpscRing, TwoThreadStress) {
  // The ring is a real lock-free structure: hammer it from two OS threads
  // and verify the integrity of every message.
  SpscRing ring(1 << 14);
  constexpr int k_messages = 50000;
  std::atomic<bool> failed{false};

  std::thread producer([&]() {
    for (int i = 0; i < k_messages; ++i) {
      Buffer msg(static_cast<std::size_t>(i % 257));
      fill_pattern(msg.mutable_view(), static_cast<std::uint64_t>(i));
      while (!ring.try_push(msg.view())) {
        std::this_thread::yield();
      }
    }
  });
  std::thread consumer([&]() {
    Buffer out;
    for (int i = 0; i < k_messages; ++i) {
      while (!ring.try_pop(out)) {
        std::this_thread::yield();
      }
      if (out.size() != static_cast<std::size_t>(i % 257) ||
          !check_pattern(out.view(), static_cast<std::uint64_t>(i))) {
        failed = true;
        return;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(ring.empty());
}

std::int64_t minor_faults() {
  rusage usage{};
  FF_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return usage.ru_minflt;
}

TEST(SpscRing, StorageFaultsInOnlyAsWritten) {
  // A ring's storage is like a fresh shm mmap: pages fault in when traffic
  // first reaches them. Zero-filling at construction would touch every page
  // and make each connection cost its full ring capacity in page faults.
  constexpr std::size_t k_rings = 64;
  constexpr std::size_t k_ring_bytes = 4u << 20;  // 64 x 1024 pages
#if defined(__SANITIZE_ADDRESS__)
  // ASan poisons the shadow (one byte per 8) of every fresh large heap chunk
  // it hands out: instrumentation touching pages the program does not.
  constexpr std::int64_t k_shadow_pages = k_rings * k_ring_bytes / 8 / 4096;
#else
  constexpr std::int64_t k_shadow_pages = 0;
#endif
  const Buffer message = Buffer::from_string("only these bytes are touched");
  const std::int64_t before = minor_faults();
  std::vector<std::unique_ptr<SpscRing>> rings;
  for (std::size_t i = 0; i < k_rings; ++i) {
    rings.push_back(std::make_unique<SpscRing>(k_ring_bytes));
    ASSERT_TRUE(rings.back()->try_push(message.view()));
  }
  EXPECT_LT(minor_faults() - before, 4096 + k_shadow_pages);
  for (auto& ring : rings) {
    Buffer out;
    ASSERT_TRUE(ring->try_pop(out));
    EXPECT_EQ(out, message);
  }
}

// A flat ring of the same capacity, as a byte count: what the two-half ring
// must report whatever its generations are doing.
struct FlatRingModel {
  std::size_t capacity;
  std::deque<std::size_t> sizes;
  std::size_t used = 0;

  [[nodiscard]] bool can_push(std::size_t payload) const {
    return capacity - used >= SpscRing::record_size(payload);
  }
  void push(std::size_t payload) {
    sizes.push_back(payload);
    used += SpscRing::record_size(payload);
  }
  std::size_t pop() {
    const std::size_t payload = sizes.front();
    sizes.pop_front();
    used -= SpscRing::record_size(payload);
    return payload;
  }
};

void expect_matches(const SpscRing& ring, const FlatRingModel& model, std::size_t probe) {
  ASSERT_EQ(ring.used_bytes(), model.used);
  ASSERT_EQ(ring.free_bytes(), model.capacity - model.used);
  ASSERT_EQ(ring.empty(), model.used == 0);
  ASSERT_EQ(ring.can_push(probe), model.can_push(probe));
  ASSERT_EQ(ring.can_push(0), model.can_push(0));
  ASSERT_EQ(ring.can_push(SpscRing::max_payload(model.capacity)),
            model.can_push(SpscRing::max_payload(model.capacity)));
}

TEST(SpscRing, GenerationsMatchFlatRingAccounting) {
  // Property: however the producer switches halves, occupancy, free space
  // and admission are exactly a flat ring's, for every size from an empty
  // record to max_payload, and content round-trips in order.
  constexpr std::size_t k_capacity = 1 << 16;
  const std::size_t max_payload = SpscRing::max_payload(k_capacity);
  Rng rng(7);
  SpscRing ring(k_capacity);
  FlatRingModel model{k_capacity, {}, 0};
  std::uint64_t next_push = 0, next_pop = 0;
  auto random_size = [&]() -> std::size_t {
    const double pick = rng.next_double();
    if (pick < 0.05) return 0;
    if (pick < 0.10) return max_payload - rng.next_below(8);
    if (pick < 0.30) return rng.next_below(k_capacity / 4);
    return rng.next_below(600);
  };
  for (int step = 0; step < 40000; ++step) {
    if (rng.chance(0.5)) {
      const std::size_t size = random_size();
      Buffer msg(size);
      fill_pattern(msg.mutable_view(), next_push);
      const bool expected = model.can_push(size);
      ASSERT_EQ(ring.try_push(msg.view()), expected) << "step " << step;
      if (expected) {
        model.push(size);
        ++next_push;
      }
    } else {
      Buffer out;
      const bool popped = ring.try_pop(out);
      ASSERT_EQ(popped, !model.sizes.empty()) << "step " << step;
      if (popped) {
        ASSERT_EQ(out.size(), model.pop());
        ASSERT_TRUE(check_pattern(out.view(), next_pop++));
      }
    }
    expect_matches(ring, model, random_size());
  }
  EXPECT_GT(ring.generation(), 10u);  // the halves really were switched
}

TEST(SpscRing, SwitchWhileConsumerMidGeneration) {
  constexpr std::size_t k_payload = 1020;  // 1 KiB records
  SpscRing ring(1 << 16);
  FlatRingModel model{ring.capacity(), {}, 0};
  std::uint64_t next_push = 0, next_pop = 0;
  auto push = [&]() {
    Buffer msg(k_payload);
    fill_pattern(msg.mutable_view(), next_push++);
    ASSERT_TRUE(ring.try_push(msg.view()));
    model.push(k_payload);
  };
  auto pop = [&]() {
    Buffer out;
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out.size(), model.pop());
    ASSERT_TRUE(check_pattern(out.view(), next_pop++));
  };
  // Generation 0 reaches the switch offset with 8 records still unread.
  while (model.used + ring.record_size(k_payload) < SpscRing::k_switch_bytes) push();
  for (int i = 0; i < 8; ++i) pop();
  push();
  EXPECT_EQ(ring.generation(), 0u);
  push();  // consumer is in generation 0 with records left: switch anyway
  EXPECT_EQ(ring.generation(), 1u);
  expect_matches(ring, model, k_payload);
  // While the consumer is behind, generation 1 runs past the switch offset
  // without switching again: the old half still holds unread records.
  while (ring.can_push(k_payload)) push();
  EXPECT_EQ(ring.generation(), 1u);
  expect_matches(ring, model, k_payload);
  // Draining crosses the old generation's end into the new one in order.
  while (!model.sizes.empty()) {
    pop();
    expect_matches(ring, model, k_payload);
  }
  push();  // consumer caught up: generation 2 reuses the first half
  EXPECT_EQ(ring.generation(), 2u);
  pop();
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, SwitchFromEmptyRing) {
  SpscRing ring(1 << 16);
  const Buffer msg = Buffer::from_string("light load");
  std::size_t offset = 0;
  while (offset < SpscRing::k_switch_bytes) {
    ASSERT_TRUE(ring.try_push(msg.view()));
    Buffer out;
    ASSERT_TRUE(ring.try_pop(out));
    offset += ring.record_size(msg.size());
  }
  EXPECT_EQ(ring.generation(), 0u);
  EXPECT_TRUE(ring.empty());
  ASSERT_TRUE(ring.try_push(msg.view()));
  EXPECT_EQ(ring.generation(), 1u);
  EXPECT_EQ(ring.used_bytes(), ring.record_size(msg.size()));
  Buffer out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, msg);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, TwoThreadStressLargeRecords) {
  // Records up to half the capacity: the producer switches halves while the
  // consumer is still reading the old one, from two OS threads.
  constexpr std::size_t k_capacity = 1 << 16;
  constexpr int k_messages = 20000;
  SpscRing ring(k_capacity);
  std::atomic<bool> failed{false};
  auto size_of = [](int i) {
    const auto n = static_cast<std::size_t>(i) * 2654435761u;
    return (i % 4 == 0) ? n % (k_capacity / 2 - 4) : n % 512;
  };

  std::thread producer([&]() {
    for (int i = 0; i < k_messages; ++i) {
      Buffer msg(size_of(i));
      fill_pattern(msg.mutable_view(), static_cast<std::uint64_t>(i));
      while (!ring.try_push(msg.view())) {
        std::this_thread::yield();
      }
    }
  });
  std::thread consumer([&]() {
    Buffer out;
    for (int i = 0; i < k_messages; ++i) {
      while (!ring.try_pop(out)) {
        std::this_thread::yield();
      }
      if (out.size() != size_of(i) ||
          !check_pattern(out.view(), static_cast<std::uint64_t>(i))) {
        failed = true;
        return;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(ring.empty());
  EXPECT_GT(ring.generation(), 100u);
}

TEST(SpscRing, LightLoadTouchesFewPages) {
  // A lightly loaded ring cycles through the front of its two halves: 100k
  // messages of 256 B through a 4 MiB ring fault in a handful of pages, not
  // the 1,024 a cursor sweeping the whole capacity would.
  SpscRing ring(4u << 20);
  Buffer msg(256);
  fill_pattern(msg.mutable_view(), 3);
  Buffer out;
  const std::int64_t before = minor_faults();
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(ring.try_push(msg.view()));
    ASSERT_TRUE(ring.try_pop(out));
  }
#if defined(__SANITIZE_THREAD__)
  // TSan shadows each application byte it sees touched: four bytes of
  // shadow cells plus half a byte of metadata.
  constexpr std::int64_t k_faults_per_page = 6;
#else
  constexpr std::int64_t k_faults_per_page = 1;
#endif
  EXPECT_LT(minor_faults() - before, 64 * k_faults_per_page);
  EXPECT_EQ(out, msg);
}

/// Pushes `msg` as a prefix of `split` bytes and a body of the rest.
bool push_split(SpscRing& ring, const Buffer& msg, std::size_t split) {
  return ring.try_push(msg.view().first(split), msg.view().subspan(split));
}

TEST(SpscRing, GatherSplitAcrossWrapPopsByteExact) {
  // A 40-byte message starting at every offset of a 64-byte ring, split
  // into prefix and body at every point: the split falls before, on and
  // after the wrap.
  constexpr std::size_t k_size = 40;
  Buffer msg(k_size);
  fill_pattern(msg.mutable_view(), 5);
  for (std::size_t start = SpscRing::record_size(0); start < 64; ++start) {
    for (std::size_t split = 0; split <= k_size; ++split) {
      SpscRing ring(64);
      Buffer filler(start - SpscRing::record_size(0));
      Buffer out;
      ASSERT_TRUE(ring.try_push(filler.view()));
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_TRUE(push_split(ring, msg, split));
      ASSERT_EQ(ring.generation(), 0u);  // wrapped in place, no switch
      ASSERT_EQ(ring.used_bytes(), SpscRing::record_size(k_size));
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(out, msg) << "start " << start << " split " << split;
    }
  }
}

TEST(SpscRing, GatherSplitAcrossGenerationSwitchPopsByteExact) {
  // The producer ends generation 0 at (or past) the capacity with a record
  // still unread, so the gathered record is the first of generation 1, in
  // the other half; the consumer finishes the old record, then jumps.
  constexpr std::size_t k_size = 20;
  constexpr std::size_t k_second = 36;
  Buffer msg(k_size);
  fill_pattern(msg.mutable_view(), 6);
  Buffer second(k_second);
  fill_pattern(second.mutable_view(), 7);
  for (const std::size_t first : {24, 30, 44}) {
    for (std::size_t split = 0; split <= k_size; ++split) {
      SpscRing ring(64);
      Buffer out;
      ASSERT_TRUE(ring.try_push(Buffer(first - SpscRing::record_size(0)).view()));
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_TRUE(ring.try_push(second.view()));
      ASSERT_EQ(ring.generation(), 0u);
      ASSERT_TRUE(push_split(ring, msg, split));
      ASSERT_EQ(ring.generation(), 1u) << "first " << first;
      ASSERT_EQ(ring.free_bytes(), 0u);
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(out, second);
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(out, msg) << "first " << first << " split " << split;
      ASSERT_TRUE(ring.empty());
    }
  }
}

TEST(SpscRing, GatherAccountingMatchesFlatPush) {
  // A gather push is a flat push of the concatenation: same admission, same
  // occupancy, same generations, same bytes out.
  constexpr std::size_t k_capacity = 1 << 15;
  Rng rng(11);
  SpscRing gathered(k_capacity);
  SpscRing flat(k_capacity);
  std::uint64_t next_push = 0, next_pop = 0;
  for (int step = 0; step < 40000; ++step) {
    if (rng.chance(0.5)) {
      const std::size_t size = rng.chance(0.2) ? rng.next_below(k_capacity / 2)
                                               : rng.next_below(600);
      Buffer msg(size);
      fill_pattern(msg.mutable_view(), next_push);
      const bool pushed = push_split(gathered, msg, rng.next_below(size + 1));
      ASSERT_EQ(pushed, flat.try_push(msg.view())) << "step " << step;
      if (pushed) ++next_push;
    } else {
      Buffer a, b;
      const bool popped = gathered.try_pop(a);
      ASSERT_EQ(popped, flat.try_pop(b)) << "step " << step;
      if (popped) {
        ASSERT_EQ(a, b);
        ASSERT_TRUE(check_pattern(a.view(), next_pop++));
      }
    }
    const std::size_t probe = rng.next_below(k_capacity);
    ASSERT_EQ(gathered.used_bytes(), flat.used_bytes());
    ASSERT_EQ(gathered.can_push(probe), flat.can_push(probe));
    ASSERT_EQ(gathered.generation(), flat.generation());
  }
  EXPECT_GT(gathered.generation(), 10u);
}

TEST(SpscRing, TwoThreadGatherStress) {
  // Gathered records from one OS thread, popped whole by another: each
  // message is split at a different point, and records reach half the
  // capacity so splits land across wraps and generation switches.
  constexpr std::size_t k_capacity = 1 << 14;
  constexpr int k_messages = 20000;
  SpscRing ring(k_capacity);
  std::atomic<bool> failed{false};
  auto size_of = [](int i) {
    const auto n = static_cast<std::size_t>(i) * 2654435761u;
    return (i % 8 == 0) ? n % (k_capacity / 2 - 4) : 48 + n % 512;
  };

  std::thread producer([&]() {
    for (int i = 0; i < k_messages; ++i) {
      Buffer msg(size_of(i));
      fill_pattern(msg.mutable_view(), static_cast<std::uint64_t>(i));
      const std::size_t split = static_cast<std::size_t>(i) % (msg.size() + 1);
      while (!push_split(ring, msg, split)) {
        std::this_thread::yield();
      }
    }
  });
  std::thread consumer([&]() {
    Buffer out;
    for (int i = 0; i < k_messages; ++i) {
      while (!ring.try_pop(out)) {
        std::this_thread::yield();
      }
      if (out.size() != size_of(i) ||
          !check_pattern(out.view(), static_cast<std::uint64_t>(i))) {
        failed = true;
        return;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(ring.empty());
  EXPECT_GT(ring.generation(), 100u);
}

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
  lane.set_receiver([&](Buffer&& b) { got.push_back(std::move(b)); });
  for (int i = 0; i < 10; ++i) {
    Buffer msg(1000 + static_cast<std::size_t>(i));
    fill_pattern(msg.mutable_view(), static_cast<std::uint64_t>(i));
    ASSERT_TRUE(lane.send(msg.view()).is_ok());
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

TEST_F(LaneFixture, AdmissionMatchesSpscRingOfSameCapacity) {
  // Property: whatever the interleaving of sends and deliveries, the lane
  // admits exactly what an SpscRing asked for the same capacity admits, and
  // delivers the same messages in the same order.
  constexpr std::size_t k_ring_bytes = 3000;  // rounds up to 4096
  const std::size_t max_payload = SpscRing::max_payload(k_ring_bytes);
  ShmLane lane(cluster.host(0), k_ring_bytes);
  SpscRing ring(k_ring_bytes);
  std::deque<Buffer> got;
  lane.set_receiver([&](Buffer&& b) { got.push_back(std::move(b)); });
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
    ASSERT_EQ(lane.empty(), ring.empty()) << "step " << step;
    if (rng.chance(0.5)) {
      Buffer msg(random_size());
      fill_pattern(msg.mutable_view(), next_push);
      const bool pushed = ring.try_push(msg.view());
      const Status sent = rng.chance(0.5) ? lane.send(msg.view()) : lane.send(std::move(msg));
      ASSERT_EQ(sent.is_ok(), pushed) << "step " << step;
      if (pushed) ++next_push;
    } else if (!lane.empty()) {
      const std::uint64_t before = lane.messages_delivered();
      while (lane.messages_delivered() == before) ASSERT_TRUE(cluster.loop().step());
      Buffer out;
      ASSERT_TRUE(ring.try_pop(out));
      ASSERT_EQ(got.size(), 1u);
      ASSERT_EQ(got.front(), out) << "step " << step;
      ASSERT_TRUE(check_pattern(out.view(), next_pop++));
      got.pop_front();
    }
  }
  EXPECT_GT(next_pop, 1000u);
}

TEST_F(LaneFixture, SendByMoveHandsOverTheBufferOrLeavesIt) {
  // On success the lane takes the message itself and delivers that very
  // buffer; on would_block it leaves the caller's message untouched.
  ShmLane lane(cluster.host(0), 1 << 10);
  std::vector<Buffer> got;
  lane.set_receiver([&](Buffer&& b) { got.push_back(std::move(b)); });
  Buffer first(600);
  fill_pattern(first.mutable_view(), 1);
  const std::byte* storage = first.data();
  ASSERT_TRUE(lane.send(std::move(first)).is_ok());
  EXPECT_TRUE(first.empty());  // NOLINT(bugprone-use-after-move): moved from

  Buffer second(600);
  fill_pattern(second.mutable_view(), 2);
  EXPECT_EQ(lane.send(std::move(second)).code(), Errc::would_block);
  ASSERT_EQ(second.size(), 600u);  // NOLINT(bugprone-use-after-move): refused
  EXPECT_TRUE(check_pattern(second.view(), 2));

  cluster.loop().run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].data(), storage);
  EXPECT_TRUE(check_pattern(got[0].view(), 1));
  ASSERT_TRUE(lane.send(std::move(second)).is_ok());
  cluster.loop().run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(check_pattern(got[1].view(), 2));
}

TEST_F(LaneFixture, ChargesSenderAndReceiverCpu) {
  ShmLane lane(cluster.host(0), 1 << 20);
  sim::UsageAccount tx("tx"), rx("rx");
  lane.set_sender_account(&tx);
  lane.set_receiver_account(&rx);
  lane.set_receiver([](Buffer&&) {});
  Buffer msg(100000);
  ASSERT_TRUE(lane.send(msg.view()).is_ok());
  cluster.loop().run();
  const auto& m = cluster.cost_model();
  EXPECT_NEAR(tx.busy_ns, m.shm_post_ns + m.shm_copy_ns_per_byte * 100000, 1.0);
  EXPECT_NEAR(rx.busy_ns, m.shm_poll_ns + m.shm_copy_ns_per_byte * 100000, 1.0);
}

TEST_F(LaneFixture, BackpressureAndOnSpace) {
  ShmLane lane(cluster.host(0), 1 << 10);  // tiny ring
  int delivered = 0;
  lane.set_receiver([&](Buffer&&) { ++delivered; });
  Buffer big(600);
  ASSERT_TRUE(lane.send(big.view()).is_ok());
  const Status blocked = lane.send(big.view());
  EXPECT_EQ(blocked.code(), Errc::would_block);

  bool space_seen = false;
  lane.set_on_space([&]() { space_seen = true; });
  cluster.loop().run();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(space_seen);
  EXPECT_TRUE(lane.can_send(600));
}

TEST_F(LaneFixture, ReceiverInstalledDuringDispatchGetsTheNextMessage) {
  // A handshake handler installs its data-phase successor from inside its
  // own call, then keeps using its captures: the running handler must stay
  // alive until it returns, and every later message reaches the successor.
  ShmLane lane(cluster.host(0), 1 << 16);
  std::vector<std::string> got;
  auto tag = std::make_shared<std::string>("handshake");
  lane.set_receiver([&lane, &got, tag](Buffer&& b) {
    lane.set_receiver([&got](Buffer&& data) { got.push_back("data:" + data.to_string()); });
    got.push_back(*tag + ":" + b.to_string());  // captures still alive here
  });
  tag.reset();
  for (const char* m : {"1", "2", "3"}) {
    ASSERT_TRUE(lane.send(Buffer::from_string(m).view()).is_ok());
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
  lane.set_receiver([&lane, received](Buffer&&) {
    lane.set_receiver(nullptr);
    ++*received;
  });
  lane.set_on_space([&lane, spaces]() {
    lane.set_on_space(nullptr);
    ++*spaces;
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(lane.send(Buffer::from_string("m").view()).is_ok());
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
      Buffer b(msg);
      ASSERT_TRUE(lane.send(b.view()).is_ok());
    }
  };
  lane.set_receiver([&](Buffer&& b) { received += b.size(); });
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
  lane.set_receiver([&](Buffer&&) { ++delivered; });
  const std::size_t msg = 1 << 20;
  const auto& m = cluster.cost_model();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(lane.send(Buffer(msg).view()).is_ok());
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
  a.set_receiver([&](Buffer&& msg) {
    got_a.push_back(static_cast<std::uint64_t>(msg.size()));
  });
  b.set_receiver([&](Buffer&& msg) {
    got_b.push_back(static_cast<std::uint64_t>(msg.size()));
  });
  for (std::size_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(a.send(Buffer(100 * i).view()).is_ok());
    ASSERT_TRUE(b.send(Buffer(200 * i).view()).is_ok());
  }
  cluster.loop().run();
  EXPECT_EQ(got_a, (std::vector<std::uint64_t>{100, 200, 300, 400, 500, 600}));
  EXPECT_EQ(got_b, (std::vector<std::uint64_t>{200, 400, 600, 800, 1000, 1200}));
}

TEST_F(LaneFixture, ZeroLengthMessageDelivered) {
  ShmLane lane(cluster.host(0), 1 << 12);
  bool got = false;
  lane.set_receiver([&](Buffer&& msg) { got = msg.empty(); });
  ASSERT_TRUE(lane.send(ByteSpan{}).is_ok());
  cluster.loop().run();
  EXPECT_TRUE(got);
}

TEST_F(LaneFixture, LatencySubMicrosecondForSmallMessages) {
  ShmLane lane(cluster.host(0), 1 << 20);
  SimTime sent = 0, got = -1;
  lane.set_receiver([&](Buffer&&) { got = cluster.loop().now(); });
  Buffer tiny(64);
  sent = cluster.loop().now();
  ASSERT_TRUE(lane.send(tiny.view()).is_ok());
  cluster.loop().run();
  const SimDuration oneway = got - sent;
  EXPECT_GT(oneway, 0);
  EXPECT_LT(oneway, 2 * k_microsecond);
}

}  // namespace
}  // namespace freeflow::shm
