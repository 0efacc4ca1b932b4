// The lock-free SpscRing on its own: single-threaded properties plus the
// two-thread stress cases. This binary links only the ring and ff_common,
// so ci stage 10 can build and race it under ThreadSanitizer quickly.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
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

}  // namespace
}  // namespace freeflow::shm
