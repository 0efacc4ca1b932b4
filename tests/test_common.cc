#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/framing.h"
#include "common/histogram.h"
#include "common/inline_function.h"
#include "common/rng.h"
#include "common/slab_pool.h"
#include "common/status.h"
#include "common/units.h"

namespace freeflow {
namespace {

// ----------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::ok);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = permission_denied("nope");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::permission_denied);
  EXPECT_EQ(s.to_string(), "permission_denied: nope");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(not_found("a"), not_found("b"));
  EXPECT_FALSE(not_found("a") == timed_out("a"));
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(Errc::internal); ++c) {
    EXPECT_NE(errc_name(static_cast<Errc>(c)), "unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = not_found("missing");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::not_found);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.is_ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 5);
}

// ----------------------------------------------------------------- Buffer

TEST(Buffer, RoundTripsStrings) {
  Buffer b = Buffer::from_string("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.to_string(), "hello");
}

TEST(Buffer, AppendGrows) {
  Buffer b;
  b.append(Buffer::from_string("ab").view());
  b.append(Buffer::from_string("cd").view());
  EXPECT_EQ(b.to_string(), "abcd");
}

TEST(Buffer, SizedConstructorZeroFills) {
  Buffer b(4096);
  ASSERT_EQ(b.size(), 4096u);
  for (std::byte x : b.view()) ASSERT_EQ(x, std::byte{0});
  b.resize(8192);  // growth zero-fills too
  for (std::byte x : b.view()) ASSERT_EQ(x, std::byte{0});
}

TEST(Buffer, ForOverwriteHasRequestedSize) {
  Buffer b = Buffer::for_overwrite(1000);
  EXPECT_EQ(b.size(), 1000u);
  fill_pattern(b.mutable_view(), 5);
  EXPECT_TRUE(check_pattern(b.view(), 5));
  EXPECT_TRUE(Buffer::for_overwrite(0).empty());
}

TEST(Buffer, ConsumeFrontAdvancesWithoutCopying) {
  Buffer b = Buffer::from_string("headerpayload");
  const std::byte* payload = b.data() + 6;
  b.consume_front(6);
  EXPECT_EQ(b.data(), payload);  // same storage: nothing moved
  EXPECT_EQ(b.size(), 7u);
  EXPECT_EQ(b.to_string(), "payload");
  b.consume_front(7);
  EXPECT_TRUE(b.empty());
}

TEST(Buffer, AppendAfterConsumeFrontKeepsBytes) {
  Buffer b = Buffer::from_string("xxabc");
  b.consume_front(2);
  b.append(Buffer::from_string("de").view());  // fits in the consumed prefix
  EXPECT_EQ(b.to_string(), "abcde");
  b.append(Buffer::from_string(std::string(1000, 'f')).view());  // must grow
  EXPECT_EQ(b.to_string(), "abcde" + std::string(1000, 'f'));
}

TEST(Buffer, CopyEqualityAndMove) {
  Buffer a = Buffer::from_string("..same");
  a.consume_front(2);
  Buffer copy = a;
  EXPECT_EQ(copy, a);
  EXPECT_NE(copy.data(), a.data());
  EXPECT_EQ(copy, Buffer::from_string("same"));
  EXPECT_FALSE(copy == Buffer::from_string("sane"));
  EXPECT_FALSE(copy == Buffer::from_string("same!"));
  EXPECT_EQ(Buffer(), Buffer::for_overwrite(0));

  const std::byte* storage = a.data();
  Buffer moved = std::move(a);
  EXPECT_EQ(moved.data(), storage);
  EXPECT_EQ(moved.to_string(), "same");
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): the contract
  EXPECT_EQ(a.size(), 0u);

  Buffer assigned = Buffer::from_string("old");
  assigned = moved;
  EXPECT_EQ(assigned.to_string(), "same");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.to_string(), "same");
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

// A handle on a block is as large as the unique_ptr-owned buffer it
// replaced: the count lives in the block.
static_assert(sizeof(Buffer) == sizeof(void*) + 3 * sizeof(std::size_t));

TEST(Buffer, ShareAndSliceViewTheSameBytes) {
  const Buffer whole = Buffer::from_string("0123456789");
  const Buffer all = whole.share();
  const Buffer part = whole.slice(2, 5);
  EXPECT_EQ(all.view().data(), whole.view().data());
  EXPECT_EQ(part.view().data(), whole.view().data() + 2);
  EXPECT_EQ(all.to_string(), "0123456789");
  EXPECT_EQ(part.to_string(), "23456");
  EXPECT_EQ(part.slice(1, 3).to_string(), "345");
  EXPECT_TRUE(whole.slice(10, 0).empty());
}

TEST(Buffer, EveryMutatorThroughAShareOrSliceLeavesTheOtherHandleIntact) {
  const std::vector<std::pair<const char*, std::function<void(Buffer&)>>> mutators = {
      {"data", [](Buffer& b) { b.data()[0] = std::byte{'X'}; }},
      {"mutable_view", [](Buffer& b) { b.mutable_view()[1] = std::byte{'Y'}; }},
      {"append", [](Buffer& b) { b.append("zz", 2); }},
      {"resize up", [](Buffer& b) { b.resize(b.size() + 3); }},
      {"resize down", [](Buffer& b) { b.resize(1); }},
      {"consume_front", [](Buffer& b) { b.consume_front(1); }},
      {"consume all", [](Buffer& b) { b.consume_front(b.size()); }},
      {"clear", [](Buffer& b) { b.clear(); }},
  };
  const std::string bytes = "0123456789";
  for (const auto& [name, mutate] : mutators) {
    for (const bool slice : {false, true}) {
      const std::string part = slice ? bytes.substr(2, 5) : bytes;
      // Through the new handle: the original keeps its bytes.
      Buffer original = Buffer::from_string(bytes);
      Buffer handle = slice ? original.slice(2, 5) : original.share();
      mutate(handle);
      EXPECT_EQ(original.to_string(), bytes) << name << (slice ? " on a slice" : " on a share");
      // Through the original: the new handle keeps its bytes.
      Buffer other = Buffer::from_string(bytes);
      const Buffer kept = slice ? other.slice(2, 5) : other.share();
      mutate(other);
      EXPECT_EQ(kept.to_string(), part) << name << (slice ? " beside a slice" : " beside a share");
    }
  }
}

TEST(Buffer, AppendOnASliceNeverOverwritesTheNextSlice) {
  Buffer left, right;
  {
    const Buffer whole = Buffer::from_string("aaaabbbb");
    left = whole.slice(0, 4);
    right = whole.slice(4, 4);
  }
  left.append("XX", 2);
  EXPECT_EQ(left.to_string(), "aaaaXX");
  EXPECT_EQ(right.to_string(), "bbbb");
  // Once its neighbour is gone a slice owns its block and grows in place.
  Buffer first;
  {
    const Buffer whole = Buffer::from_string("ccccdddd");
    first = whole.slice(0, 4);
  }
  const std::byte* at = first.view().data();
  first.append("ee", 2);
  EXPECT_EQ(first.view().data(), at);
  EXPECT_EQ(first.to_string(), "ccccee");
}

TEST(Buffer, ShareOutlivesItsOriginal) {
  Buffer share, slice;
  {
    Buffer original = Buffer::from_string("outlives");
    share = original.share();
    slice = original.slice(3, 5);
  }
  EXPECT_EQ(share.to_string(), "outlives");
  EXPECT_EQ(slice.to_string(), "lives");
  EXPECT_EQ(share.use_count(), 2u);  // the original's reference is gone
  // The last handle writes in place: nothing else sees the block.
  const std::byte* at = slice.view().data();
  share = Buffer();
  EXPECT_EQ(share.use_count(), 0u);
  EXPECT_EQ(slice.use_count(), 1u);
  slice.data()[0] = std::byte{'L'};
  EXPECT_EQ(slice.view().data(), at);
  EXPECT_EQ(slice.to_string(), "Lives");
}

TEST(Buffer, CopyConstructorStaysDeep) {
  Buffer original = Buffer::from_string("deep copy");
  const Buffer share = original.share();
  const Buffer copy = share;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_NE(copy.view().data(), share.view().data());
  EXPECT_EQ(copy, share);
  EXPECT_EQ(copy.use_count(), 1u);
  EXPECT_EQ(share.use_count(), 2u);
  Buffer slice_copy = original.slice(5, 4);
  slice_copy = Buffer(slice_copy);
  const std::byte* at = slice_copy.view().data();
  slice_copy.data()[0] = std::byte{'C'};  // the copy owns its block: no copy
  EXPECT_EQ(slice_copy.view().data(), at);
  EXPECT_EQ(slice_copy.to_string(), "Copy");
  EXPECT_EQ(original.to_string(), "deep copy");
}

TEST(Framing, RecordsParseWholeHoweverTheStreamIsCut) {
  // Three records, one gathered from head, body and tail and one empty,
  // back to back on one stream: fed in chunks of every size, they pop out
  // whole and in order, several per chunk when a chunk holds several.
  const Buffer head = Buffer::from_string("head:"), body = Buffer::from_string("body");
  const Buffer tail = Buffer::from_string(":tail"), solo = Buffer::from_string("solo");
  const std::vector<std::string> expected = {"head:body:tail", "", "solo"};
  Buffer stream = frame_record(head.view(), body.view(), tail.view());
  stream.append(frame_record({}).view());
  stream.append(frame_record(solo.view()).view());
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    Buffer accum;
    std::vector<std::string> got;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - at);
      append_stream_bytes(accum, Buffer(stream.data() + at, n));
      Buffer record;
      while (pop_record(accum, record)) got.push_back(record.to_string());
    }
    EXPECT_EQ(got, expected) << "chunk " << chunk;
    EXPECT_TRUE(accum.empty()) << "chunk " << chunk;
  }
}

TEST(Crc32, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  const Buffer b = Buffer::from_string("123456789");
  EXPECT_EQ(crc32(b.view()), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(ByteSpan{}), 0u); }

TEST(Crc32, SensitiveToEveryByte) {
  Buffer b(64);
  fill_pattern(b.mutable_view(), 1);
  const std::uint32_t base = crc32(b.view());
  for (std::size_t i = 0; i < b.size(); i += 7) {
    Buffer c = b;
    c.data()[i] ^= std::byte{1};
    EXPECT_NE(crc32(c.view()), base) << "flip at " << i;
  }
}

TEST(Pattern, DeterministicAndSeedSensitive) {
  Buffer a(256), b(256), c(256);
  fill_pattern(a.mutable_view(), 1);
  fill_pattern(b.mutable_view(), 1);
  fill_pattern(c.mutable_view(), 2);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(check_pattern(a.view(), 1));
  EXPECT_FALSE(check_pattern(a.view(), 2));
}

// -------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng rng(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234);
  EXPECT_EQ(h.max(), 1234);
  // Bucketed quantile is within the bucket's relative error (~3 %).
  EXPECT_NEAR(static_cast<double>(h.p50()), 1234.0, 1234.0 * 0.05);
}

TEST(Histogram, QuantilesOfUniformRamp) {
  Histogram h;
  for (int v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_NEAR(static_cast<double>(h.p50()), 5000.0, 5000.0 * 0.06);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9900.0, 9900.0 * 0.06);
  EXPECT_EQ(h.max(), 10000);
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

TEST(Histogram, MergeMatchesCombined) {
  Histogram a, b, combined;
  for (int v = 0; v < 5000; ++v) {
    a.record(v);
    combined.record(v);
  }
  for (int v = 5000; v < 10000; ++v) {
    b.record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.p50(), combined.p50());
  EXPECT_EQ(a.max(), combined.max());
}

TEST(Histogram, MergeMixedResolutionKeepsExactMoments) {
  // Merging across resolutions re-records bucket midpoints, but count, sum
  // (hence mean), min and max are carried over exactly in both directions.
  Histogram fine(5), coarse(2);
  std::uint64_t n = 0;
  std::int64_t sum = 0;
  for (int v = 1; v <= 4000; ++v) {
    fine.record(v);
    ++n;
    sum += v;
  }
  for (int v = 4001; v <= 8000; ++v) {
    coarse.record(v);
    ++n;
    sum += v;
  }
  Histogram into_coarse(2);
  into_coarse.merge(fine);    // fine -> coarse
  into_coarse.merge(coarse);  // same resolution
  Histogram into_fine(5);
  into_fine.merge(coarse);  // coarse -> fine
  into_fine.merge(fine);
  for (const Histogram* h : {&into_coarse, &into_fine}) {
    EXPECT_EQ(h->count(), n);
    EXPECT_EQ(h->min(), 1);
    EXPECT_EQ(h->max(), 8000);
    EXPECT_NEAR(h->mean(), static_cast<double>(sum) / static_cast<double>(n), 1e-9);
  }
}

TEST(Histogram, MergeMixedResolutionQuantileDriftBounded) {
  // Quantiles after a cross-resolution merge must stay within one bucket of
  // the *coarser* histogram: relative error <= 2^-sub_log2 (plus the fine
  // side's own bucketing), here 1/4 for sub_log2 = 2.
  Histogram fine(5), reference(2), merged(2);
  for (int v = 1; v <= 10000; ++v) {
    fine.record(v);
    reference.record(v);
  }
  merged.merge(fine);
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const auto want = static_cast<double>(reference.quantile(q));
    const auto got = static_cast<double>(merged.quantile(q));
    EXPECT_NEAR(got, want, want * 0.25) << "q=" << q;
  }

  // And the other direction: coarse counts re-recorded into a fine grid
  // can only be off by the coarse bucket they came from.
  Histogram coarse(2), fine_ref(5), fine_merged(5);
  for (int v = 1; v <= 10000; ++v) {
    coarse.record(v);
    fine_ref.record(v);
  }
  fine_merged.merge(coarse);
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    const auto want = static_cast<double>(fine_ref.quantile(q));
    const auto got = static_cast<double>(fine_merged.quantile(q));
    EXPECT_NEAR(got, want, want * 0.25) << "q=" << q;
  }
}

TEST(Histogram, MergeMixedResolutionIntoEmptyAdoptsBounds) {
  Histogram coarse(2);
  coarse.record(100);
  coarse.record(900);
  Histogram fine(5);
  fine.merge(coarse);  // empty target, different resolution
  EXPECT_EQ(fine.count(), 2u);
  EXPECT_EQ(fine.min(), 100);
  EXPECT_EQ(fine.max(), 900);
  Histogram empty(2);
  fine.merge(empty);  // merging an empty histogram is a no-op
  EXPECT_EQ(fine.count(), 2u);
  EXPECT_EQ(fine.min(), 100);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(10);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), -5);  // min/max track raw values
}

class HistogramQuantileSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(HistogramQuantileSweep, RelativeErrorBounded) {
  // Property: for a point mass at V, every quantile is within ~3 % of V.
  const std::int64_t v = GetParam();
  Histogram h;
  h.record_n(v, 1000);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_NEAR(static_cast<double>(h.quantile(q)), static_cast<double>(v),
                static_cast<double>(v) * 0.05 + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramQuantileSweep,
                         ::testing::Values(1, 17, 1000, 123456, 99999999,
                                           123456789012LL));

TEST(FormatNs, HumanReadableAcrossScales) {
  EXPECT_EQ(format_ns(830), "830ns");
  EXPECT_EQ(format_ns(12'500), "12.50us");
  EXPECT_EQ(format_ns(1'250'000), "1.25ms");
  EXPECT_EQ(format_ns(2'000'000'000), "2.00s");
}

// ------------------------------------------------------------------ units

TEST(Units, TransmissionTime) {
  // 1500 bytes at 1 Gb/s = 12 us.
  EXPECT_EQ(transmission_time(1500, 1e9), 12000);
  EXPECT_EQ(transmission_time(0, 1e9), 0);
}

TEST(Units, ThroughputGbps) {
  // 1 GB in 1 second = 8 Gb/s.
  EXPECT_NEAR(throughput_gbps(1'000'000'000, k_second), 8.0, 1e-9);
  EXPECT_EQ(throughput_gbps(100, 0), 0.0);
}

TEST(Units, Literals) {
  EXPECT_EQ(64_KiB, 65536u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, 2147483648u);
}

// --------------------------------------------------------- InlineFunction

TEST(InlineFunction, DefaultIsEmpty) {
  common::InlineFunction<void(), 32> f;
  EXPECT_FALSE(f);
  f = []() {};
  EXPECT_TRUE(f);
  f.reset();
  EXPECT_FALSE(f);
}

TEST(InlineFunction, InvokesWithArgsAndResult) {
  common::InlineFunction<int(int, int), 16> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunction, CaptureUpToCapacityFitsInline) {
  // Exactly-at-capacity captures must compile and work: the storage is
  // 8-byte aligned (not max_align_t), so a 32-byte capture fits Capacity 32.
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  common::InlineFunction<std::uint64_t(), 32> f = [a, b, c, d]() { return a + b + c + d; };
  static_assert(sizeof(f) == 32 + sizeof(void*));
  EXPECT_EQ(f(), 10u);
}

TEST(InlineFunction, MoveTransfersStateAndEmptiesSource) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  common::InlineFunction<int(), 32> f = [token = std::move(token)]() { return *token; };
  common::InlineFunction<int(), 32> g = std::move(f);
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): post-move state is specified
  ASSERT_TRUE(g);
  EXPECT_EQ(g(), 7);
  EXPECT_FALSE(alive.expired());
  g.reset();
  EXPECT_TRUE(alive.expired());  // capture destroyed exactly once
}

TEST(InlineFunction, MoveAssignDestroysPreviousTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  common::InlineFunction<void(), 32> f = [token = std::move(token)]() {};
  f = []() {};
  EXPECT_TRUE(alive.expired());
  EXPECT_TRUE(f);
}

TEST(InlineFunction, DestructorReleasesCapture) {
  std::weak_ptr<int> alive;
  {
    auto token = std::make_shared<int>(9);
    alive = token;
    common::InlineFunction<void(), 32> f = [token = std::move(token)]() {};
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

TEST(InlineFunction, MutableLambdaKeepsStateAcrossCalls) {
  common::InlineFunction<int(), 16> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
  EXPECT_EQ(counter(), 3);
}

// ---------------------------------------------------------------- SlabPool

TEST(SlabPool, RecyclesBlocksAcrossAcquisitions) {
  common::SlabPool<std::uint64_t> pool;
  auto p1 = pool.make(42u);
  EXPECT_EQ(*p1, 42u);
  const void* first = p1.get();
  p1.reset();  // returns the block to the freelist
  EXPECT_GE(pool.free_blocks(), 1u);
  auto p2 = pool.make(7u);
  EXPECT_EQ(p2.get(), first);  // same object+control block, recycled
  EXPECT_EQ(*p2, 7u);
}

TEST(SlabPool, SteadyStateChurnsWithoutGrowth) {
  common::SlabPool<int> pool;
  { auto warm = pool.make(0); }
  const std::size_t cap = pool.capacity();
  for (int i = 0; i < 10'000; ++i) {
    auto p = pool.make(i);
    EXPECT_EQ(*p, i);
  }
  EXPECT_EQ(pool.capacity(), cap);  // no new chunks carved
}

}  // namespace
}  // namespace freeflow
