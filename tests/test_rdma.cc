#include <gtest/gtest.h>
#include <sys/resource.h>

#include <vector>

#include "fabric/cluster.h"
#include "rdma/cm.h"
#include "rdma/device.h"
#include "rdma/queue_pair.h"

namespace freeflow::rdma {
namespace {

struct RdmaFixture : ::testing::Test {
  RdmaFixture() {
    cluster.add_hosts(2);
    dev_a = std::make_unique<RdmaDevice>(cluster.host(0));
    dev_b = std::make_unique<RdmaDevice>(cluster.host(1));
  }

  /// Creates a connected QP pair between the two devices.
  std::pair<std::shared_ptr<QueuePair>, std::shared_ptr<QueuePair>> qp_pair(
      RdmaDevice& da, RdmaDevice& db) {
    auto qa = da.create_qp(da.create_cq(), da.create_cq());
    auto qb = db.create_qp(db.create_cq(), db.create_cq());
    EXPECT_TRUE(connect_pair(*qa, *qb).is_ok());
    return {qa, qb};
  }

  bool run_until(const std::function<bool()>& pred, SimDuration budget = k_second) {
    const SimTime deadline = cluster.loop().now() + budget;
    for (;;) {
      if (pred()) return true;
      if (cluster.loop().now() >= deadline || !cluster.loop().step()) return false;
    }
  }

  static std::size_t drain(CompletionQueue& cq, std::vector<WorkCompletion>& out) {
    WorkCompletion wc;
    std::size_t n = 0;
    while (cq.poll({&wc, 1}) == 1) {
      out.push_back(wc);
      ++n;
    }
    return n;
  }

  fabric::Cluster cluster;
  std::unique_ptr<RdmaDevice> dev_a;
  std::unique_ptr<RdmaDevice> dev_b;
};

TEST_F(RdmaFixture, MrRegistrationAndBounds) {
  auto mr = dev_a->reg_mr(4096);
  EXPECT_EQ(mr->length(), 4096u);
  EXPECT_NE(mr->lkey(), mr->rkey());
  EXPECT_TRUE(mr->slice(0, 4096).is_ok());
  EXPECT_FALSE(mr->slice(1, 4096).is_ok());
  EXPECT_EQ(dev_a->mr_by_rkey(mr->rkey()), mr);
  EXPECT_EQ(dev_a->mr_by_rkey(0xDEAD), nullptr);
}

std::int64_t minor_faults() {
  rusage usage{};
  FF_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return usage.ru_minflt;
}

TEST_F(RdmaFixture, MrStorageFaultsInOnlyAsWritten) {
  // Registration takes memory as it is, like ibv_reg_mr: an agent trunk's
  // slot MRs must not cost their full size in page faults before the first
  // record is written into them.
  constexpr std::size_t k_mrs = 8;
  constexpr std::size_t k_mr_bytes = 8u << 20;  // 8 x 2048 pages
  constexpr std::size_t k_slot_bytes = 64u << 10;
#if defined(__SANITIZE_ADDRESS__)
  // ASan poisons the shadow (one byte per 8) of every fresh large heap chunk
  // it hands out: instrumentation touching pages the program does not.
  constexpr std::int64_t k_shadow_pages = k_mrs * k_mr_bytes / 8 / 4096;
#else
  constexpr std::int64_t k_shadow_pages = 0;
#endif
  const std::int64_t before = minor_faults();
  std::vector<MrPtr> mrs;
  for (std::size_t i = 0; i < k_mrs; ++i) {
    mrs.push_back(dev_a->reg_mr(k_mr_bytes));
    auto slot = mrs.back()->slice(i * k_slot_bytes, k_slot_bytes);
    ASSERT_TRUE(slot.is_ok());
    fill_pattern(*slot, i);
  }
  EXPECT_LT(minor_faults() - before, 1024 + k_shadow_pages);
  for (std::size_t i = 0; i < k_mrs; ++i) {
    EXPECT_TRUE(check_pattern(mrs[i]->slice(i * k_slot_bytes, k_slot_bytes).value(), i));
  }
}

TEST(MemoryRegion, LargeStorageIsRecycled) {
  // A destroyed MR of at least k_pooled_bytes hands its storage to the
  // next MR of the same length, pages already faulted in.
  constexpr std::size_t k_len = MemoryRegion::k_pooled_bytes;
  const std::size_t pooled = MemoryRegion::pooled_blocks(k_len);
  const std::byte* storage = nullptr;
  {
    MemoryRegion mr(1, 2, k_len);
    storage = mr.data().data();
    fill_pattern(mr.data().mutable_view(), 5);
  }
  EXPECT_EQ(MemoryRegion::pooled_blocks(k_len), pooled + 1);
  MemoryRegion next(3, 4, k_len);
  EXPECT_EQ(next.data().data(), storage);
  EXPECT_EQ(next.length(), k_len);
  EXPECT_EQ(MemoryRegion::pooled_blocks(k_len), pooled);
}

TEST(MemoryRegion, StorageUnderOneMiBIsNotPooled) {
  constexpr std::size_t k_len = MemoryRegion::k_pooled_bytes - 1;
  { MemoryRegion mr(1, 2, k_len); }
  EXPECT_EQ(MemoryRegion::pooled_blocks(k_len), 0u);
}

TEST_F(RdmaFixture, PostRequiresConnectedQp) {
  auto qp = dev_a->create_qp(dev_a->create_cq(), dev_a->create_cq());
  auto mr = dev_a->reg_mr(128);
  SendWr wr;
  wr.local = {mr, 0, 128};
  EXPECT_EQ(qp->post_send(wr).code(), Errc::failed_precondition);
}

TEST_F(RdmaFixture, PostValidatesMrBounds) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto mr = dev_a->reg_mr(128);
  SendWr wr;
  wr.local = {mr, 64, 128};  // overruns
  EXPECT_EQ(qa->post_send(wr).code(), Errc::invalid_argument);
  RecvWr rwr;
  rwr.local = {mr, 100, 100};
  EXPECT_EQ(qa->post_recv(rwr).code(), Errc::invalid_argument);
}

TEST_F(RdmaFixture, SendRecvDeliversDataAndCompletions) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(64 * 1024);
  auto dst = dev_b->reg_mr(64 * 1024);
  fill_pattern(src->data().mutable_view(), 21);

  RecvWr rwr;
  rwr.wr_id = 7;
  rwr.local = {dst, 0, dst->length()};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());

  SendWr swr;
  swr.wr_id = 9;
  swr.opcode = Opcode::send;
  swr.local = {src, 0, src->length()};
  ASSERT_TRUE(qa->post_send(swr).is_ok());

  std::vector<WorkCompletion> send_wcs, recv_wcs;
  EXPECT_TRUE(run_until([&]() {
    drain(*qa->send_cq(), send_wcs);
    drain(*qb->recv_cq(), recv_wcs);
    return !send_wcs.empty() && !recv_wcs.empty();
  }));
  EXPECT_EQ(send_wcs[0].wr_id, 9u);
  EXPECT_EQ(send_wcs[0].status, WcStatus::success);
  EXPECT_EQ(recv_wcs[0].wr_id, 7u);
  EXPECT_EQ(recv_wcs[0].byte_len, 64u * 1024);
  EXPECT_TRUE(check_pattern(dst->data().view(), 21));
}

TEST_F(RdmaFixture, SendBeforeRecvWaitsRnr) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(4096);
  auto dst = dev_b->reg_mr(4096);
  fill_pattern(src->data().mutable_view(), 3);

  SendWr swr;
  swr.local = {src, 0, 4096};
  ASSERT_TRUE(qa->post_send(swr).is_ok());
  cluster.loop().run();  // chunk arrives, no recv posted yet

  std::vector<WorkCompletion> recv_wcs;
  drain(*qb->recv_cq(), recv_wcs);
  EXPECT_TRUE(recv_wcs.empty());

  RecvWr rwr;
  rwr.local = {dst, 0, 4096};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  EXPECT_TRUE(run_until([&]() { return drain(*qb->recv_cq(), recv_wcs) > 0; }));
  EXPECT_TRUE(check_pattern(dst->data().view(), 3));
}

TEST_F(RdmaFixture, RecvTooSmallYieldsLengthError) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(8192);
  auto dst = dev_b->reg_mr(1024);
  RecvWr rwr;
  rwr.local = {dst, 0, 1024};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  SendWr swr;
  swr.local = {src, 0, 8192};
  ASSERT_TRUE(qa->post_send(swr).is_ok());

  std::vector<WorkCompletion> recv_wcs, send_wcs;
  EXPECT_TRUE(run_until([&]() {
    drain(*qb->recv_cq(), recv_wcs);
    drain(*qa->send_cq(), send_wcs);
    return !recv_wcs.empty() && !send_wcs.empty();
  }));
  EXPECT_EQ(recv_wcs[0].status, WcStatus::local_length_error);
  EXPECT_EQ(send_wcs[0].status, WcStatus::local_length_error);  // NAKed back
}

TEST_F(RdmaFixture, WritePlacesDataRemotelyWithoutRecv) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(128 * 1024);
  auto dst = dev_b->reg_mr(256 * 1024);
  fill_pattern(src->data().mutable_view(), 33);

  SendWr wr;
  wr.wr_id = 1;
  wr.opcode = Opcode::write;
  wr.local = {src, 0, src->length()};
  wr.remote = {dst->rkey(), 4096};
  ASSERT_TRUE(qa->post_send(wr).is_ok());

  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
  EXPECT_EQ(wcs[0].status, WcStatus::success);
  EXPECT_TRUE(check_pattern(ByteSpan{dst->data().data() + 4096, 128 * 1024}, 33));
  // One-sided: no completion on the passive side.
  std::vector<WorkCompletion> passive;
  EXPECT_EQ(drain(*qb->recv_cq(), passive), 0u);
}

TEST_F(RdmaFixture, WriteBadRkeyFailsWithRemoteAccessError) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(4096);
  SendWr wr;
  wr.opcode = Opcode::write;
  wr.local = {src, 0, 4096};
  wr.remote = {0xBEEF, 0};
  ASSERT_TRUE(qa->post_send(wr).is_ok());
  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
  EXPECT_EQ(wcs[0].status, WcStatus::remote_access_error);
  EXPECT_EQ(qa->state(), QpState::error);
}

TEST_F(RdmaFixture, ReadFetchesRemoteData) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto local = dev_a->reg_mr(64 * 1024);
  auto remote = dev_b->reg_mr(64 * 1024);
  fill_pattern(remote->data().mutable_view(), 55);

  SendWr wr;
  wr.wr_id = 2;
  wr.opcode = Opcode::read;
  wr.local = {local, 0, local->length()};
  wr.remote = {remote->rkey(), 0};
  ASSERT_TRUE(qa->post_send(wr).is_ok());

  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
  EXPECT_EQ(wcs[0].opcode, Opcode::read);
  EXPECT_EQ(wcs[0].status, WcStatus::success);
  EXPECT_TRUE(check_pattern(local->data().view(), 55));
}

TEST_F(RdmaFixture, ReadDoesNotBurnRemoteHostCpu) {
  constexpr std::size_t k_len = 1 << 20;
  auto local = dev_a->reg_mr(k_len);
  auto remote = dev_b->reg_mr(k_len);
  struct Case {
    const char* name;
    Key rkey;
    std::size_t offset;
    std::size_t length;
    WcStatus status;
  };
  const Case cases[] = {
      {"whole MR", remote->rkey(), 0, k_len, WcStatus::success},
      {"zero length", remote->rkey(), 0, 0, WcStatus::success},
      {"unknown rkey", 0xBEEF, 0, 4096, WcStatus::remote_access_error},
      {"past the MR's end", remote->rkey(), k_len - 1024, 4096,
       WcStatus::remote_access_error},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto [qa, qb] = qp_pair(*dev_a, *dev_b);  // an error moves the QP to error
    const double remote_cpu_before = cluster.host(1).cpu().busy_ns_total();
    const double remote_nic_before = dev_b->nic_proc().busy_ns_total();

    SendWr wr;
    wr.opcode = Opcode::read;
    wr.local = {local, 0, c.length};
    wr.remote = {c.rkey, c.offset};
    ASSERT_TRUE(qa->post_send(wr).is_ok());
    std::vector<WorkCompletion> wcs;
    EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].status, c.status);
    if (c.status == WcStatus::success) {
      EXPECT_EQ(wcs[0].byte_len, c.length);
    }
    // The defining RDMA property: served or refused, the passive side's CPU
    // did nothing; its NIC processor did the work.
    EXPECT_DOUBLE_EQ(cluster.host(1).cpu().busy_ns_total(), remote_cpu_before);
    EXPECT_GT(dev_b->nic_proc().busy_ns_total(), remote_nic_before);
  }
}

TEST_F(RdmaFixture, DroppedMrIsFreedAndStopsResolving) {
  // The device holds MRs weakly: the app's last reference frees the MR, its
  // storage goes back to the pool, and remote access to its rkey fails.
  constexpr std::size_t k_len = MemoryRegion::k_pooled_bytes;
  auto local = dev_a->reg_mr(4096);
  auto remote = dev_b->reg_mr(k_len);
  const Key rkey = remote->rkey();
  const std::size_t pooled = MemoryRegion::pooled_blocks(k_len);
  remote.reset();
  EXPECT_EQ(MemoryRegion::pooled_blocks(k_len), pooled + 1);
  EXPECT_EQ(dev_b->mr_by_rkey(rkey), nullptr);

  for (const Opcode op : {Opcode::write, Opcode::read}) {
    auto [qa, qb] = qp_pair(*dev_a, *dev_b);
    SendWr wr;
    wr.opcode = op;
    wr.local = {local, 0, 4096};
    wr.remote = {rkey, 0};
    ASSERT_TRUE(qa->post_send(wr).is_ok());
    std::vector<WorkCompletion> wcs;
    EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].status, WcStatus::remote_access_error);
  }
}

TEST(MrTable, DeadEntriesAreSwept) {
  MrTable table;
  auto live = std::make_shared<MemoryRegion>(1, 1, 64);
  table.add(1, live);
  for (Key key = 2; key < 1000; ++key) {
    table.add(key, std::make_shared<MemoryRegion>(key, key, 64));
    EXPECT_LE(table.size(), 16u);
  }
  EXPECT_EQ(table.find(1), live);
  EXPECT_EQ(table.find(999), nullptr);
}

TEST_F(RdmaFixture, MessagesArriveInPostOrder) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(10 * 1024);
  auto dst = dev_b->reg_mr(10 * 1024);
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 10; ++i) {
    RecvWr rwr;
    rwr.wr_id = static_cast<std::uint64_t>(i);
    rwr.local = {dst, static_cast<std::size_t>(i) * 1024, 1024};
    ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  }
  for (int i = 0; i < 10; ++i) {
    SendWr swr;
    swr.wr_id = static_cast<std::uint64_t>(i);
    swr.local = {src, static_cast<std::size_t>(i) * 1024, 1024};
    ASSERT_TRUE(qa->post_send(swr).is_ok());
  }
  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() {
    drain(*qb->recv_cq(), wcs);
    return wcs.size() == 10;
  }));
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(wcs[i].wr_id, i);
}

TEST_F(RdmaFixture, SendQueueDepthEnforced) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(1024);
  SendWr wr;
  wr.local = {src, 0, 64};
  QpAttr attr;
  int accepted = 0;
  for (std::uint32_t i = 0; i < attr.max_send_wr + 50; ++i) {
    if (qa->post_send(wr).is_ok()) {
      ++accepted;
    } else {
      break;
    }
  }
  EXPECT_EQ(accepted, static_cast<int>(attr.max_send_wr));
}

TEST_F(RdmaFixture, ThroughputCappedAtLineRate) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  const std::size_t msg = 1 << 20;
  auto src = dev_a->reg_mr(msg);
  auto dst = dev_b->reg_mr(msg);

  std::uint64_t bytes_done = 0;
  const int total_msgs = 400;  // 400 MiB
  int inflight = 0, posted = 0;

  std::function<void()> pump = [&]() {
    while (inflight < 8 && posted < total_msgs) {
      SendWr wr;
      wr.opcode = Opcode::write;
      wr.local = {src, 0, msg};
      wr.remote = {dst->rkey(), 0};
      ASSERT_TRUE(qa->post_send(wr).is_ok());
      ++inflight;
      ++posted;
    }
  };
  qa->send_cq()->set_notify([&]() {
    WorkCompletion wc;
    while (qa->send_cq()->poll({&wc, 1}) == 1) {
      --inflight;
      bytes_done += msg;
    }
    pump();
  });
  const SimTime start = cluster.loop().now();
  pump();
  EXPECT_TRUE(run_until([&]() { return bytes_done == 400ull * msg; }, 600 * k_second));
  const double gbps = throughput_gbps(bytes_done, cluster.loop().now() - start);
  EXPECT_GT(gbps, 34.0);
  EXPECT_LE(gbps, 40.5);  // line rate is the binding constraint
}

TEST_F(RdmaFixture, IntraHostHairpinAlsoHitsLineRate) {
  // Two containers on ONE host, RDMA through the NIC (paper §2.3.1: RDMA
  // "only" improves intra-host throughput to 40 Gb/s).
  auto qa = dev_a->create_qp(dev_a->create_cq(), dev_a->create_cq());
  auto qb = dev_a->create_qp(dev_a->create_cq(), dev_a->create_cq());
  ASSERT_TRUE(connect_pair(*qa, *qb).is_ok());

  const std::size_t msg = 1 << 20;
  auto src = dev_a->reg_mr(msg);
  auto dst = dev_a->reg_mr(msg);
  std::uint64_t done = 0;
  int inflight = 0, posted = 0;
  const int total = 200;
  std::function<void()> pump = [&]() {
    while (inflight < 8 && posted < total) {
      SendWr wr;
      wr.opcode = Opcode::write;
      wr.local = {src, 0, msg};
      wr.remote = {dst->rkey(), 0};
      ASSERT_TRUE(qa->post_send(wr).is_ok());
      ++inflight;
      ++posted;
    }
  };
  qa->send_cq()->set_notify([&]() {
    WorkCompletion wc;
    while (qa->send_cq()->poll({&wc, 1}) == 1) {
      --inflight;
      done += msg;
    }
    pump();
  });
  const SimTime start = cluster.loop().now();
  pump();
  EXPECT_TRUE(run_until([&]() { return done == 200ull * msg; }, 600 * k_second));
  const double gbps = throughput_gbps(done, cluster.loop().now() - start);
  EXPECT_GT(gbps, 34.0);
  EXPECT_LE(gbps, 40.5);
}

TEST_F(RdmaFixture, CqOverflowLatches) {
  CompletionQueue cq(2);
  WorkCompletion wc;
  cq.push(wc);
  cq.push(wc);
  EXPECT_FALSE(cq.overflowed());
  cq.push(wc);  // over capacity
  EXPECT_TRUE(cq.overflowed());
  EXPECT_EQ(cq.depth(), 2u);  // the overflowing entry was dropped
}

TEST_F(RdmaFixture, CqNotifyFiresPerCompletion) {
  CompletionQueue cq(16);
  int notified = 0;
  cq.set_notify([&]() { ++notified; });
  WorkCompletion wc;
  cq.push(wc);
  cq.push(wc);
  EXPECT_EQ(notified, 2);
}

TEST_F(RdmaFixture, ZeroLengthSend) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(64);
  auto dst = dev_b->reg_mr(64);
  RecvWr rwr;
  rwr.local = {dst, 0, 64};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  SendWr swr;
  swr.local = {src, 0, 0};
  ASSERT_TRUE(qa->post_send(swr).is_ok());
  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() {
    WorkCompletion wc;
    while (qb->recv_cq()->poll({&wc, 1}) == 1) wcs.push_back(wc);
    return !wcs.empty();
  }));
  EXPECT_EQ(wcs[0].byte_len, 0u);
}

}  // namespace
}  // namespace freeflow::rdma
