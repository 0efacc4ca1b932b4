// E13 / §5 (Figs. 5-7): the verbs WRITE working flow. One RDMA WRITE of
// 1 MiB issued through FreeFlow's virtual NIC, on both placements, against
// the raw substrate — quantifying the vNIC+agent indirection overhead and
// demonstrating API equivalence (same SendWr on every path).
#include <algorithm>

#include "bench_common.h"

#include "core/vqp.h"
#include "rdma/cm.h"
#include "rdma/device.h"

using namespace freeflow;
using namespace freeflow::bench;
using namespace freeflow::workloads;

namespace {

bool spin(fabric::Cluster& cluster, const std::function<bool()>& pred,
          SimDuration budget) {
  const SimTime deadline = cluster.loop().now() + budget;
  for (;;) {
    if (pred()) return true;
    if (cluster.loop().now() >= deadline || !cluster.loop().step()) return false;
  }
}

/// One signaled 1 MiB WRITE through a FreeFlow vQP; returns completion time.
SimDuration freeflow_write_once(FreeFlowRig& rig) {
  auto& cluster = rig.env.cluster;
  core::VirtualQpPtr qa, qb;
  // The acceptor must hold its QP (app-owned), or inbound verbs are dropped.
  FF_CHECK(rig.net_b->listen_qp(18515, [&qb](core::VirtualQpPtr q) {
    qb = std::move(q);
  }).is_ok());
  rig.net_a->connect_qp(rig.b->ip(), 18515, rig.net_a->create_cq(),
                        rig.net_a->create_cq(), [&](Result<core::VirtualQpPtr> q) {
                          FF_CHECK(q.is_ok());
                          qa = *q;
                        });
  FF_CHECK(spin(cluster, [&]() { return qa != nullptr; }, 10 * k_second));

  auto src = rig.net_a->reg_mr(1 << 20);
  auto dst = rig.net_b->reg_mr(1 << 20);
  fill_pattern(src->data().mutable_view(), 7);
  // MR storage comes back from earlier MRs as it is: zero the destination so
  // only this WRITE can make the pattern land there.
  std::ranges::fill(dst->data().mutable_view(), std::byte{0});

  rdma::SendWr wr;
  wr.wr_id = 1;
  wr.opcode = rdma::Opcode::write;
  wr.local = {src, 0, src->length()};
  wr.remote = {dst->rkey(), 0};

  const SimTime t0 = cluster.loop().now();
  FF_CHECK(qa->post_send(wr).is_ok());
  // Completion is local (RC semantics); wait for the data to actually land.
  FF_CHECK(spin(cluster, [&]() { return check_pattern(dst->data().view(), 7); },
                30 * k_second));
  return cluster.loop().now() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  banner("vNIC indirection: RDMA WRITE 1 MiB, end-to-end placement time",
         "§5 working flows (Figs. 5/6/7): same verbs call, three data planes");

  JsonReport json(argc, argv, "vnic_overhead");

  std::printf("%-34s %14s\n", "path", "1MiB placement");

  {
    fabric::Cluster cluster;
    cluster.add_hosts(2);
    rdma::RdmaDevice a(cluster.host(0)), b(cluster.host(1));
    auto qa = a.create_qp(a.create_cq(), a.create_cq());
    auto qb = b.create_qp(b.create_cq(), b.create_cq());
    FF_CHECK(rdma::connect_pair(*qa, *qb).is_ok());
    auto src = a.reg_mr(1 << 20);
    auto dst = b.reg_mr(1 << 20);
    fill_pattern(src->data().mutable_view(), 3);
    std::ranges::fill(dst->data().mutable_view(), std::byte{0});
    rdma::SendWr wr;
    wr.opcode = rdma::Opcode::write;
    wr.local = {src, 0, src->length()};
    wr.remote = {dst->rkey(), 0};
    const SimTime t0 = cluster.loop().now();
    FF_CHECK(qa->post_send(wr).is_ok());
    FF_CHECK(spin(cluster, [&]() { return check_pattern(dst->data().view(), 3); },
                  30 * k_second));
    json.add("raw_verbs_1mib_ns", static_cast<double>(cluster.loop().now() - t0));
    std::printf("%-34s %14s\n", "raw verbs (hardware path, Fig.5)",
                format_ns(static_cast<double>(cluster.loop().now() - t0)).c_str());
  }
  {
    FreeFlowRig rig(/*inter_host=*/true);
    const SimDuration t = freeflow_write_once(rig);
    json.add("freeflow_inter_1mib_ns", static_cast<double>(t));
    std::printf("%-34s %14s\n", "FreeFlow inter-host (Fig.6 flow)",
                format_ns(static_cast<double>(t)).c_str());
  }
  {
    FreeFlowRig rig(/*inter_host=*/false);
    const SimDuration t = freeflow_write_once(rig);
    json.add("freeflow_intra_1mib_ns", static_cast<double>(t));
    std::printf("%-34s %14s\n", "FreeFlow intra-host (Fig.7, shm)",
                format_ns(static_cast<double>(t)).c_str());
  }

  footer();
  std::printf("the same SendWr drives all three rows; the vNIC hides whether a\n"
              "QP is backed by hardware verbs, an agent relay, or an shm lane.\n");
  return 0;
}
