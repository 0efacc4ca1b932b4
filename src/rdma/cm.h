// Minimal connection manager: the out-of-band QP-number exchange that
// rdma_cm (or a sockets side channel) performs in real deployments, done
// here synchronously with no control-plane latency.
#pragma once

#include "common/status.h"
#include "rdma/device.h"
#include "rdma/queue_pair.h"

namespace freeflow::rdma {

/// Wires `a` and `b` to each other (both move to ready). Test convenience.
Status connect_pair(QueuePair& a, QueuePair& b);

}  // namespace freeflow::rdma
