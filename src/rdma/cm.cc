#include "rdma/cm.h"

namespace freeflow::rdma {

Status connect_pair(QueuePair& a, QueuePair& b) {
  FF_RETURN_IF_ERROR(a.connect(b.device().host().id(), b.num()));
  FF_RETURN_IF_ERROR(b.connect(a.device().host().id(), a.num()));
  return ok_status();
}

}  // namespace freeflow::rdma
