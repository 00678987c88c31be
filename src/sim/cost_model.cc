#include "src/sim/cost_model.h"

namespace xk {

CostModel CostModel::For(HostEnv env) {
  CostModel m;  // kXKernel: the defaults
  switch (env) {
    case HostEnv::kXKernel:
      break;
    case HostEnv::kXKernelAllocPerHeader:
      // The x-kernel's original message tool (paper, Section 5): a fresh
      // buffer per header instead of a pointer adjustment into one
      // pre-allocated stack. Calibrated against 0.50 ms/layer.
      m.hdr_alloc_extra = Usec(130);
      m.hdr_free_extra = Usec(65);
      break;
    case HostEnv::kNativeSprite:
      // The Sprite kernel implements the same RPC algorithm, but in a "less
      // structured environment" (paper, Section 4.1): buffer handling
      // allocates per layer, process switches are heavier, and each layer
      // crossing pays extra bookkeeping. Calibrated against N_RPC = 2.6 ms /
      // ~700 KB/s.
      m.layer_cross_extra = Usec(22);
      m.buffer_alloc = Usec(46);
      m.process_switch = Usec(235);
      m.hdr_store_per_byte = UsecF(0.5);
      m.hdr_load_per_byte = UsecF(0.45);
      m.dev_copy_per_byte = UsecF(0.75);
      m.map_resolve = Usec(18);
      m.map_bind = Usec(24);
      break;
    case HostEnv::kSunOs:
      // SunOS 4.0 sockets (4.3BSD): mbuf allocation on every layer, softnet
      // queueing with extra process switches, and expensive user/kernel
      // crossings. Calibrated against the 5.36 ms user-to-user UDP round trip.
      m.layer_cross_extra = Usec(70);
      m.buffer_alloc = Usec(108);
      m.process_switch = Usec(370);
      m.user_kernel_cross = Usec(330);
      m.dev_copy_per_byte = UsecF(0.9);
      m.map_resolve = Usec(30);
      m.map_bind = Usec(40);
      m.hdr_store_fixed = Usec(16);
      m.hdr_load_fixed = Usec(14);
      break;
  }
  return m;
}

}  // namespace xk
