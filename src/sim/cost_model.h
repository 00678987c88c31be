// Calibrated cost model for a Sun 3/75 running protocols in three
// environments.
//
// Every protocol in this repository is functionally real (it builds real
// headers and runs its real algorithm over the simulated wire); what the
// simulator prices is the CPU cost of each primitive operation. The values
// below are calibrated so that the paper's headline numbers emerge from the
// *composition* of primitives -- e.g., Table III's 0.11 ms/layer floor is not
// a constant anywhere; it is what SELECT's four layer traversals of header
// stores/loads and map lookups add up to.
//
// Three environments reproduce the paper's cross-system comparisons:
//  - kXKernel:      the x-kernel on SunOS 4.0 cc (all Section 4 numbers).
//  - kNativeSprite: the Sprite kernel's native RPC (Table I, N_RPC row) --
//                   same protocol, heavier per-layer costs (buffer_alloc and
//                   layer_cross_extra per crossing, heavier process switches,
//                   map and device-copy costs).
//  - kSunOs:        SunOS 4.0 sockets (the 5.36 ms UDP number in Section 1) --
//                   mbuf-style buffer_alloc and layer_cross_extra per
//                   crossing, heavier process switches, header, map and
//                   device-copy costs; the bench charges user_kernel_cross as
//                   the app cost.

#ifndef XK_SRC_SIM_COST_MODEL_H_
#define XK_SRC_SIM_COST_MODEL_H_

#include "src/core/types.h"

namespace xk {

// Which machine/OS environment a kernel instance models.
enum class HostEnv : uint8_t {
  kXKernel,
  kNativeSprite,
  kSunOs,
};

// Primitive operation costs, in simulated time. See file comment.
struct CostModel {
  // --- layer crossing -------------------------------------------------------
  SimTime proc_call = Usec(3);          // one procedure call between layers
  SimTime layer_cross_extra = Usec(0);  // extra per crossing (non-x-kernel envs)

  // --- header manipulation --------------------------------------------------
  SimTime hdr_store_fixed = Usec(7);
  SimTime hdr_store_per_byte = UsecF(0.35);
  SimTime hdr_load_fixed = Usec(6);
  SimTime hdr_load_per_byte = UsecF(0.30);
  // Additional cost when HeaderAllocPolicy::kPerLayerAlloc is in force
  // (allocate a buffer per header / free it per pop).
  SimTime hdr_alloc_extra = Usec(130);
  SimTime hdr_free_extra = Usec(65);
  // mbuf-style buffer allocation charged per layer in non-x-kernel envs.
  SimTime buffer_alloc = Usec(0);

  // --- demultiplexing maps ---------------------------------------------------
  SimTime map_resolve = Usec(10);
  SimTime map_bind = Usec(14);

  // --- processes and synchronization ----------------------------------------
  SimTime sem_op = Usec(8);
  SimTime process_switch = Usec(165);
  SimTime user_kernel_cross = Usec(120);  // one boundary crossing (user tests)

  // --- timers ----------------------------------------------------------------
  SimTime timer_set = Usec(12);
  SimTime timer_cancel = Usec(8);

  // --- message tool ----------------------------------------------------------
  SimTime msg_slice = Usec(14);       // create a fragment view
  SimTime msg_join = Usec(12);        // append during reassembly

  // --- device / interrupt ----------------------------------------------------
  SimTime dev_start = Usec(153);          // program the LANCE, start DMA
  SimTime intr_overhead = Usec(178);      // take interrupt, dispatch shepherd
  SimTime dev_copy_per_byte = UsecF(0.66);  // frame bytes to/from board memory

  // --- checksums -------------------------------------------------------------
  SimTime checksum_fixed = Usec(30);
  SimTime checksum_per_byte = UsecF(0.70);

  // --- session management ----------------------------------------------------
  SimTime session_create = Usec(150);
  SimTime session_destroy = Usec(80);

  // Preset for each environment.
  static CostModel For(HostEnv env);
};

// Shared-bus Ethernet parameters (isolated 10 Mbps segment, as in Section 4).
struct WireModel {
  double bits_per_usec = 10.0;          // 10 Mbps
  SimTime per_frame_overhead = Usec(16);  // preamble + interframe gap
  SimTime propagation = Usec(3);
  size_t min_frame_bytes = 64;
  size_t max_frame_bytes = 1514;  // 1500-byte MTU + 14-byte header

  SimTime TransmitTime(size_t bytes) const {
    if (bytes < min_frame_bytes) {
      bytes = min_frame_bytes;
    }
    return per_frame_overhead +
           static_cast<SimTime>(static_cast<double>(bytes) * 8.0 / bits_per_usec * 1000.0);
  }
};

}  // namespace xk

#endif  // XK_SRC_SIM_COST_MODEL_H_
