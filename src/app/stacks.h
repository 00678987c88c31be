// Stack compositions as data. A spec names a stack's layers top first,
// separated by '/', each by its protocol's default name(). A layer may sit
// only on the layers its row in stacks.cc's table lists; the bottom layer
// binds the host's ETH/IP/ARP substrate (`ip` is the host's IP itself).
// BuildStack instantiates a spec on one host inside a configuration task;
// build the same spec on both hosts of a topology, then attach anchors.
//
// The paper's configurations are the kMRpc*/kLRpc* specs below. Others:
//   Table III partial stacks   vip, fragment/vip, channel/fragment/vip
//   forwarding selector        selectfwd/channel/fragment/vip
//   Sun RPC mix-and-match      sunselect[/authnone|/authcred]/reqrep/fragment/vip,
//                              or .../channel/fragment/vip for at-most-once
//   reliable datagrams         rdp/channel/fragment/vip
//   UDP/IP (Section 1)         udp/ip

#ifndef XK_SRC_APP_STACKS_H_
#define XK_SRC_APP_STACKS_H_

#include <array>
#include <string>
#include <string_view>

#include "src/app/anchor.h"
#include "src/proto/topology.h"
#include "src/proto/udp.h"
#include "src/proto/vip.h"
#include "src/proto/vip_size.h"
#include "src/rpc/channel.h"
#include "src/rpc/fragment.h"
#include "src/rpc/rdp.h"
#include "src/rpc/select.h"
#include "src/rpc/select_fwd.h"
#include "src/rpc/sprite_rpc.h"
#include "src/rpc/sun/auth.h"
#include "src/rpc/sun/request_reply.h"
#include "src/rpc/sun/sun_select.h"

namespace xk {

// The paper's configurations (Tables I and II, Section 4.3), by its names.
constexpr std::string_view kMRpcEth = "sprite/ethmap";  // M_RPC-ETH
constexpr std::string_view kMRpcIp = "sprite/ip";       // M_RPC-IP
constexpr std::string_view kMRpcVip = "sprite/vip";     // M_RPC-VIP
constexpr std::string_view kLRpcVip = "select/channel/fragment/vip";  // L_RPC-VIP
// L_RPC-VIPsize, Figure 3(b): SELECT-CHANNEL-VIPsize.
constexpr std::string_view kLRpcVipSize = "select/channel/vipsize/fragment/vipaddr";

struct RpcStack {
  static constexpr size_t kMaxDepth = 8;

  Protocol* top = nullptr;                    // what anchors open against
  std::array<Protocol*, kMaxDepth> layers{};  // top first; null past the bottom

  // The topmost layer that is a T (SELECTFWD is a SELECT).
  template <class T>
  T* Get() const {
    for (Protocol* p : layers) {
      if (T* t = dynamic_cast<T*>(p)) {
        return t;
      }
    }
    return nullptr;
  }
};

// Returns true if `spec` names a legal stack, or false with the bad token or
// edge in `error` (e.g. "channel cannot sit on ethmap").
bool CheckStackSpec(std::string_view spec, std::string* error);

// Builds `spec` on `h`. Specs are literals in code, so an illegal one aborts
// with CheckStackSpec's message.
RpcStack BuildStack(HostStack& h, std::string_view spec);

// Shorthands the host-speed benchmark (hostbench/) builds with: L_RPC-VIP, and
// Table III's partial stacks (`layers` 0..3 = vip .. select/channel/fragment/vip).
RpcStack BuildLRpc(HostStack& h);
RpcStack BuildPartial(HostStack& h, int layers);

// UDP over the host's IP, as `udp/ip` builds it.
UdpProtocol* BuildUdp(HostStack& h);

// Raw-test sessions against `stack.top`, for an EchoAnchor or any test anchor.
// One participant set carries every raw-test key (ip_proto, rel_proto, port 7,
// channel 0, command 1) and each layer reads its own, so any top works.
Result<SessionRef> OpenEchoSession(const RpcStack& stack, Protocol& anchor, IpAddr peer);
Status EnableEcho(const RpcStack& stack, Protocol& anchor);

}  // namespace xk

#endif  // XK_SRC_APP_STACKS_H_
