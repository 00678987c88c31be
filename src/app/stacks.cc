#include "src/app/stacks.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace xk {

namespace {

template <class P>
Protocol* Make(HostStack& h, Protocol* lower) {
  return &h.kernel->Emplace<P>(*h.kernel, lower);
}

Protocol* MakeVip(HostStack& h, Protocol*) {
  return &h.kernel->Emplace<VipProtocol>(*h.kernel, h.eth, h.ip, h.arp);
}

Protocol* MakeVipAddr(HostStack& h, Protocol*) {
  return &h.kernel->Emplace<VipAddrProtocol>(*h.kernel, h.eth, h.ip, h.arp);
}

// Open-time shim: host-addressed opens, raw Ethernet sessions, zero
// per-message cost (how Sprite RPC sat "directly on the ethernet").
Protocol* MakeEthMap(HostStack& h, Protocol*) {
  return &h.kernel->Emplace<VipAddrProtocol>(*h.kernel, h.eth, nullptr, h.arp, "ethmap");
}

Protocol* MakeIp(HostStack& h, Protocol*) { return h.ip; }

// Figure 3(b): large messages take `big` (FRAGMENT); single-packet ones
// bypass it to the layer below it.
Protocol* MakeVipSize(HostStack& h, Protocol* big) {
  return &h.kernel->Emplace<VipSizeProtocol>(*h.kernel, big->lower(0), big, h.arp);
}

struct Layer {
  std::string_view token;
  Protocol* (*make)(HostStack& h, Protocol* lower);
  std::array<std::string_view, 4> sits_on;  // empty for the bottom layers
};

// CHANNEL and REQUEST_REPLY ask the session below for the peer's host
// (kGetPeerHost), which raw Ethernet sessions (ethmap, vipaddr) cannot
// answer, so neither sits on those directly.
constexpr Layer kLayers[] = {
    {"vip", MakeVip, {}},
    {"vipaddr", MakeVipAddr, {}},
    {"ethmap", MakeEthMap, {}},
    {"ip", MakeIp, {}},
    {"udp", Make<UdpProtocol>, {"ip"}},
    {"fragment", Make<FragmentProtocol>, {"vip", "vipaddr", "ethmap", "ip"}},
    {"vipsize", MakeVipSize, {"fragment"}},
    {"channel", Make<ChannelProtocol>, {"fragment", "vipsize", "vip", "ip"}},
    {"select", Make<SelectProtocol>, {"channel"}},
    {"selectfwd", Make<SelectFwdProtocol>, {"channel"}},
    {"rdp", Make<RdpProtocol>, {"channel"}},
    {"sprite", Make<SpriteRpcProtocol>, {"vip", "vipaddr", "ethmap", "ip"}},
    {"reqrep", Make<RequestReplyProtocol>, {"fragment", "vipsize", "vip", "ip"}},
    {"authnone", Make<AuthNoneProtocol>, {"reqrep", "channel"}},
    {"authcred", Make<AuthCredProtocol>, {"reqrep", "channel"}},
    {"sunselect", Make<SunSelectProtocol>, {"authnone", "authcred", "reqrep", "channel"}},
};

using Rows = std::array<const Layer*, RpcStack::kMaxDepth>;

// Resolves `spec` into table rows, top first; returns the depth, or 0 with
// the bad token or edge in `error`.
size_t Resolve(std::string_view spec, Rows& rows, std::string* error) {
  size_t n = 0;
  for (size_t pos = 0; !spec.empty();) {
    const size_t slash = spec.find('/', pos);
    const std::string_view token = spec.substr(pos, slash - pos);
    const Layer* row = std::find_if(std::begin(kLayers), std::end(kLayers),
                                    [token](const Layer& l) { return l.token == token; });
    if (row == std::end(kLayers)) {
      *error = "unknown layer '" + std::string(token) + "'";
      return 0;
    }
    if (n > 0 && std::ranges::find(rows[n - 1]->sits_on, token) == rows[n - 1]->sits_on.end()) {
      *error = std::string(rows[n - 1]->token) + " cannot sit on " + std::string(token);
      return 0;
    }
    if (n == rows.size()) {
      *error = "more than " + std::to_string(rows.size()) + " layers";
      return 0;
    }
    rows[n++] = row;
    if (slash == std::string_view::npos) {
      if (!row->sits_on[0].empty()) {
        *error = std::string(token) + " needs a layer below it";
        return 0;
      }
      return n;
    }
    pos = slash + 1;
  }
  *error = "empty stack spec";
  return 0;
}

// Every raw-test key at once, local and peer alike; each layer reads only its
// own (SUN_SELECT reads the peer's as program, version and procedure).
ParticipantSet RawTestParts() {
  Participant raw;
  raw.ip_proto = kIpProtoRawTest;
  raw.rel_proto = kRelProtoRawTest;
  raw.port = 7;
  raw.channel = 0;
  raw.command = 1;
  return ParticipantSet{raw, raw};
}

}  // namespace

bool CheckStackSpec(std::string_view spec, std::string* error) {
  Rows rows;
  return Resolve(spec, rows, error) > 0;
}

RpcStack BuildStack(HostStack& h, std::string_view spec) {
  Rows rows;
  std::string error;
  const size_t depth = Resolve(spec, rows, &error);
  if (depth == 0) {
    std::fprintf(stderr, "BuildStack(\"%.*s\"): %s\n", static_cast<int>(spec.size()),
                 spec.data(), error.c_str());
    std::abort();
  }
  RpcStack stack;
  h.kernel->RunTask(h.kernel->events().now(), [&] {
    Protocol* lower = nullptr;
    for (size_t i = depth; i-- > 0;) {  // bottom up
      lower = stack.layers[i] = rows[i]->make(h, lower);
    }
  });
  stack.top = stack.layers[0];
  return stack;
}

RpcStack BuildLRpc(HostStack& h) { return BuildStack(h, kLRpcVip); }

RpcStack BuildPartial(HostStack& h, int layers) {
  static constexpr std::string_view kSpecs[] = {"vip", "fragment/vip", "channel/fragment/vip",
                                                kLRpcVip};
  return BuildStack(h, kSpecs[layers]);
}

UdpProtocol* BuildUdp(HostStack& h) { return BuildStack(h, "udp/ip").Get<UdpProtocol>(); }

Result<SessionRef> OpenEchoSession(const RpcStack& stack, Protocol& anchor, IpAddr peer) {
  ParticipantSet parts = RawTestParts();
  parts.peer.host = peer;
  return stack.top->Open(anchor, parts);
}

Status EnableEcho(const RpcStack& stack, Protocol& anchor) {
  return stack.top->OpenEnable(anchor, RawTestParts());
}

}  // namespace xk
