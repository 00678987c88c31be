// Stack compositions as data: every spec the layer table allows builds on the
// paper's testbed and carries an echo call, and an illegal spec is rejected
// naming the bad token or edge.

#include "src/app/stacks.h"

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "tests/test_util.h"

namespace xk {
namespace {

// Every token of the layer table: each protocol's default name().
constexpr std::string_view kTokens[] = {
    "vip",    "vipaddr",  "ethmap", "ip",     "udp",      "fragment", "vipsize",  "channel",
    "select", "selectfwd", "rdp",   "sprite", "reqrep", "authnone", "authcred", "sunselect"};

// Walks the table's "may sit on" edges bottom up: every legal spec is a token
// on a legal spec one layer shorter, and CheckStackSpec says which tokens fit.
void AddLegalSpecs(const std::string& below, size_t layers_left, std::vector<std::string>& out) {
  std::string error;
  for (std::string_view token : kTokens) {
    std::string spec = std::string(token) + (below.empty() ? "" : "/") + below;
    if (layers_left > 0 && CheckStackSpec(spec, &error)) {
      out.push_back(spec);
      AddLegalSpecs(spec, layers_left - 1, out);
    }
  }
}

// One echo call over `spec` on both hosts of the testbed. AUTH_CRED admits
// only the uids it is told to.
Result<Message> EchoOnce(std::string_view spec, const std::vector<uint8_t>& payload) {
  auto net = Internet::TwoHosts();
  HostStack& ch = net->host("client");
  HostStack& sh = net->host("server");
  const RpcStack cstack = BuildStack(ch, spec);
  const RpcStack sstack = BuildStack(sh, spec);
  Status enabled;
  RunIn(*sh.kernel, [&] {
    auto& server = sh.kernel->Emplace<EchoAnchor>(*sh.kernel, /*server_role=*/true);
    if (auto* auth = sstack.Get<AuthCredProtocol>()) {
      auth->AllowUid(1001);
    }
    enabled = EnableEcho(sstack, server);
  });
  Result<SessionRef> sess = ErrStatus(StatusCode::kError);
  Result<Message> reply = ErrStatus(StatusCode::kError);  // stays if it never completes
  RunIn(*ch.kernel, [&] {
    auto& client = ch.kernel->Emplace<EchoAnchor>(*ch.kernel, /*server_role=*/false);
    if (auto* auth = cstack.Get<AuthCredProtocol>()) {
      auth->SetCredentials(1001, 100);
    }
    sess = OpenEchoSession(cstack, client, sh.kernel->ip_addr());
    if (enabled.ok() && sess.ok()) {
      client.Send(*sess, Message::FromBytes(payload), [&](Result<Message> r) { reply = r; });
    }
  });
  net->RunAll();
  return !enabled.ok() ? enabled : !sess.ok() ? sess.status() : reply;
}

TEST(StackSpecTest, EveryLegalSpecCarriesAnEchoCall) {
  std::vector<std::string> specs;
  AddLegalSpecs("", 5, specs);
  for (std::string_view token : kTokens) {  // each tops some legal spec
    auto tops = [token](std::string_view s) { return s.substr(0, s.find('/')) == token; };
    EXPECT_TRUE(std::ranges::any_of(specs, tops)) << token;
  }
  const std::vector<uint8_t> payload = PatternBytes(100, 7);
  for (const std::string& spec : specs) {
    const Result<Message> r = EchoOnce(spec, payload);
    ASSERT_TRUE(r.ok()) << spec << ": " << StatusCodeName(r.status().code());
    EXPECT_EQ(r->Flatten(), payload) << spec;
  }
}

TEST(StackSpecTest, IllegalSpecsNameTheBadTokenOrEdge) {
  const std::pair<std::string_view, std::string_view> cases[] = {
      {"", "empty stack spec"},
      {"select/channel/fragment/bogus", "unknown layer 'bogus'"},
      {"select//vip", "unknown layer ''"},
      {"select/channel/fragment", "fragment needs a layer below it"},
      {"channel/ethmap", "channel cannot sit on ethmap"},
      {"select/fragment/vip", "select cannot sit on fragment"},
      {"vip/fragment/vip", "vip cannot sit on fragment"},
  };
  for (const auto& [spec, want] : cases) {
    std::string error;
    EXPECT_FALSE(CheckStackSpec(spec, &error)) << spec;
    EXPECT_EQ(error, want) << spec;
  }
}

TEST(StackSpecDeathTest, BuildStackAbortsNamingTheBadEdge) {
  auto net = Internet::TwoHosts();
  EXPECT_DEATH(BuildStack(net->host("client"), "channel/ethmap"),
               "BuildStack\\(\"channel/ethmap\"\\): channel cannot sit on ethmap");
}

TEST(StackSpecTest, GetFindsLayersBySubclass) {
  auto net = Internet::TwoHosts();
  const RpcStack s = BuildStack(net->host("client"), "selectfwd/channel/fragment/ip");
  EXPECT_EQ(s.top, s.layers[0]);
  EXPECT_EQ(s.Get<SelectProtocol>(), s.top);               // SELECTFWD is a SELECT
  EXPECT_EQ(s.Get<IpProtocol>(), net->host("client").ip);  // the host's own IP
  EXPECT_EQ(s.Get<VipProtocol>(), nullptr);
  EXPECT_EQ(s.layers[4], nullptr);
}

TEST(StackSpecTest, SelectTopCompletesPartialLatency) {
  // The echo helpers once knew only VIP, FRAGMENT and CHANNEL tops, so this
  // opened a null session and crashed on the first call.
  const PartialLatency select = MeasurePartialLatency(kLRpcVip);
  EXPECT_EQ(select.rtt.count(), 64u);
  EXPECT_GT(select.ms, MeasurePartialLatency("channel/fragment/vip").ms);
}

}  // namespace
}  // namespace xk
