// Psync over FRAGMENT: the reuse the paper designed FRAGMENT for.
//
// "When designing the FRAGMENT protocol ... we chose to make it unreliable --
// i.e., not send positive acknowledgements -- so that it could also be used
// by Psync." Here three hosts hold a conversation; one message is 16 KB and
// rides the same FRAGMENT protocol the RPC stack uses, while the context
// graph records what-followed-what.

#include <cstdio>
#include <string>

#include "src/app/stacks.h"
#include "src/proto/topology.h"
#include "src/psync/psync.h"

using namespace xk;

namespace {
constexpr const char* kNames[3] = {"alice", "bob", "carol"};

Message FromString(const std::string& s) {
  return Message::FromBytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
}
}  // namespace

int main() {
  auto net = std::make_unique<Internet>();
  const int seg = net->AddSegment();
  HostStack* hosts[3];
  for (int i = 0; i < 3; ++i) {
    hosts[i] = &net->AddHost(kNames[i], seg, IpAddr(10, 0, 1, static_cast<uint8_t>(i + 1)));
  }
  net->WarmArp();

  PsyncProtocol* psync[3];
  PsyncConversation* conv[3];
  FragmentProtocol* frag[3];
  for (int i = 0; i < 3; ++i) {
    HostStack* h = hosts[i];
    frag[i] = BuildStack(*h, "fragment/vip").Get<FragmentProtocol>();
    h->kernel->RunTask(0, [&, i] {
      psync[i] = &h->kernel->Emplace<PsyncProtocol>(*h->kernel, frag[i]);
      std::vector<IpAddr> others;
      for (int j = 0; j < 3; ++j) {
        if (j != i) {
          others.push_back(IpAddr(10, 0, 1, static_cast<uint8_t>(j + 1)));
        }
      }
      conv[i] = *psync[i]->Join(1, others);
      conv[i]->set_receive_handler([i](const PsyncDelivery& d) {
        std::printf("%-6s got msg %08x from %s (%zu bytes, follows %zu message(s))\n",
                    kNames[i], d.id, d.sender.ToString().c_str(), d.payload.length(),
                    d.context.size());
      });
    });
  }

  PsyncMsgId m1 = 0, m2 = 0, m3 = 0;
  hosts[0]->kernel->ScheduleTask(0, [&] {
    m1 = *conv[0]->Send(FromString("does anyone have the trace file?"));
  });
  net->RunAll();
  hosts[1]->kernel->ScheduleTask(0, [&] {
    m2 = *conv[1]->Send(Message(16000));  // bob ships 16 KB: 16 FRAGMENT packets
  });
  net->RunAll();
  hosts[2]->kernel->ScheduleTask(0, [&] {
    m3 = *conv[2]->Send(FromString("got it, thanks bob"));
  });
  net->RunAll();

  std::printf("\ncontext graph (carol's view): m1 -> m2: %s, m2 -> m3: %s, m3 -> m1: %s\n",
              conv[2]->Precedes(m1, m2) ? "yes" : "no",
              conv[2]->Precedes(m2, m3) ? "yes" : "no",
              conv[2]->Precedes(m3, m1) ? "yes" : "no");
  std::printf("bob's FRAGMENT layer sent %lu packets for the 16 KB message x 2 peers\n",
              static_cast<unsigned long>(frag[1]->stats().fragments_sent));
  return 0;
}
