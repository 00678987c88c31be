// A Sprite-style remote file service over layered RPC -- the workload that
// motivated Sprite RPC's design (a network operating system whose file system
// lives behind RPC, with arguments and results up to 16 KB).
//
// The server keeps an in-memory file store and exports three procedures:
//   WRITE(name, offset, data)  -- bulk data rides FRAGMENT (16 fragments/16KB)
//   READ(name, offset, len)    -- bulk results fragment on the way back
//   STAT(name)                 -- a null-ish call dominated by latency
//
// Run it to see the asymmetry the paper's throughput tables measure: bulk
// writes move ~0.8 MB/s while stats cost ~2 ms each.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/app/anchor.h"
#include "src/app/stacks.h"
#include "src/core/wire.h"
#include "src/proto/topology.h"

using namespace xk;

namespace {

constexpr uint16_t kCmdWrite = 1;
constexpr uint16_t kCmdRead = 2;
constexpr uint16_t kCmdStat = 3;
constexpr size_t kNameLen = 16;  // fixed-size name field

// Request headers (classic fixed-layout RPC argument structs).
struct FileArgs {
  char name[kNameLen] = {};
  uint32_t offset = 0;
  uint32_t len = 0;
};

Message PackArgs(const std::string& name, uint32_t offset, uint32_t len,
                 const std::vector<uint8_t>& data = {}) {
  std::vector<uint8_t> buf(kNameLen + 8);
  std::memcpy(buf.data(), name.data(), std::min(name.size(), kNameLen - 1));
  WireWriter w(std::span<uint8_t>(buf.data() + kNameLen, 8));
  w.PutU32(offset);
  w.PutU32(len);
  Message m = Message::FromBytes(data);
  m.PushHeader(buf);
  return m;
}

bool UnpackArgs(Message& m, FileArgs* out) {
  std::vector<uint8_t> buf(kNameLen + 8);
  if (!m.PopHeader(buf)) {
    return false;
  }
  std::memcpy(out->name, buf.data(), kNameLen);
  out->name[kNameLen - 1] = 0;
  WireReader r(std::span<const uint8_t>(buf.data() + kNameLen, 8));
  out->offset = r.GetU32();
  out->len = r.GetU32();
  return true;
}

// The in-memory file store behind the server.
class FileStore {
 public:
  Message Handle(uint16_t command, Message& request) {
    FileArgs args;
    if (!UnpackArgs(request, &args)) {
      return Message();
    }
    std::vector<uint8_t>& file = files_[args.name];
    switch (command) {
      case kCmdWrite: {
        const std::vector<uint8_t> data = request.Flatten();
        if (file.size() < args.offset + data.size()) {
          file.resize(args.offset + data.size());
        }
        std::memcpy(file.data() + args.offset, data.data(), data.size());
        uint8_t ok[4] = {0, 0, 0, 1};
        return Message::FromBytes(ok);
      }
      case kCmdRead: {
        const size_t end = std::min<size_t>(file.size(), args.offset + args.len);
        if (args.offset >= end) {
          return Message();
        }
        return Message::FromBytes(
            {file.data() + args.offset, end - args.offset});
      }
      case kCmdStat: {
        uint8_t size_buf[4];
        WireWriter w(size_buf);
        w.PutU32(static_cast<uint32_t>(file.size()));
        return Message::FromBytes(size_buf);
      }
      default:
        return Message();
    }
  }

 private:
  std::map<std::string, std::vector<uint8_t>> files_;
};

}  // namespace

int main() {
  auto net = Internet::TwoHosts();
  HostStack& ch = net->host("client");
  HostStack& sh = net->host("server");
  RpcStack cstack = BuildStack(ch, kLRpcVip);
  RpcStack sstack = BuildStack(sh, kLRpcVip);

  FileStore store;
  sh.kernel->RunTask(0, [&] {
    auto& server = sh.kernel->Emplace<RpcServer>(*sh.kernel, sstack.top);
    (void)server.Export(RpcServer::kAny, [&store](uint16_t command, Message& request) {
      return store.Handle(command, request);
    });
  });
  RpcClient* client = nullptr;
  ch.kernel->RunTask(0, [&] { client = &ch.kernel->Emplace<RpcClient>(*ch.kernel, cstack.top); });
  const IpAddr server_addr = sh.kernel->ip_addr();

  // Write a 64 KB file in 16 KB chunks, stat it, read a block back, verify.
  std::vector<uint8_t> content(64 * 1024);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i * 131 + 7);
  }

  SimTime write_start = 0;
  SimTime write_end = 0;
  int failures = 0;
  // Declared at main() scope: the completion callbacks that re-invoke it run
  // long after the task that started the pipeline has returned.
  std::function<void(size_t)> write_chunk;
  ch.kernel->ScheduleTask(0, [&] {
    write_start = ch.kernel->now();
    write_chunk = [&, server_addr](size_t offset) {
      if (offset >= content.size()) {
        write_end = ch.kernel->now();
        // stat
        client->Call(server_addr, kCmdStat, PackArgs("data.bin", 0, 0),
                     [&](Result<Message> r) {
                       uint8_t size_buf[4] = {};
                       if (!r.ok() || !(*r).PopHeader(size_buf)) {
                         ++failures;
                         return;
                       }
                       WireReader rd(size_buf);
                       std::printf("STAT data.bin -> %u bytes\n", rd.GetU32());
                       // read back a block spanning a chunk boundary
                       client->Call(server_addr, kCmdRead, PackArgs("data.bin", 15000, 4000),
                                    [&](Result<Message> rr) {
                                      if (!rr.ok()) {
                                        ++failures;
                                        return;
                                      }
                                      auto got = (*rr).Flatten();
                                      const bool match =
                                          got.size() == 4000 &&
                                          std::equal(got.begin(), got.end(),
                                                     content.begin() + 15000);
                                      std::printf("READ 4000@15000 -> %zu bytes, %s\n",
                                                  got.size(),
                                                  match ? "verified" : "MISMATCH");
                                    });
                     });
        return;
      }
      const size_t n = std::min<size_t>(16 * 1024, content.size() - offset);
      client->Call(server_addr, kCmdWrite,
                   PackArgs("data.bin", static_cast<uint32_t>(offset), 0,
                            {content.begin() + offset, content.begin() + offset + n}),
                   [&, offset, n](Result<Message> r) {
                     if (!r.ok()) {
                       ++failures;
                       return;
                     }
                     write_chunk(offset + n);
                   });
    };
    write_chunk(0);
  });
  net->RunAll();

  if (write_end > write_start) {
    const double secs = ToMsec(write_end - write_start) / 1000.0;
    std::printf("WRITE 64 KB in %.1f ms (%.0f kbytes/sec)\n", ToMsec(write_end - write_start),
                64.0 / secs);
  }
  std::printf("fragments sent by client FRAGMENT layer: %lu\n",
              static_cast<unsigned long>(cstack.Get<FragmentProtocol>()->stats().fragments_sent));
  return failures == 0 ? 0 : 1;
}
