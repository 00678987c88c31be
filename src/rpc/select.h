// SELECT: the selection layer of layered Sprite RPC (paper, Section 3.2).
//
// Maps Sprite commands (procedure ids) onto procedure addresses (server
// processes), and implements THE CACHING REQUIRED FOR GOOD RPC PERFORMANCE:
// Sprite has a fixed, predefined number of channels, so SELECT keeps a pool
// of pre-opened CHANNEL sessions per server host, picks a free one per call,
// and blocks the caller (on a semaphore) when all are busy.
//
// SELECT exists as a separate protocol -- rather than being folded into
// CHANNEL -- so that different addressing schemes can be substituted: see
// SelectFwdProtocol (forwarding) and RdpProtocol (reliable datagrams) for the
// alternatives the paper mentions.
//
// Header (paper appendix, SELECT_HDR): type(1) command(2) status(1) -- 4
// bytes, the cheapest layer (0.11 ms on a Sun 3/75, the per-layer floor).
//
// Sessions are slab-pooled and idle-tracked (session classes are defined
// before the protocol so its pools see complete types). A client session with
// calls outstanding -- including one queued on the channel semaphore or mid-
// forward -- refuses eviction. The pre-opened channels themselves are owned
// here, never evicted by CHANNEL (their extra reference vetoes it).

#ifndef XK_SRC_RPC_SELECT_H_
#define XK_SRC_RPC_SELECT_H_

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"
#include "src/sim/slab_pool.h"
#include "src/tools/semaphore.h"

namespace xk {

class SelectProtocol;

// Client-side session: one per (server, command).
class SelectSession : public Session {
 public:
  SelectSession(SelectProtocol& owner, Protocol* hlp, IpAddr server, uint16_t command);

  uint16_t command() const { return command_; }
  IpAddr server() const { return server_; }

  // The most recent request pushed through this session (kept so a
  // forwarding selector can re-issue the call toward a new host) and the
  // forward-hop budget of the current call.
  const Message& last_request() const { return last_request_; }
  int forward_hops() const { return forward_hops_; }
  void set_forward_hops(int n) { forward_hops_ = n; }

  // Completes a call: releases the channel and delivers `reply` (or an error)
  // to the high-level protocol.
  Status CompleteCall(Session* channel, uint8_t status, Message& reply);

  // Settles one outstanding call without a reply (selector-layer error
  // paths). Keeps the eviction pin (CanEvict) balanced with DoPush.
  void CallFinished();

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  bool CanEvict() const override { return outstanding_ == 0; }

 private:
  friend class SelectProtocol;  // eviction needs the demux key

  // Takes the oldest request queued by DoPush. Each DoPush queues one request
  // and then waits on the pool's FIFO semaphore with a continuation that takes
  // one, so continuations and requests pair up in order.
  Message TakeQueued();

  SelectProtocol& sel_;
  IpAddr server_;
  uint16_t command_;
  Message last_request_;
  int forward_hops_ = 0;
  int outstanding_ = 0;  // calls issued and not yet settled
  // Requests waiting for a channel, oldest at queued_head_. Kept here rather
  // than in the semaphore continuation so the continuation stays small enough
  // for std::function's inline storage.
  std::vector<Message> queued_;
  size_t queued_head_ = 0;
};

// Server-side session: wraps the channel a request arrived on; the server
// anchor pushes its reply into it.
class SelectServerSession : public Session {
 public:
  SelectServerSession(SelectProtocol& owner, Protocol* hlp, SessionRef channel);

  uint16_t last_command() const { return last_command_; }
  void set_last_command(uint16_t c) { last_command_ = c; }

 protected:
  Status DoPush(Message& msg) override;  // send the reply
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return channel_.get(); }

 private:
  friend class SelectProtocol;  // eviction needs the channel key

  SelectProtocol& sel_;
  SessionRef channel_;
  uint16_t last_command_ = 0;
};

class SelectProtocol : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 4;
  static constexpr uint16_t kAnyCommand = 0xFFFF;  // wildcard enable
  static constexpr int kNumChannels = 8;           // Sprite's fixed channel count

  // Wire types.
  static constexpr uint8_t kTypeCall = 1;
  static constexpr uint8_t kTypeReturn = 2;
  static constexpr uint8_t kTypeForward = 3;  // used by SELECT_FWD

  // Wire status codes.
  static constexpr uint8_t kStatusOk = 0;
  static constexpr uint8_t kStatusNoSuchCommand = 1;

  // `lower` is CHANNEL (or anything with its request/reply session
  // semantics). `rel_proto` is the protocol number this selector uses in the
  // CHANNEL header (SELECT_FWD uses a different one).
  SelectProtocol(Kernel& kernel, Protocol* lower, std::string name = "select",
                 RelProtoNum rel_proto = kRelProtoSelect);

  void SessionError(Session& lls, Status error, const Message* request) override;

  struct Stats {
    uint64_t calls = 0;
    uint64_t returns = 0;
    uint64_t served = 0;
    uint64_t no_such_command = 0;
    uint64_t blocked_on_channel = 0;  // calls that waited for a free channel
    uint64_t expired_in_queue = 0;    // shed while waiting for a free channel
  };
  const Stats& stats() const { return stats_; }

  // Live client + server SelectSessions (slab-pooled).
  size_t live_sessions() const { return client_pool_.live() + server_pool_.live(); }

  void ExportCounters(const CounterEmit& emit) const override {
    Protocol::ExportCounters(emit);
    emit("calls", stats_.calls);
    emit("returns", stats_.returns);
    emit("served", stats_.served);
    emit("no_such_command", stats_.no_such_command);
    emit("blocked_on_channel", stats_.blocked_on_channel);
    emit("expired_in_queue", stats_.expired_in_queue);
  }

  int free_channels(IpAddr server) const;

 protected:
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  bool EvictSession(Session& s) override;

  friend class SelectSession;
  friend class SelectServerSession;

  // The per-server-host pool of pre-opened channels.
  struct ChannelPool {
    std::vector<SessionRef> channels;       // CHANNEL sessions, index = channel id
    std::vector<bool> busy;                 // parallel to channels
    std::unique_ptr<XSemaphore> available;  // counts free channels
  };

  Result<ChannelPool*> PoolFor(IpAddr server);
  void ReleaseChannel(ChannelPool& pool, size_t index);
  Protocol* HlpForCommand(uint16_t command);

  using Key = std::tuple<IpAddr, uint16_t>;  // (server host, command)

  RelProtoNum rel_proto_;
  SlabPool<SelectSession> client_pool_;
  SlabPool<SelectServerSession> server_pool_;
  DemuxMap<Key> active_;                      // client sessions
  DemuxMap<uint16_t, Protocol*> passive_;     // command -> server hlp
  std::map<IpAddr, ChannelPool> pools_;
  // Which client session is using each busy channel session (for replies).
  DemuxMap<Session*, SessionRef> calls_;
  // Server-side sessions, one per delivering channel session.
  DemuxMap<Session*, SessionRef> server_sessions_;
  Stats stats_;
};

}  // namespace xk

#endif  // XK_SRC_RPC_SELECT_H_
