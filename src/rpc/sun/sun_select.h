// SUN_SELECT: the selection layer of decomposed Sun RPC (paper, Section 5).
//
// Maps (program, version, procedure) triples onto server procedures, the way
// Sun RPC addresses services. Composes with REQUEST_REPLY (zero-or-more,
// faithful Sun semantics) or with CHANNEL (upgrading Sun RPC to at-most-once)
// and with any stack of optional authentication layers in between -- the
// "mix and match" the paper demonstrates.
//
// Header: prog(4) vers(2) proc(2) status(1) -- 9 bytes, echoed in replies so
// concurrent calls to different procedures pair correctly.

#ifndef XK_SRC_RPC_SUN_SUN_SELECT_H_
#define XK_SRC_RPC_SUN_SUN_SELECT_H_

#include <deque>
#include <map>
#include <tuple>

#include "src/core/kernel.h"
#include "src/core/map.h"
#include "src/core/protocol.h"

namespace xk {

class SunSelectProtocol : public Protocol {
 public:
  static constexpr size_t kHeaderSize = 9;

  static constexpr uint8_t kStatusOk = 0;
  static constexpr uint8_t kStatusProgUnavail = 1;
  static constexpr uint8_t kStatusProcUnavail = 2;

  // `lower` is REQUEST_REPLY, CHANNEL-with-pool semantics is not required --
  // any request/reply session works. Optional auth layers go in between.
  SunSelectProtocol(Kernel& kernel, Protocol* lower, std::string name = "sunselect");

  void SessionError(Session& lls, Status error, const Message* request) override;

  struct Stats {
    uint64_t calls = 0;
    uint64_t returns = 0;
    uint64_t served = 0;
    uint64_t prog_unavail = 0;
  };
  const Stats& stats() const { return stats_; }

  void ExportCounters(const CounterEmit& emit) const override {
    Protocol::ExportCounters(emit);
    emit("calls", stats_.calls);
    emit("returns", stats_.returns);
    emit("served", stats_.served);
    emit("prog_unavail", stats_.prog_unavail);
  }

 protected:
  // Open: peer.host + prog/vers/proc packed into peer.command (proc) and
  // peer.rel_proto (prog<<16|vers) -- see SunProcAddress below for the
  // ergonomic wrapper.
  Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts) override;
  Status DoDemux(Session* lls, Message& msg) override;

 private:
  friend class SunSelectSession;
  friend class SunSelectServerSession;
  using ProcKey = std::tuple<uint32_t, uint16_t, uint16_t>;  // (prog, vers, proc)
  using Key = std::tuple<IpAddr, uint32_t, uint16_t, uint16_t>;
  using ProgKey = std::tuple<uint32_t, uint16_t>;  // (prog, vers)

  Result<SessionRef> LowerFor(IpAddr server);

  DemuxMap<Key> active_;
  DemuxMap<ProgKey, Protocol*> passive_;
  // Calls awaiting replies, FIFO per (server, prog, vers, proc).
  std::map<Key, std::deque<SessionRef>> waiting_;
  DemuxMap<Session*, SessionRef> server_sessions_;
  Stats stats_;
};

// Helper for building participant sets addressing a Sun procedure.
ParticipantSet SunProcAddress(IpAddr server, uint32_t prog, uint16_t vers, uint16_t proc);
ParticipantSet SunProgService(uint32_t prog, uint16_t vers);

class SunSelectSession : public Session {
 public:
  SunSelectSession(SunSelectProtocol& owner, Protocol* hlp, IpAddr server, uint32_t prog,
                   uint16_t vers, uint16_t proc);

  IpAddr server() const { return server_; }

 protected:
  Status DoPush(Message& msg) override;
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;

 private:
  friend class SunSelectProtocol;
  SunSelectProtocol& sel_;
  IpAddr server_;
  uint32_t prog_;
  uint16_t vers_;
  uint16_t proc_;
};

class SunSelectServerSession : public Session {
 public:
  SunSelectServerSession(SunSelectProtocol& owner, Protocol* hlp, SessionRef lower);

  void SetCurrent(uint32_t prog, uint16_t vers, uint16_t proc);

 protected:
  Status DoPush(Message& msg) override;  // reply
  Status DoPop(Message& msg, Session* lls) override;
  Status DoControl(ControlOp op, ControlArgs& args) override;
  Session* lower_for_control() const override { return lower_.get(); }

 private:
  SunSelectProtocol& sel_;
  SessionRef lower_;
  uint32_t prog_ = 0;
  uint16_t vers_ = 0;
  uint16_t proc_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_RPC_SUN_SUN_SELECT_H_
