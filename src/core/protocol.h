// The x-kernel uniform protocol interface (paper, Section 2).
//
// Every protocol -- device driver, IP, the RPC layers, virtual protocols --
// presents exactly this interface, which is what makes the paper's two design
// techniques possible:
//
//   * protocols with the same semantics are substitutable (VIP can hand M_RPC
//     an ETH session or an IP session; M_RPC cannot tell the difference), and
//   * the binding between layers happens at run time through open/open_enable,
//     not at compile time.
//
// Protocol objects create sessions and demultiplex incoming messages to them;
// session objects hold per-connection state and interpret messages (push on
// the way down, pop on the way up).
//
// Cost accounting: the public Push/Demux entry points are non-virtual; they
// charge the uniform layer-crossing cost ("it costs only one procedure call
// to pass a message from a high-level protocol to a low-level protocol") plus
// whatever the host environment adds (mbuf allocation in the SunOS model,
// etc.), then dispatch to the protected virtual implementations. Protocol
// implementations charge their own header/map/timer work through the Kernel's
// Charge* helpers.

#ifndef XK_SRC_CORE_PROTOCOL_H_
#define XK_SRC_CORE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/control.h"
#include "src/core/message.h"
#include "src/core/participant.h"
#include "src/core/types.h"
#include "src/sim/event_queue.h"

namespace xk {

class Kernel;
class Protocol;
class Session;
class SessionSlab;
class TraceSink;

// A counted reference to a session: one pointer, 8 bytes. The count lives in
// the session itself (Session::refs()), so a session needs no separate
// control block, and the last reference to drop destroys it -- back into its
// SlabPool slot, or off the heap for a session made by NewSession. Copying is
// an increment and a decrement; there are no weak references. The simulation
// is single-threaded, so the count is a plain integer.
template <typename T>
class SessionPtr {
 public:
  SessionPtr() = default;
  SessionPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  explicit SessionPtr(T* p) : p_(p) { Acquire(p_); }
  SessionPtr(const SessionPtr& o) : p_(o.p_) { Acquire(p_); }
  SessionPtr(SessionPtr&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  // Implicit upcast from a ref to a derived session.
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  SessionPtr(const SessionPtr<U>& o) : p_(o.p_) {  // NOLINT(google-explicit-constructor)
    Acquire(p_);
  }
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  SessionPtr(SessionPtr<U>&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}  // NOLINT
  ~SessionPtr() { Drop(p_); }

  SessionPtr& operator=(SessionPtr o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }

  T* get() const { return p_; }
  T* operator->() const { return p_; }
  T& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

  // Nulls this ref before dropping, so a destructor the drop runs never sees
  // the old pointer here.
  void reset() { Drop(std::exchange(p_, nullptr)); }

  template <typename U>
  bool operator==(const SessionPtr<U>& o) const {
    return p_ == o.get();
  }
  bool operator==(std::nullptr_t) const { return p_ == nullptr; }

 private:
  template <typename U>
  friend class SessionPtr;

  static void Acquire(T* p);
  static void Drop(T* p);

  T* p_ = nullptr;
};

using SessionRef = SessionPtr<Session>;

// Completion for asynchronous opens (used when an open must wait for address
// resolution, e.g. VIP consulting ARP; everything else opens synchronously).
using OpenCallback = std::function<void(Result<SessionRef>)>;

// Generic per-protocol traffic counters, maintained unconditionally at the
// non-virtual entry points and by the protocol's DemuxMaps (host bookkeeping
// only -- never charged to the simulated CPU). Protocol-specific statistics
// live in each protocol's own typed accessors (stats(), ...).
struct ProtoCounters {
  uint64_t msgs_out = 0;     // messages entering a session's Push
  uint64_t msgs_in = 0;      // messages entering the protocol's Demux
  uint64_t demux_drops = 0;  // Demux calls that returned an error
  uint64_t map_hits = 0;     // charged DemuxMap resolves that found a binding
  uint64_t map_misses = 0;
};

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

// An instance of a protocol created at run time: the end-point of a network
// connection. Interprets messages and maintains connection state.
class Session {
 public:
  Session(Protocol& owner, Protocol* hlp);
  virtual ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Passes a message down into this session (charged layer crossing).
  Status Push(Message& msg);

  // Passes a message up out of this session; called by the owning protocol's
  // demux. `lls` is the lower session the message arrived on (null when the
  // owning protocol sits directly on a device).
  Status Pop(Message& msg, Session* lls);

  // Reads/sets session parameters. Unknown opcodes are forwarded to the
  // lowest session below this one, so e.g. kGetPeerHost asked of a CHANNEL
  // session reaches the IP/ETH level that knows the answer.
  Status Control(ControlOp op, ControlArgs& args);

  // The protocol this session is an instance of.
  Protocol& owner() const { return owner_; }

  // The high-level protocol that opened (or was handed) this session, i.e.
  // where popped messages are delivered. May be reassigned when a cached
  // session is re-opened by a different client.
  Protocol* hlp() const { return hlp_; }
  void set_hlp(Protocol* hlp) { hlp_ = hlp; }

  // Cached at construction (== owner().kernel()): Push/Pop read it on every
  // layer crossing, so the double indirection through the owning protocol is
  // paid once per session instead of once per message.
  Kernel& kernel() const { return kernel_; }

  SessionRef Ref() { return SessionRef(this); }

  // References held on this session right now (every SessionPtr, including
  // temporaries on the stack). Eviction vetoes compare it with the references
  // the owning protocol's own maps hold.
  uint32_t refs() const { return refs_; }

  // Trace identity, assigned lazily by a TraceSink (0 = never traced).
  uint64_t trace_id() const { return trace_id_; }

  // Sim time of the last Push/Pop/NoteActivity through this session.
  // Meaningful only for sessions the owner registered with TrackIdle.
  SimTime last_active() const { return last_active_; }

 protected:
  virtual Status DoPush(Message& msg) = 0;
  virtual Status DoPop(Message& msg, Session* lls) = 0;
  virtual Status DoControl(ControlOp op, ControlArgs& args);

  // Veto for the owner's idle eviction: a session with externally visible
  // state in flight (an outstanding call, an un-acked reply) says no here and
  // is skipped until the state drains. Consulted only for tracked sessions.
  virtual bool CanEvict() const { return true; }

  // Stamps activity on this session for idle tracking. Push/Pop call it
  // automatically; subclasses whose traffic bypasses those entry points
  // (e.g. CHANNEL delivers packets straight to HandlePacket) call it at their
  // own activity points. No-op for untracked sessions; never charged.
  void NoteActivity();

  // The session below this one, used to forward control ops this level does
  // not understand. Null for sessions that sit directly on a device.
  virtual Session* lower_for_control() const { return nullptr; }

  // Delivers `msg` upward: invokes hlp()->Demux(this, msg). The common tail
  // of every DoPop.
  Status DeliverUp(Message& msg);

 private:
  friend class TraceSink;
  friend class Protocol;  // idle-LRU intrusive links
  template <typename T>
  friend class SessionPtr;  // the count
  template <typename T>
  friend class SlabPool;  // sets slab_

  // The last reference dropped: runs the destructor and frees the storage
  // (the slab slot when slab_ is set, the heap allocation otherwise).
  void Destroy();

  Protocol& owner_;
  Protocol* hlp_;
  Kernel& kernel_;
  SessionSlab* slab_ = nullptr;  // the slab holding this session; null = heap
  uint64_t trace_id_ = 0;

  // Intrusive idle-LRU state, owned by the owning protocol (head = least
  // recently active). Host bookkeeping only; never charged.
  Session* idle_prev_ = nullptr;
  Session* idle_next_ = nullptr;
  SimTime last_active_ = 0;
  bool idle_eligible_ = false;  // owner called TrackIdle on this session
  bool idle_linked_ = false;    // currently on the owner's LRU list
  uint32_t refs_ = 0;           // SessionPtrs held on this session
};

template <typename T>
void SessionPtr<T>::Acquire(T* p) {
  if (p != nullptr) {
    ++static_cast<Session*>(p)->refs_;
  }
}

template <typename T>
void SessionPtr<T>::Drop(T* p) {
  if (p != nullptr && --static_cast<Session*>(p)->refs_ == 0) {
    static_cast<Session*>(p)->Destroy();
  }
}

// A session in its own heap allocation, freed when its last reference drops.
// Protocols that churn many sessions use a SlabPool instead.
template <typename T, typename... Args>
SessionPtr<T> NewSession(Args&&... args) {
  return SessionPtr<T>(new T(std::forward<Args>(args)...));
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

class Protocol {
 public:
  // `lowers` are the capabilities this protocol was configured with at kernel
  // build time ("each protocol object is given a capability at configuration
  // time for the low-level protocols upon which it depends").
  Protocol(Kernel& kernel, std::string name, std::vector<Protocol*> lowers);
  virtual ~Protocol();

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  // --- session creation (Section 2) -----------------------------------------

  // Actively creates (or returns a cached) session for `parts`, on behalf of
  // high-level protocol `hlp`.
  Result<SessionRef> Open(Protocol& hlp, const ParticipantSet& parts);

  // Like Open but may complete later (address resolution). The default
  // implementation completes synchronously with Open's result.
  virtual void OpenAsync(Protocol& hlp, const ParticipantSet& parts, OpenCallback done);

  // Passively enables session creation: messages matching `parts` (typically
  // only the local participant is specified) create sessions on demand and
  // deliver to `hlp`.
  Status OpenEnable(Protocol& hlp, const ParticipantSet& parts);

  // Revokes a passive enable.
  virtual Status OpenDisable(Protocol& hlp, const ParticipantSet& parts);

  // --- demultiplexing ---------------------------------------------------------

  // Switches an incoming message to one of this protocol's sessions, creating
  // one first (open_done) if a matching enable exists. `lls` is the session
  // of the protocol below that the message arrived on (null for drivers).
  Status Demux(Session* lls, Message& msg);

  // Upcall: a lower protocol `llp` passively created `lls` on our behalf
  // (we had open-enabled it). Lets this protocol wire its own state to the
  // new lower session. Default: accept and ignore (protocols that demux
  // purely on their own header don't need the notification).
  virtual Status OpenDoneUp(Protocol& llp, SessionRef lls, const ParticipantSet& parts);

  // Upcall: an operation pending inside lower session `lls` failed
  // asynchronously (e.g. a CHANNEL call exhausted its retransmissions).
  // `request` is the failing request message when the lower layer still holds
  // it (null otherwise), so multiplexing layers (SELECT, ClusterClient) can
  // identify WHICH call failed instead of guessing. Overload-control rejects
  // (BUSY, DEADLINE_EXCEEDED) arrive out of order relative to issue, so
  // identity matters there. Default: ignore.
  virtual void SessionError(Session& lls, Status error, const Message* request);

  // --- control ----------------------------------------------------------------

  Status Control(ControlOp op, ControlArgs& args);

  // --- accessors --------------------------------------------------------------

  Kernel& kernel() const { return kernel_; }
  const std::string& name() const { return name_; }

  // The i'th configured lower protocol (null if not configured).
  Protocol* lower(size_t i = 0) const { return i < lowers_.size() ? lowers_[i] : nullptr; }

  // --- observability ----------------------------------------------------------

  // Generic traffic counters (host-side only; see ProtoCounters). Mutated by
  // the non-virtual entry points and by this protocol's DemuxMaps.
  ProtoCounters& counters() { return counters_; }
  const ProtoCounters& counters() const { return counters_; }

  // --- idle-session eviction --------------------------------------------------
  //
  // Generic sim-clock LRU over this protocol's sessions. Session-owning
  // protocols register each created session with TrackIdle; Push/Pop (and
  // explicit NoteActivity calls) move it to the hot end. With a nonzero
  // timeout (ControlOp::kSetIdleTimeout) a one-shot sweep timer fires at the
  // cold end's deadline and asks the protocol to drop its owning references
  // (EvictSession); ControlOp::kEvictIdle sweeps immediately. Each eviction
  // is charged as a session destroy and counted in idle_evictions(). A session
  // that declines (CanEvict / EvictSession veto) is parked off the list until
  // its next activity relinks it, so an unevictable session never keeps the
  // sweep timer -- or the simulation -- alive.

  // Idle time after which a tracked session may be evicted (0 = disabled).
  SimTime idle_timeout() const { return idle_.timeout; }
  uint64_t idle_evictions() const { return idle_.evicted; }
  uint64_t idle_declined() const { return idle_.declined; }
  // Sessions currently on the LRU list (linked, not yet parked/evicted).
  size_t idle_tracked() const { return idle_.tracked; }

 protected:
  virtual Result<SessionRef> DoOpen(Protocol& hlp, const ParticipantSet& parts);
  virtual Status DoOpenEnable(Protocol& hlp, const ParticipantSet& parts);
  virtual Status DoDemux(Session* lls, Message& msg) = 0;
  virtual Status DoControl(ControlOp op, ControlArgs& args);

  // Opts this protocol into kSetIdleTimeout/kEvictIdle handling in the base
  // DoControl. Protocols that never call TrackIdle leave it off so the ops
  // forward down the stack to the first session-owning layer.
  void MarkIdleCapable() { idle_.capable = true; }

  // Registers a session for idle tracking (call once after creating it).
  void TrackIdle(Session& s);

  // Drops every owning reference this protocol holds on `s` (map bindings,
  // caches), making the session destructible; returns false to decline --
  // e.g. when something outside the protocol still holds a reference.
  // Overridden by every protocol that calls TrackIdle; must not be charged
  // (the sweep charges session_destroy on success).
  virtual bool EvictSession(Session& s);

  // Evicts every tracked session idle for at least `min_idle` (front of the
  // LRU first). Returns the number evicted. Must run within a task.
  uint64_t EvictIdle(SimTime min_idle);

 private:
  friend class Session;

  void TouchIdle(Session& s);   // append/move to the hot end, arm sweep
  void UnlinkIdle(Session& s);  // detach from the LRU list
  void ArmIdleSweep();          // one-shot timer at the cold end's deadline
  void IdleSweep();

  Kernel& kernel_;
  std::string name_;
  std::vector<Protocol*> lowers_;
  ProtoCounters counters_;

  struct IdleState {
    bool capable = false;
    SimTime timeout = 0;
    Session* head = nullptr;  // least recently active
    Session* tail = nullptr;
    size_t tracked = 0;
    uint64_t evicted = 0;
    uint64_t declined = 0;
    bool sweep_armed = false;
    EventHandle sweep;
  } idle_;
};

// Typed convenience wrappers over common control ops.
Result<uint64_t> CtlGetU64(Protocol& p, ControlOp op);
Result<uint64_t> CtlGetU64(Session& s, ControlOp op);
Result<IpAddr> CtlGetIp(Session& s, ControlOp op);

}  // namespace xk

#endif  // XK_SRC_CORE_PROTOCOL_H_
