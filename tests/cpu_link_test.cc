// Tests for the CPU and Ethernet link models.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/link.h"

namespace xk {
namespace {

TEST(CpuTest, ChargesAccumulateWithinTask) {
  Cpu cpu;
  EXPECT_EQ(cpu.BeginTask(Usec(100)), Usec(100));
  cpu.Charge(Usec(10));
  cpu.Charge(Usec(5));
  EXPECT_EQ(cpu.now(), Usec(115));
  EXPECT_EQ(cpu.EndTask(), Usec(115));
  EXPECT_EQ(cpu.total_busy(), Usec(15));
}

TEST(CpuTest, BackToBackTasksSerialize) {
  Cpu cpu;
  cpu.BeginTask(Usec(0));
  cpu.Charge(Usec(50));
  cpu.EndTask();
  // A task dispatched at t=20 while the CPU is busy until t=50 starts at 50.
  EXPECT_EQ(cpu.BeginTask(Usec(20)), Usec(50));
  cpu.Charge(Usec(10));
  EXPECT_EQ(cpu.EndTask(), Usec(60));
}

TEST(CpuTest, IdleGapsDoNotCountAsBusy) {
  Cpu cpu;
  cpu.BeginTask(Usec(0));
  cpu.Charge(Usec(10));
  cpu.EndTask();
  cpu.BeginTask(Usec(1000));
  cpu.Charge(Usec(10));
  cpu.EndTask();
  EXPECT_EQ(cpu.total_busy(), Usec(20));
}

class Recorder : public FrameSink {
 public:
  struct Arrival {
    SimTime at;
    std::vector<uint8_t> bytes;
  };
  explicit Recorder(EventQueue& q) : q_(q) {}
  void FrameArrived(const EthFrame& f) override {
    arrivals.push_back({q_.now(), f.msg.Flatten()});
    if (order != nullptr) {
      order->push_back(this);
    }
  }
  std::vector<Arrival> arrivals;
  std::vector<const Recorder*>* order = nullptr;  // shared arrival log, if set

 private:
  EventQueue& q_;
};

EthFrame MakeFrame(EthAddr dst, EthAddr src, size_t payload) {
  std::vector<uint8_t> bytes;
  auto put = [&](const EthAddr& a) {
    for (uint8_t b : a.bytes()) {
      bytes.push_back(b);
    }
  };
  put(dst);
  put(src);
  bytes.push_back(0x08);
  bytes.push_back(0x00);
  bytes.resize(14 + payload, 0xAB);
  EthFrame f;
  f.msg = Message::FromBytes(bytes);
  return f;
}

struct LinkFixture : ::testing::Test {
  EventQueue q;
  WireModel wire;
  EthernetSegment seg{q, WireModel{}, 42};
  Recorder a{q}, b{q}, c{q};
  int ia = seg.Attach(EthAddr::FromIndex(1), &a);
  int ib = seg.Attach(EthAddr::FromIndex(2), &b);
  int ic = seg.Attach(EthAddr::FromIndex(3), &c);
};

TEST_F(LinkFixture, UnicastReachesOnlyDestination) {
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 100), 0);
  q.Run();
  EXPECT_EQ(a.arrivals.size(), 0u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals.size(), 0u);
}

TEST_F(LinkFixture, BroadcastReachesAllButSender) {
  std::vector<const Recorder*> order;
  a.order = b.order = c.order = &order;
  seg.Transmit(ia, MakeFrame(EthAddr::Broadcast(), EthAddr::FromIndex(1), 10), 0);
  q.Run();
  EXPECT_EQ(a.arrivals.size(), 0u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  ASSERT_EQ(c.arrivals.size(), 1u);
  // Same instant, station order, one heap event per delivery.
  EXPECT_EQ(b.arrivals[0].at, c.arrivals[0].at);
  EXPECT_EQ(order, (std::vector<const Recorder*>{&b, &c}));
  EXPECT_EQ(q.fired_total(), 2u);
}

TEST_F(LinkFixture, ArrivalTimeMatchesWireModel) {
  const size_t payload = 1000;
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), payload), Usec(50));
  q.Run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  const SimTime expected = Usec(50) + wire.TransmitTime(14 + payload) + wire.propagation;
  EXPECT_EQ(b.arrivals[0].at, expected);
}

TEST_F(LinkFixture, MinFramePaddingAffectsTiming) {
  // A tiny frame still takes min_frame_bytes on the wire.
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 1), 0);
  q.Run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].at, wire.TransmitTime(64) + wire.propagation);
}

TEST_F(LinkFixture, BusSerializesBackToBackFrames) {
  const auto f = MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 1000);
  seg.Transmit(ia, f, 0);
  seg.Transmit(ia, f, 0);  // ready at the same instant: queues behind
  q.Run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  const SimTime tx = wire.TransmitTime(1014);
  EXPECT_EQ(b.arrivals[0].at, tx + wire.propagation);
  EXPECT_EQ(b.arrivals[1].at, 2 * tx + wire.propagation);
  EXPECT_EQ(seg.bus_busy_time(), 2 * tx);
}

TEST_F(LinkFixture, DropRateDropsEverythingAtOne) {
  seg.set_drop_rate(1.0);
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 10), 0);
  q.Run();
  EXPECT_EQ(b.arrivals.size(), 0u);
  EXPECT_EQ(seg.frames_dropped(), 1u);
}

TEST_F(LinkFixture, FaultHookCanTargetSpecificDelivery) {
  seg.set_fault_hook([](const EthFrame&, int, uint64_t index, SimTime) {
    return index == 1 ? LinkFault::kDrop : LinkFault::kDeliver;
  });
  const auto f = MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 10);
  seg.Transmit(ia, f, 0);
  seg.Transmit(ia, f, 0);
  seg.Transmit(ia, f, 0);
  q.Run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(seg.frames_dropped(), 1u);
}

TEST_F(LinkFixture, FaultHookDuplicateDeliversTwice) {
  seg.set_fault_hook(
      [](const EthFrame&, int, uint64_t, SimTime) { return LinkFault::kDuplicate; });
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 10), 0);
  q.Run();
  EXPECT_EQ(b.arrivals.size(), 2u);
}

TEST_F(LinkFixture, StatsCountFramesAndBytes) {
  seg.Transmit(ia, MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 100), 0);
  seg.Transmit(ib, MakeFrame(EthAddr::FromIndex(1), EthAddr::FromIndex(2), 200), 0);
  q.Run();
  EXPECT_EQ(seg.frames_sent(), 2u);
  EXPECT_EQ(seg.bytes_sent(), 114u + 214u);
  seg.ResetStats();
  EXPECT_EQ(seg.frames_sent(), 0u);
  EXPECT_EQ(seg.bus_busy_time(), 0);
}

// A broadcast from A whose delivery to C alone is corrupted at `offset`;
// returns the bytes sent and what B and C received.
struct CorruptRun {
  std::vector<uint8_t> sent;
  std::vector<Recorder::Arrival> b;
  std::vector<Recorder::Arrival> c;
  uint64_t corruptions = 0;
};

CorruptRun CorruptBroadcastToC(size_t offset) {
  EventQueue q;
  EthernetSegment seg(q, WireModel{});
  Recorder a(q), b(q), c(q);
  const int ia = seg.Attach(EthAddr::FromIndex(1), &a);
  seg.Attach(EthAddr::FromIndex(2), &b);
  const int ic = seg.Attach(EthAddr::FromIndex(3), &c);
  seg.set_fault_hook([ic, offset](const EthFrame&, int receiver_id, uint64_t, SimTime) {
    DeliveryFault fault;
    if (receiver_id == ic) {
      fault.verdict = LinkFault::kCorrupt;
      fault.corrupt_offset = offset;
    }
    return fault;
  });
  EthFrame f = MakeFrame(EthAddr::Broadcast(), EthAddr::FromIndex(1), 50);
  CorruptRun out;
  out.sent = f.msg.Flatten();
  seg.Transmit(ia, std::move(f), 0);
  q.Run();
  out.b = b.arrivals;
  out.c = c.arrivals;
  out.corruptions = seg.fault_corruptions();
  return out;
}

TEST(LinkCorruptionTest, BroadcastCorruptsOnlyTheTargetedReceiver) {
  for (const size_t offset : {size_t{20}, SIZE_MAX}) {
    SCOPED_TRACE(offset);
    const CorruptRun run = CorruptBroadcastToC(offset);
    ASSERT_EQ(run.b.size(), 1u);
    ASSERT_EQ(run.c.size(), 1u);
    std::vector<uint8_t> expect = run.sent;
    expect[offset == SIZE_MAX ? expect.size() - 1 : offset] ^= 0xFF;
    EXPECT_EQ(run.c[0].bytes, expect);
    EXPECT_EQ(run.b[0].bytes, run.sent);
    EXPECT_EQ(run.corruptions, 1u);
  }
}

// A wire whose transmit time is exactly 50us for every frame (the per-byte
// term truncates to 0ns) and whose propagation is 50us, so every arrival
// lands on a round number.
WireModel ExactWire() {
  WireModel wire;
  wire.bits_per_usec = 1e12;
  wire.per_frame_overhead = Usec(50);
  wire.propagation = Usec(50);
  return wire;
}

// Records arrival times; the first frame it receives is answered with a
// reply transmitted from inside the delivery.
class ReplyingSink : public FrameSink {
 public:
  ReplyingSink(EventQueue& q, EthernetSegment& seg) : q_(q), seg_(seg) {}
  void FrameArrived(const EthFrame& f) override {
    arrivals.push_back(q_.now());
    if (arrivals.size() == 1) {
      seg_.Transmit(id, MakeFrame(f.Src(), f.Dst(), 0), q_.now());
    }
  }
  int id = -1;
  std::vector<SimTime> arrivals;

 private:
  EventQueue& q_;
  EthernetSegment& seg_;
};

// F1 ready at 0: bus 0..50us, B receives at 100us. F2 ready at 100us:
// bus 100..150us, B receives at 200us. B's reply is ready at 100us but
// queues behind F2: bus 150..200us, A receives at 250us. With
// `duplicate_to_a`, every delivery to A is duplicated and the second copy
// follows one transmit time later.
struct ExactRun {
  std::vector<SimTime> a_arrivals;
  std::vector<SimTime> b_arrivals;
  uint64_t duplicates = 0;
};

ExactRun RunExactScenario(bool duplicate_to_a) {
  EventQueue q;
  EthernetSegment seg(q, ExactWire());
  Recorder a(q);
  ReplyingSink b(q, seg);
  const int ia = seg.Attach(EthAddr::FromIndex(1), &a);
  b.id = seg.Attach(EthAddr::FromIndex(2), &b);
  if (duplicate_to_a) {
    seg.set_fault_hook([ia](const EthFrame&, int receiver_id, uint64_t, SimTime) {
      return receiver_id == ia ? LinkFault::kDuplicate : LinkFault::kDeliver;
    });
  }

  const auto f = MakeFrame(EthAddr::FromIndex(2), EthAddr::FromIndex(1), 0);
  seg.Transmit(ia, f, 0);
  seg.Transmit(ia, f, Usec(100));
  q.Run();

  ExactRun out;
  for (const auto& arrival : a.arrivals) out.a_arrivals.push_back(arrival.at);
  out.b_arrivals = b.arrivals;
  out.duplicates = seg.fault_duplicates();
  return out;
}

TEST(ExactWireTest, ArrivalsAndReplyLandOnExactTimes) {
  const ExactRun run = RunExactScenario(/*duplicate_to_a=*/false);
  EXPECT_EQ(run.b_arrivals, (std::vector<SimTime>{Usec(100), Usec(200)}));
  EXPECT_EQ(run.a_arrivals, (std::vector<SimTime>{Usec(250)}));
  EXPECT_EQ(run.duplicates, 0u);
}

TEST(ExactWireTest, DuplicateSecondCopyLandsOneTransmitTimeLater) {
  const ExactRun run = RunExactScenario(/*duplicate_to_a=*/true);
  EXPECT_EQ(run.b_arrivals, (std::vector<SimTime>{Usec(100), Usec(200)}));
  EXPECT_EQ(run.a_arrivals, (std::vector<SimTime>{Usec(250), Usec(300)}));
  EXPECT_EQ(run.duplicates, 1u);
}

TEST(WireModelTest, TransmitTimeAt10Mbps) {
  WireModel w;
  // 1250 bytes = 10000 bits = 1000 us at 10 Mbps, plus per-frame overhead.
  EXPECT_EQ(w.TransmitTime(1250), w.per_frame_overhead + Usec(1000));
}

}  // namespace
}  // namespace xk
