// Tracing subsystem invariants: attaching observers never perturbs the
// simulation, traces are deterministic, the link counts fault-injection
// outcomes, Tracef routes through the structured sink, and the trace reader
// reads back exactly what the sink wrote and refuses what it could not have.

#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/tools/trace_reader.h"
#include "src/trace/pcap.h"
#include "src/trace/trace.h"

namespace xk {
namespace {

// Installs thread-default observers for the duration of a scope.
struct ScopedObservers {
  ScopedObservers(TraceSink* sink, PacketCapture* capture) {
    TraceSink::set_thread_default(sink);
    PacketCapture::set_thread_default(capture);
  }
  ~ScopedObservers() {
    TraceSink::set_thread_default(nullptr);
    PacketCapture::set_thread_default(nullptr);
  }
};

// The zero-simulated-cost invariant: a fully traced benchmark run reports
// bit-identical simulated numbers to an untraced one. Exact floating-point
// equality is deliberate -- the sinks must not charge costs, consume random
// numbers, or schedule events.
TEST(TraceZeroCost, TracedRunMatchesUntracedExactly) {
  const ConfigResult plain = RpcBench::Measure(kMRpcVip);

  TraceSink sink;
  PacketCapture capture;
  ConfigResult traced;
  {
    ScopedObservers obs(&sink, &capture);
    traced = RpcBench::Measure(kMRpcVip);
  }

  EXPECT_EQ(plain.latency_ms, traced.latency_ms);
  EXPECT_EQ(plain.throughput_kbs, traced.throughput_kbs);
  EXPECT_EQ(plain.incr_ms_per_kb, traced.incr_ms_per_kb);
  EXPECT_EQ(plain.client_cpu_ms, traced.client_cpu_ms);
  EXPECT_EQ(plain.server_cpu_ms, traced.server_cpu_ms);
  EXPECT_EQ(plain.events_fired, traced.events_fired);

  // And the observers actually observed the run.
  EXPECT_GT(sink.num_records(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_GT(capture.size(), 0u);
}

std::pair<std::string, std::string> TracedEchoRun() {
  TraceSink sink;
  PacketCapture capture;
  ScopedObservers obs(&sink, &capture);
  EchoExperiment e = MakeEchoExperiment("channel/fragment/vip");
  (void)RpcWorkload::MeasureLatency(*e.net, *e.ch->kernel, e.MakeCall(), 16);
  return {sink.ToJsonl(), capture.ToJsonl()};
}

// Same configuration, same seed => byte-identical trace and capture files.
TEST(TraceDeterminism, ByteIdenticalAcrossRuns) {
  const auto [trace_a, pcap_a] = TracedEchoRun();
  const auto [trace_b, pcap_b] = TracedEchoRun();
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(pcap_a, pcap_b);
  EXPECT_GT(trace_a.size(), 100u);
  EXPECT_GT(pcap_a.size(), 100u);
}

// Fault-injection outcomes are counted per cause on the link, captured with
// the right verdicts, and surfaced in the counters export.
TEST(TraceFaults, OutcomesCountedAndCaptured) {
  PacketCapture capture;
  EchoExperiment e;
  {
    ScopedObservers obs(nullptr, &capture);
    e = MakeEchoExperiment("channel/fragment/vip");  // CHANNEL retransmits through drops
  }
  e.net->segment(0).set_fault_hook([](const EthFrame&, int, uint64_t delivery_index, SimTime) {
    switch (delivery_index) {
      case 2:
        return LinkFault::kDrop;
      case 5:
        return LinkFault::kDuplicate;
      case 8:
        return LinkFault::kCorrupt;
      default:
        return LinkFault::kDeliver;
    }
  });
  LatencyResult lat = RpcWorkload::MeasureLatency(*e.net, *e.ch->kernel, e.MakeCall(), 8);
  EXPECT_EQ(lat.completed, 8);

  EthernetSegment& seg = e.net->segment(0);
  EXPECT_EQ(seg.fault_drops(), 1u);
  EXPECT_EQ(seg.fault_duplicates(), 1u);
  EXPECT_EQ(seg.fault_corruptions(), 1u);
  EXPECT_EQ(seg.frames_dropped(), 1u);  // no random drops configured
  EXPECT_EQ(seg.random_drops(), 0u);

  EXPECT_EQ(capture.verdict_count(CaptureVerdict::kDropped), 1u);
  EXPECT_EQ(capture.verdict_count(CaptureVerdict::kDuplicated), 1u);
  EXPECT_EQ(capture.verdict_count(CaptureVerdict::kCorrupted), 1u);
  EXPECT_GT(capture.verdict_count(CaptureVerdict::kDelivered), 0u);

  const std::string json = e.net->CountersJson();
  EXPECT_NE(json.find("\"fault_drops\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fault_duplicates\":1"), std::string::npos);
  EXPECT_NE(json.find("\"fault_corruptions\":1"), std::string::npos);
}

// Tracef records a structured log event whenever a sink is attached, whatever
// its level.
TEST(TraceLog, TracefRoutesToSink) {
  TraceSink sink;
  std::unique_ptr<Internet> net;
  {
    ScopedObservers obs(&sink, nullptr);
    net = Internet::TwoHosts();
  }
  Kernel& k = *net->host("client").kernel;
  k.Tracef(9, "trace test %d \x01\"\t", 42);
  const std::string jsonl = sink.ToJsonl();
  EXPECT_NE(jsonl.find("\"k\":\"log\""), std::string::npos);
  EXPECT_NE(jsonl.find("trace test 42"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"host\":\"client\""), std::string::npos);
  // The control byte travels as \u0001; the reader restores every byte.
  const tracetool::TraceFile tf = tracetool::Parse(jsonl);
  ASSERT_TRUE(tf.error.empty()) << tf.error;
  ASSERT_EQ(tf.logs.size(), 1u) << jsonl;
  EXPECT_EQ(tf.logs[0].text, "trace test 42 \x01\"\t");
  EXPECT_EQ(tf.logs[0].host, "client");
  EXPECT_EQ(tf.logs[0].level, 9);
}

// The reader keeps 64-bit ids exact up to 2^64-1. One past that, or a longer
// digit string, is a malformed line named by number -- never an overflow.
TEST(TraceReader, Uint64FieldsAreExactAndOverflowIsMalformed) {
  const std::string meta = "{\"k\":\"meta\",\"v\":1,\"records\":1,\"dropped\":0}\n";
  const tracetool::TraceFile ok = tracetool::Parse(
      meta + "{\"k\":\"ev\",\"t\":-5,\"call\":18446744073709551615,"
             "\"msg\":18446744073709551615,\"detail\":9223372036854775808}\n");
  ASSERT_TRUE(ok.error.empty()) << ok.error;
  ASSERT_EQ(ok.events.size(), 1u);
  EXPECT_EQ(ok.events[0].call, UINT64_MAX);
  EXPECT_EQ(ok.events[0].msg, UINT64_MAX);
  EXPECT_EQ(ok.events[0].detail, uint64_t{1} << 63);
  EXPECT_EQ(ok.events[0].t, -5);
  for (const char* value : {"18446744073709551616", "99999999999999999999999",
                            "184467440737095516150", "-1", "1.5", "\"7\""}) {
    const tracetool::TraceFile bad = tracetool::Parse(
        meta + "{\"k\":\"span\",\"msg\":1}\n{\"k\":\"span\",\"msg\":" + value + "}\n");
    EXPECT_NE(bad.error.find("line 3: "), std::string::npos)
        << value << ": " << bad.error;
  }
  // int64 fields are range-checked too.
  EXPECT_FALSE(tracetool::Parse("{\"k\":\"span\",\"t0\":9223372036854775808}\n").error.empty());
}

// A trace with no records is valid input; an unreadable file or a line that
// is not a JSON object is an error; an unknown record kind is skipped.
TEST(TraceReader, EmptyIsValidUnreadableAndMalformedAreErrors) {
  const tracetool::TraceFile empty =
      tracetool::Parse("{\"k\":\"meta\",\"v\":1,\"records\":0,\"dropped\":0}\n");
  EXPECT_TRUE(empty.error.empty()) << empty.error;
  EXPECT_TRUE(empty.spans.empty() && empty.wires.empty() && empty.events.empty());
  const tracetool::TraceFile unknown =
      tracetool::Parse("{\"k\":\"future\",\"x\":[1,{}]}\n\n{\"k\":\"wire\",\"seg\":2}\n");
  EXPECT_TRUE(unknown.error.empty()) << unknown.error;
  ASSERT_EQ(unknown.wires.size(), 1u);
  EXPECT_EQ(unknown.wires[0].seg, 2);
  // A number token must parse in full: no prefix read of "1-2" as 1.
  for (const char* line : {"not json", "{not json", "[1]", "{\"k\":\"log\",\"t\":1-2}",
                           "{\"k\":\"log\",\"t\":1e}", "{\"k\":\"log\",\"t\":--1}",
                           "{\"k\":\"log\""}) {
    const tracetool::TraceFile bad = tracetool::Parse(std::string("\n") + line + "\n");
    EXPECT_NE(bad.error.find("line 2: "), std::string::npos) << line << ": " << bad.error;
  }
  // Deep nesting is a malformed line, not a stack overflow.
  const tracetool::TraceFile deep =
      tracetool::Parse("\n{\"k\":\"future\",\"x\":" + std::string(100000, '[') + "\n");
  EXPECT_NE(deep.error.find("line 2: nesting too deep"), std::string::npos) << deep.error;
  const tracetool::TraceFile missing = tracetool::Load("/nonexistent/dir/t.trace.jsonl");
  EXPECT_EQ(missing.error, "cannot read /nonexistent/dir/t.trace.jsonl");
}

// Per-protocol counters reflect real traffic after an RPC exchange.
TEST(TraceCounters, ExportReflectsTraffic) {
  EchoExperiment e = MakeEchoExperiment("channel/fragment/vip");
  (void)RpcWorkload::MeasureLatency(*e.net, *e.ch->kernel, e.MakeCall(), 8);

  uint64_t vip_msgs_out = 0;
  uint64_t vip_map_hits = 0;
  e.ch->kernel->ForEachProtocol([&](const Protocol& p) {
    if (p.name() == "vip") {
      p.ExportCounters([&](std::string_view name, uint64_t value) {
        if (name == "msgs_out") {
          vip_msgs_out = value;
        } else if (name == "map_hits") {
          vip_map_hits = value;
        }
      });
    }
  });
  EXPECT_GT(vip_msgs_out, 0u);
  EXPECT_GT(vip_map_hits, 0u);

  const std::string json = e.net->CountersJson();
  EXPECT_NE(json.find("\"protocol\":\"vip\""), std::string::npos);
  EXPECT_NE(json.find("\"protocol\":\"channel\""), std::string::npos);
  EXPECT_NE(json.find("\"calls_sent\":8"), std::string::npos) << json;
}

}  // namespace
}  // namespace xk
