// Unit tests for the at-most-once oracle: request encoding, execution
// recording across boot ids, and each violation class (double execution,
// mismatched reply, unknown reply, silent failure).

#include "src/app/oracle.h"

#include <gtest/gtest.h>

#include "src/core/kernel.h"

namespace xk {
namespace {

struct OracleFixture : ::testing::Test {
  EventQueue events;
  Kernel kernel{"server", events, HostEnv::kXKernel, IpAddr(10, 0, 0, 1), EthAddr::FromIndex(1)};
  AmoOracle oracle;
};

TEST_F(OracleFixture, RequestRoundTripsIdAndPattern) {
  const uint64_t id = 0x0123456789abcdefULL;
  Message req = AmoOracle::MakeRequest(id, 32);
  EXPECT_EQ(req.length(), AmoOracle::kIdBytes + 32);
  EXPECT_EQ(AmoOracle::ExtractId(req), id);

  // Distinct ids produce distinct payload patterns (cross-wiring shows up).
  Message other = AmoOracle::MakeRequest(id + 1, 32);
  EXPECT_NE(req.Flatten(), other.Flatten());

  EXPECT_EQ(AmoOracle::ExtractId(Message()), 0u);  // too short: no id
}

TEST_F(OracleFixture, NextCallIdIsMonotonic) {
  const uint64_t a = oracle.NextCallId();
  const uint64_t b = oracle.NextCallId();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(b, a + 1);
}

TEST_F(OracleFixture, HappyPathIsClean) {
  RpcServer::Handler handler = oracle.WrapEcho(&kernel);
  for (int i = 0; i < 3; ++i) {
    const uint64_t id = oracle.NextCallId();
    oracle.RecordIssued(id, Msec(i));
    Message req = AmoOracle::MakeRequest(id, 16);
    Message reply = handler(1, req);
    oracle.RecordOutcome(id, Result<Message>(std::move(reply)), Msec(i) + Usec(500));
  }
  AmoOracle::Report rep = oracle.Finish();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.issued, 3u);
  EXPECT_EQ(rep.completed, 3u);
  EXPECT_EQ(rep.executions, 3u);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.silent, 0u);
}

TEST_F(OracleFixture, SurfacedFailureIsNotSilent) {
  const uint64_t id = oracle.NextCallId();
  oracle.RecordIssued(id, 0);
  oracle.RecordOutcome(id, Result<Message>(ErrStatus(StatusCode::kTimeout)), Msec(1));
  AmoOracle::Report rep = oracle.Finish();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.silent, 0u);
}

TEST_F(OracleFixture, SilentCallIsAViolation) {
  const uint64_t id = oracle.NextCallId();
  oracle.RecordIssued(id, 0);
  AmoOracle::Report rep = oracle.Finish();
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.silent, 1u);
}

TEST_F(OracleFixture, DoubleExecutionWithinOneBootIsAViolation) {
  RpcServer::Handler handler = oracle.WrapEcho(&kernel);
  const uint64_t id = oracle.NextCallId();
  oracle.RecordIssued(id, 0);
  Message req = AmoOracle::MakeRequest(id, 8);
  Message reply = handler(1, req);
  Message req2 = AmoOracle::MakeRequest(id, 8);
  (void)handler(1, req2);  // duplicate suppression failed: executed twice
  oracle.RecordOutcome(id, Result<Message>(std::move(reply)), Msec(1));

  AmoOracle::Report rep = oracle.Finish();
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.executions, 2u);
  EXPECT_EQ(rep.double_executions, 1u);
  EXPECT_EQ(rep.cross_boot_reexecutions, 0u);
}

TEST_F(OracleFixture, ReexecutionAcrossRebootIsReportedButNotAViolation) {
  RpcServer::Handler handler = oracle.WrapEcho(&kernel);
  const uint64_t id = oracle.NextCallId();
  oracle.RecordIssued(id, 0);
  Message req = AmoOracle::MakeRequest(id, 8);
  (void)handler(1, req);

  // The server reboots (losing its duplicate filter) and a retransmitted
  // request executes again under the new boot id.
  kernel.Crash();
  kernel.Restart();
  Message req2 = AmoOracle::MakeRequest(id, 8);
  Message reply = handler(1, req2);
  oracle.RecordOutcome(id, Result<Message>(std::move(reply)), Msec(1));

  AmoOracle::Report rep = oracle.Finish();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.executions, 2u);
  EXPECT_EQ(rep.double_executions, 0u);
  EXPECT_EQ(rep.cross_boot_reexecutions, 1u);
}

TEST_F(OracleFixture, MismatchedReplyIsAViolation) {
  const uint64_t a = oracle.NextCallId();
  const uint64_t b = oracle.NextCallId();
  oracle.RecordIssued(a, 0);
  oracle.RecordIssued(b, 0);
  // Call a completes with call b's reply: cross-wired.
  oracle.RecordOutcome(a, Result<Message>(AmoOracle::MakeRequest(b, 8)), Msec(1));
  AmoOracle::Report rep = oracle.Finish();
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.mismatched_replies, 1u);
  EXPECT_EQ(rep.unknown_replies, 0u);  // b was at least a known call
}

TEST_F(OracleFixture, UnknownReplyIdIsAViolation) {
  const uint64_t id = oracle.NextCallId();
  oracle.RecordIssued(id, 0);
  oracle.RecordOutcome(id, Result<Message>(AmoOracle::MakeRequest(0x7777, 8)), Msec(1));
  AmoOracle::Report rep = oracle.Finish();
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.mismatched_replies, 1u);
  EXPECT_EQ(rep.unknown_replies, 1u);
}

TEST_F(OracleFixture, CorruptedPayloadIsAViolation) {
  const uint64_t id = oracle.NextCallId();
  oracle.RecordIssued(id, 0);
  Message reply = AmoOracle::MakeRequest(id, 8);
  std::vector<uint8_t> bytes = reply.Flatten();
  bytes.back() ^= 0xFF;
  oracle.RecordOutcome(id, Result<Message>(Message::FromBytes(bytes)), Msec(1));
  AmoOracle::Report rep = oracle.Finish();
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.mismatched_replies, 1u);
}

// --- record layout: dense per-stream arrays, spilled executions, sparse ids ---

TEST_F(OracleFixture, CorruptedAndArbitraryIdsStaySparse) {
  RpcServer::Handler handler = oracle.WrapEcho(&kernel);
  const uint64_t id = oracle.NextCallId();
  oracle.RecordIssued(id, 0);
  const size_t dense = oracle.dense_records();

  // A request whose id bytes were corrupted on the wire executes under an id
  // nobody issued; an id far past its stream's end and one in a huge stream
  // are issued. None of them may grow the dense arrays.
  Message corrupted = AmoOracle::MakeRequest(0xDEADBEEF12345678ULL, 8);
  (void)handler(1, corrupted);
  oracle.RecordIssued((uint64_t{3} << 32) | 0x7FFFFFFF, 0);
  oracle.RecordIssued((uint64_t{0xFFFFFFFF} << 32) | 1, 0);
  EXPECT_EQ(oracle.dense_records(), dense);
  EXPECT_EQ(oracle.sparse_records(), 3u);

  AmoOracle::Report rep = oracle.Finish();
  EXPECT_EQ(rep.issued, 3u);  // id plus the two arbitrary ones
  EXPECT_EQ(rep.executions, 1u);
  EXPECT_EQ(rep.silent, 3u);  // nothing recorded an outcome
}

TEST_F(OracleFixture, IssuingASparseIdMovesItsRecordDense) {
  RpcServer::Handler handler = oracle.WrapEcho(&kernel);
  const uint64_t early = (uint64_t{1} << 32) | 2;
  // The execution lands before the id is issued: its stream does not cover
  // index 2 yet, so the record starts sparse...
  Message req = AmoOracle::MakeRequest(early, 8);
  Message reply = handler(1, req);
  EXPECT_EQ(oracle.sparse_records(), 1u);
  // ...and issuing the stream's ids up to it absorbs it.
  oracle.RecordIssued((uint64_t{1} << 32) | 1, 0);
  oracle.RecordIssued(early, 0);
  EXPECT_EQ(oracle.sparse_records(), 0u);
  oracle.RecordOutcome(early, Result<Message>(std::move(reply)), Msec(1));
  oracle.RecordOutcome((uint64_t{1} << 32) | 1, Result<Message>(ErrStatus(StatusCode::kTimeout)),
                       Msec(1));

  AmoOracle::Report rep = oracle.Finish();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.issued, 2u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.executions, 1u);
}

TEST_F(OracleFixture, TwoStreamsInterleave) {
  RpcServer::Handler handler = oracle.WrapEcho(&kernel);
  constexpr uint64_t kCalls = 100;
  for (uint64_t seq = 1; seq <= kCalls; ++seq) {
    for (uint64_t stream : {uint64_t{1}, uint64_t{2}}) {
      const uint64_t id = (stream << 32) | seq;
      oracle.RecordIssued(id, 0);
      Message req = AmoOracle::MakeRequest(id, 4);
      Message reply = handler(1, req);
      if (stream == 1 || seq % 2 == 0) {
        oracle.RecordOutcome(id, Result<Message>(std::move(reply)), Msec(1));
      } else {
        oracle.RecordOutcome(id, Result<Message>(ErrStatus(StatusCode::kBusy)), Msec(1));
      }
    }
  }
  EXPECT_EQ(oracle.sparse_records(), 0u);
  EXPECT_LE(oracle.dense_records(), 2 * (kCalls + 1));

  AmoOracle::Report rep = oracle.Finish();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.issued, 2 * kCalls);
  EXPECT_EQ(rep.completed, kCalls + kCalls / 2);
  EXPECT_EQ(rep.rejected, kCalls / 2);
  EXPECT_EQ(rep.executions, 2 * kCalls);
}

TEST_F(OracleFixture, SpilledExecutionsAcrossHostsAndBootsClassify) {
  Kernel other{"replica", events, HostEnv::kXKernel, IpAddr(10, 0, 0, 2), EthAddr::FromIndex(2)};
  RpcServer::Handler here = oracle.WrapEcho(&kernel);
  RpcServer::Handler there = oracle.WrapEcho(&other);
  const uint64_t plain = oracle.NextCallId();
  const uint64_t hedged = oracle.NextCallId();
  oracle.RecordIssued(plain, 0);
  oracle.RecordIssued(hedged, 0);
  oracle.RecordHedged(hedged);
  auto execute = [](RpcServer::Handler& h, uint64_t id) {
    Message req = AmoOracle::MakeRequest(id, 4);
    return h(1, req);
  };

  // plain: this host twice in one boot, the other host, then this host again
  // after a reboot -- one same-boot duplicate, one cross-boot re-execution,
  // and an unhedged second host.
  (void)execute(here, plain);
  (void)execute(here, plain);
  (void)execute(there, plain);
  // hedged: the intended two-replica race, plus the other replica running
  // it again in the same boot.
  (void)execute(here, hedged);
  (void)execute(there, hedged);
  (void)execute(there, hedged);
  kernel.Crash();
  kernel.Restart();
  (void)execute(here, plain);
  oracle.RecordOutcome(plain, Result<Message>(execute(here, plain)), Msec(1));
  oracle.RecordOutcome(hedged, Result<Message>(AmoOracle::MakeRequest(hedged, 4)), Msec(1));

  AmoOracle::Report rep = oracle.Finish();
  EXPECT_EQ(rep.executions, 8u);
  // plain on this host: boots b0,b0,b1,b1 -> 2 same-boot, 1 cross-boot;
  // plain on 2 hosts unhedged -> 1 more; hedged on `other`: b0,b0 -> 1.
  EXPECT_EQ(rep.double_executions, 4u);
  EXPECT_EQ(rep.cross_boot_reexecutions, 1u);
  EXPECT_EQ(rep.hedged, 1u);
  EXPECT_EQ(rep.hedged_duplicate_executions, 1u);
}

TEST_F(OracleFixture, UnknownReplyLookupInsertsNothing) {
  const uint64_t id = oracle.NextCallId();
  oracle.RecordIssued(id, 0);
  const size_t dense = oracle.dense_records();
  const uint64_t stray = (uint64_t{9} << 32) | 42;
  oracle.RecordOutcome(id, Result<Message>(AmoOracle::MakeRequest(stray, 8)), Msec(1));
  oracle.RecordOutcome(id, Result<Message>(AmoOracle::MakeRequest(stray, 8)), Msec(2));
  EXPECT_EQ(oracle.dense_records(), dense);
  EXPECT_EQ(oracle.sparse_records(), 0u);
  AmoOracle::Report rep = oracle.Finish();
  EXPECT_EQ(rep.unknown_replies, 2u);  // the first lookup left no record behind
  EXPECT_EQ(rep.mismatched_replies, 1u);
}

}  // namespace
}  // namespace xk
