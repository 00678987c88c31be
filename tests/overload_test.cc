// Overload-control end to end: deadline propagation and shedding, retry
// budgets draining under a partition, server admission fast-rejects, the
// VPOOL circuit breaker, hedged failover, and the engine-width bit-identity
// of a fully-armed overload-controlled measurement.

#include <gtest/gtest.h>

#include <string>

#include "src/cluster/datacenter.h"
#include "src/sim/fault.h"

namespace xk {
namespace {

ArrivalSpec Arrivals(const std::string& text) {
  ArrivalSpec spec;
  std::string error;
  EXPECT_TRUE(ArrivalSpec::Parse(text, &spec, &error)) << error;
  return spec;
}

TEST(OverloadTest, DeadlinesShedExpiredWorkInsteadOfRetrying) {
  // One replica serving 20ms per call against 200 calls/s: the queue grows
  // without bound. A 15ms deadline means no queued call can make it -- each
  // fails DEADLINE_EXCEEDED at its deadline instead of burning the full
  // retransmission ladder, and the server sheds arrivals that expired in its
  // queue rather than charging execution for them.
  DatacenterSpec spec;
  spec.client_segments = 1;
  spec.clients_per_segment = 1;
  spec.replicas = 1;
  spec.service_delay = Msec(20);
  spec.deadline = Msec(15);
  spec.arrivals = Arrivals("poisson:rate=200,horizon=200ms,seed=5");

  const DatacenterResult r = MeasureDatacenter(spec);

  EXPECT_GT(r.issued, 0u);
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.oracle.shed, r.shed);
  EXPECT_EQ(r.shed + r.completed, r.issued);  // every failure was a shed
  EXPECT_TRUE(r.oracle.clean())
      << "double=" << r.oracle.double_executions << " silent=" << r.oracle.silent;
  // Expired calls stop consuming the server: far fewer executions than
  // arrivals, and every admitted call (the non-shed remainder) completed.
  EXPECT_EQ(r.oracle.admitted, r.oracle.issued - r.oracle.shed);
  EXPECT_EQ(r.oracle.admitted_success_ppm, 1000000u);
}

TEST(OverloadTest, AdmissionControlFastRejectsBeyondTheInflightCap) {
  // The replica admits one delayed-service request at a time; everything
  // beyond that is answered BUSY from the interrupt path, costing no service
  // time. Clients see the cheap error reply immediately instead of a
  // retransmission ladder.
  DatacenterSpec spec;
  spec.client_segments = 1;
  spec.clients_per_segment = 1;
  spec.replicas = 1;
  spec.service_delay = Msec(10);
  spec.max_inflight = 1;
  spec.arrivals = Arrivals("poisson:rate=300,horizon=200ms,seed=11");

  const DatacenterResult r = MeasureDatacenter(spec);

  EXPECT_GT(r.issued, 0u);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.oracle.rejected, r.rejected);
  EXPECT_EQ(r.rejected + r.completed, r.issued);
  EXPECT_TRUE(r.oracle.clean());
  // Rejected calls never executed: the server ran exactly the admitted set.
  EXPECT_EQ(r.oracle.executions, r.completed);
  EXPECT_EQ(r.oracle.admitted_success_ppm, 1000000u);
}

TEST(OverloadTest, RetryBudgetDrainsUnderPartitionAndRecoversAfterHeal) {
  // A 100ms partition on the client segment swallows every first transmission
  // in the window; CHANNEL's 50ms base timeout retransmits into the void. A
  // 2-token budget refilling at 0.01 retries/call drains almost immediately,
  // so most stranded calls fail RESOURCE_EXHAUSTED instead of each burning
  // its full retry ladder (the retry storm that melts a healing network).
  // Calls issued after the heal ride an intact budget and all complete.
  DatacenterSpec spec;
  spec.client_segments = 1;
  spec.clients_per_segment = 1;
  spec.replicas = 2;
  spec.retry_ratio_ppm = 10000;  // 0.01 retries per call
  spec.retry_burst = 2;
  spec.arrivals = Arrivals("poisson:rate=200,horizon=400ms,seed=13");
  spec.faults.Partition(1, Msec(50), Msec(150));
  spec.crash_at = Msec(50);     // phase attribution against the partition
  spec.restart_at = Msec(150);  //   window (issue-time, [from, until))

  const DatacenterResult r = MeasureDatacenter(spec);

  EXPECT_GT(r.issued, 0u);
  EXPECT_GT(r.budget_exhausted, 0u);
  EXPECT_EQ(r.oracle.budget_exhausted, r.budget_exhausted);
  EXPECT_TRUE(r.oracle.clean())
      << "double=" << r.oracle.double_executions << " silent=" << r.oracle.silent;

  // Post-heal traffic is untouched: new calls need no retries, so the
  // near-empty bucket does not gate them and success returns to 100%.
  // (Issue-time attribution can blame a *pre*-window call whose retries
  // straddled the partition, so only the post phase is judged.)
  EXPECT_GT(r.phases[2].issued, 0u);
  EXPECT_EQ(r.phases[2].success_ppm, 1000000u);
  // Every budget giveup is an accounted failure, nothing more.
  EXPECT_GE(r.failed, r.budget_exhausted);
}

TEST(OverloadTest, BreakerTripsOnOverloadRejectsAndReadmitsAfterProbation) {
  // A hard failure (crash discovery) marks a replica down directly; the
  // breaker exists for the *brownout* case, where replicas stay up but every
  // call comes back as an overload verdict. Replicas serving 20ms against a
  // 15ms deadline turn every outcome bad: a 4-call window at a 50% trip
  // ratio opens the breaker, probation readmits the replica, and the
  // verdicts stay cleanly classified throughout.
  DatacenterSpec spec;
  spec.client_segments = 1;
  spec.clients_per_segment = 1;
  spec.replicas = 2;
  spec.service_delay = Msec(20);
  spec.deadline = Msec(15);
  spec.readmit_after = Msec(50);
  spec.breaker_min_volume = 4;
  spec.breaker_trip_ppm = 500000;
  spec.arrivals = Arrivals("poisson:rate=200,horizon=300ms,seed=19");

  const DatacenterResult r = MeasureDatacenter(spec);

  EXPECT_GT(r.issued, 0u);
  EXPECT_GE(r.breaker_trips, 1u);
  EXPECT_GE(r.down_marks, r.breaker_trips);  // every trip marks its replica down
  EXPECT_GE(r.readmits, 1u);
  EXPECT_TRUE(r.oracle.clean())
      << "double=" << r.oracle.double_executions << " silent=" << r.oracle.silent;
}

TEST(OverloadTest, HedgedFailoverCompletesEachCallOnceAcrossACrash) {
  // Hedging with a 15ms base delay against a crashed replica: calls stranded
  // toward s0 hedge to a survivor and complete long before the primary's
  // retry ladder would have failed. The oracle holds each id to exactly one
  // completion; a hedged id that executed on two hosts is reported as a
  // hedged duplicate, never as an at-most-once violation.
  DatacenterSpec spec;
  spec.client_segments = 2;
  spec.clients_per_segment = 1;
  spec.replicas = 3;
  spec.readmit_after = Msec(120);
  spec.hedge_delay = Msec(15);
  spec.arrivals = Arrivals("poisson:rate=100,horizon=900ms,seed=17");
  spec.faults.Crash("s0", Msec(80), Msec(500));

  const DatacenterResult r = MeasureDatacenter(spec);

  EXPECT_GT(r.issued, 0u);
  EXPECT_GT(r.hedges, 0u);
  EXPECT_EQ(r.oracle.hedged, r.hedges);
  EXPECT_LE(r.completed, r.issued);
  EXPECT_TRUE(r.oracle.clean())
      << "double=" << r.oracle.double_executions << " unknown=" << r.oracle.unknown_replies
      << " silent=" << r.oracle.silent;
  // Hedging rescues the outage-window calls the plain failover test loses:
  // the stranded attempts complete via a survivor.
  EXPECT_GT(r.phases[1].issued, 0u);
  EXPECT_GT(r.phases[1].success_ppm, 900000u);
  EXPECT_GT(r.phases[2].issued, 0u);
  EXPECT_EQ(r.phases[2].success_ppm, 1000000u);
}

TEST(OverloadTest, EveryMechanismArmedAtOnceStaysOracleClean) {
  // Every overload mechanism armed at once -- deadlines, retry budget,
  // concurrency caps, backlog-bounded admission, breaker, hedging -- must
  // keep at-most-once intact.
  DatacenterSpec spec;
  spec.client_segments = 2;
  spec.clients_per_segment = 1;
  spec.replicas = 2;
  spec.service_delay = Msec(2);
  spec.deadline = Msec(30);
  spec.retry_ratio_ppm = 100000;
  spec.retry_burst = 5;
  spec.concurrency_cap = 2;
  spec.max_backlog = Msec(5);
  spec.breaker_min_volume = 8;
  spec.breaker_trip_ppm = 500000;
  spec.hedge_delay = Msec(20);
  spec.arrivals = Arrivals("poisson:rate=300,horizon=200ms,seed=29");

  const DatacenterResult r = MeasureDatacenter(spec);

  EXPECT_GT(r.issued, 0u);
  EXPECT_TRUE(r.oracle.clean())
      << "double=" << r.oracle.double_executions << " unknown=" << r.oracle.unknown_replies
      << " silent=" << r.oracle.silent;
}

}  // namespace
}  // namespace xk
