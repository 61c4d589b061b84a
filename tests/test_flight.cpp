// Flight-recorder tests: the off-state records nothing, the ring keeps the
// latest `capacity` events across wraparound, concurrent writers never tear
// a slot (run under TSan in CI), labels intern stably, the JSONL dump is
// well-formed, and the analyzer's dump-on-anomaly hook dumps exactly when
// anomalies exist.
#include "obs/flight.hpp"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/analyze.hpp"

namespace lorm::obs {
namespace {

/// Every test leaves the process-wide flight state as it found it (off,
/// empty ring): other suites assert the off-state costs nothing.
struct FlightOn {
  FlightOn() {
    FlightRecorder::Global().Reset();
    SetFlightSimTime(0.0);
    SetFlightEnabled(true);
  }
  ~FlightOn() {
    SetFlightEnabled(false);
    FlightRecorder::Global().Reset();
  }
};

TEST(FlightGate, OffByDefaultAndRecordsNothing) {
  ASSERT_FALSE(FlightEnabled());
  const std::uint64_t before = FlightRecorder::Global().total();
  RecordFlight(FlightEventKind::kJoin, "gate-test", 1, 2, 3);
  EXPECT_EQ(FlightRecorder::Global().total(), before);
}

TEST(FlightRing, CapacityRoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(100).capacity(), 128u);
}

TEST(FlightRing, KeepsLatestEventsAcrossWraparound) {
  FlightRecorder ring(8);
  const std::uint32_t label = InternFlightLabel("wrap-test");
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.Record(FlightEventKind::kJoin, label, static_cast<NodeAddr>(i), i);
  }
  EXPECT_EQ(ring.total(), 20u);
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and only the latest 8 of the 20 survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].a, 12 + i);
    EXPECT_EQ(events[i].node, static_cast<NodeAddr>(12 + i));
  }
}

TEST(FlightRing, ResetForgetsEverything) {
  FlightRecorder ring(16);
  const std::uint32_t label = InternFlightLabel("reset-test");
  ring.Record(FlightEventKind::kCrash, label, 7);
  ASSERT_EQ(ring.Snapshot().size(), 1u);
  ring.Reset();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  // The sequence restarts, so post-reset events are visible again.
  ring.Record(FlightEventKind::kJoin, label, 8);
  const auto events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 0u);
}

TEST(FlightRing, SimTimeStampsEvents) {
  FlightOn on;
  SetFlightSimTime(12.5);
  EXPECT_DOUBLE_EQ(FlightSimTime(), 12.5);
  RecordFlight(FlightEventKind::kPhase, "clock-test", kNoNode, 1);
  SetFlightSimTime(13.75);
  RecordFlight(FlightEventKind::kPhase, "clock-test", kNoNode, 2);
  const auto events = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].sim_time, 12.5);
  EXPECT_DOUBLE_EQ(events[1].sim_time, 13.75);
}

TEST(FlightLabels, InternIsIdempotentAndRoundTrips) {
  const std::uint32_t a = InternFlightLabel("label-round-trip");
  const std::uint32_t b = InternFlightLabel("label-round-trip");
  EXPECT_EQ(a, b);
  EXPECT_EQ(FlightLabelName(a), "label-round-trip");
  EXPECT_EQ(FlightLabelName(0xFFFFFFu), "?");
}

TEST(FlightRing, ConcurrentWritersNeverTearASlot) {
  // 4 threads hammer a small ring (heavy wraparound) while the payload of
  // thread t's i-th event is the redundant pair (a, b) = (t*kPer+i,
  // (t*kPer+i)*3). A torn slot would surface as a pair that breaks the
  // invariant; TSan (CI) additionally checks the memory ordering.
  FlightRecorder ring(64);
  constexpr std::uint64_t kPer = 5000;
  constexpr unsigned kThreads = 4;
  const std::uint32_t label = InternFlightLabel("concurrent-test");
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        const std::uint64_t v = t * kPer + i;
        ring.Record(FlightEventKind::kHandoff, label,
                    static_cast<NodeAddr>(t), v, v * 3);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ring.total(), kPer * kThreads);
  const auto events = ring.Snapshot();
  EXPECT_LE(events.size(), ring.capacity());
  EXPECT_FALSE(events.empty());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].b, events[i].a * 3);  // payload never torn
    EXPECT_EQ(events[i].kind, FlightEventKind::kHandoff);
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
}

TEST(FlightJson, DumpShapeIsPinned) {
  FlightOn on;
  SetFlightSimTime(2.0);
  RecordFlight(FlightEventKind::kJoin, "LORM", 7, 384);
  SetFlightSimTime(2.25);
  RecordFlight(FlightEventKind::kReplicaRepair, "LORM", 9, 12, 576);
  std::ostringstream os;
  FlightRecorder::Global().WriteJsonLines(os);
  EXPECT_EQ(os.str(),
            "{\"seq\":0,\"t\":2,\"kind\":\"join\",\"label\":\"LORM\","
            "\"node\":7,\"a\":384,\"b\":0}\n"
            "{\"seq\":1,\"t\":2.250000,\"kind\":\"replica-repair\","
            "\"label\":\"LORM\",\"node\":9,\"a\":12,\"b\":576}\n");
}

TEST(FlightJson, EveryKindHasAName) {
  for (const auto kind :
       {FlightEventKind::kJoin, FlightEventKind::kLeave,
        FlightEventKind::kCrash, FlightEventKind::kHandoff,
        FlightEventKind::kReplicaRepair, FlightEventKind::kCacheInvalidate,
        FlightEventKind::kPlannerEarlyExit, FlightEventKind::kPhase}) {
    EXPECT_STRNE(FlightEventKindName(kind), "");
  }
}

TEST(FlightDump, DumpsOnAnomalyOnly) {
  FlightOn on;
  RecordFlight(FlightEventKind::kCrash, "dump-test", 3);

  TraceReport clean;
  std::ostringstream quiet;
  EXPECT_EQ(DumpFlightOnAnomaly(clean, quiet), 0u);
  EXPECT_TRUE(quiet.str().empty());

  TraceReport bad;
  Anomaly a;
  a.kind = Anomaly::Kind::kRoutingLoop;
  a.system = "dump-test";
  bad.anomalies.push_back(a);
  std::ostringstream os;
  EXPECT_EQ(DumpFlightOnAnomaly(bad, os), 1u);
  EXPECT_NE(os.str().find("\"kind\":\"crash\""), std::string::npos);
  EXPECT_NE(os.str().find("\"label\":\"dump-test\""), std::string::npos);
}

}  // namespace
}  // namespace lorm::obs
