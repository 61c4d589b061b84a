// Observability: protocol flight recorder.
//
// A fixed-capacity lock-free ring buffer of recent protocol events — node
// joins/leaves/crashes, ownership handoffs, replica repairs, cache
// invalidations, planner early exits — each stamped with the simulated
// clock. When the offline analyzer flags an anomaly, the last N events
// answer the question its report cannot: *what was the overlay doing right
// before this query went wrong?*
//
// Design constraints, in order:
//
//  * the off-state is one relaxed load (`FlightEnabled()`); no event is
//    recorded, no clock is read, no label is interned;
//  * recording never locks and never allocates: a slot is claimed with one
//    fetch_add and filled with plain atomic stores, so churn hooks on any
//    thread can record concurrently (TSan-clean by construction — every
//    slot word is an atomic);
//  * wraparound is the point, not a failure: the ring keeps the *latest*
//    `capacity` events and `total()` reports how many were ever recorded;
//  * readers never block writers. `Snapshot()` uses a per-slot version
//    stamp (seqlock style): the payload words are published first, the
//    stamp last (release), and a reader discards any slot whose stamp
//    changed under it. A torn read is detected, never returned.
//
// Event labels (service names) are interned into a small table so a dump
// taken after the owning service was destroyed still renders names.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lorm::obs {

enum class FlightEventKind : std::uint8_t {
  kJoin = 0,           ///< a node entered the overlay
  kLeave,              ///< a node departed gracefully
  kCrash,              ///< a node failed abruptly (no handoff)
  kHandoff,            ///< ownership handoff moved directory entries
  kReplicaRepair,      ///< crash restore re-fetched lost replica coverage
  kCacheInvalidate,    ///< churn invalidated cached routes/results
  kPlannerEarlyExit,   ///< the planner pruned the rest of a query
  kPhase,              ///< experiment phase marker (failure harness)
};

const char* FlightEventKindName(FlightEventKind kind);

/// One recovered ring entry. `a`/`b` are kind-specific operands (entry
/// counts, phase indices, ...); unused operands are 0.
struct FlightEvent {
  std::uint64_t seq = 0;      ///< process-wide record sequence number
  double sim_time = 0.0;      ///< simulated clock at record time
  FlightEventKind kind = FlightEventKind::kJoin;
  std::uint32_t label = 0;    ///< interned label id (see FlightLabelName)
  NodeAddr node = kNoNode;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// True while flight recording is on. One relaxed load; every entry point
/// checks this first, so the off-state never touches the ring.
bool FlightEnabled();
void SetFlightEnabled(bool on);

/// The simulated clock events are stamped with. The discrete-event queue
/// publishes its `now()` here as it dispatches (sim/event_queue.cpp);
/// harnesses without a sim clock publish synthetic phase times.
void SetFlightSimTime(double now);
double FlightSimTime();

/// Interns `label` (typically a service name) into the process-wide label
/// table, returning its stable id. Idempotent; takes a lock — callers are
/// protocol-rare paths, never per-hop ones.
std::uint32_t InternFlightLabel(std::string_view label);

/// The label behind an interned id ("?" for ids never interned).
std::string FlightLabelName(std::uint32_t id);

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// The process-wide recorder every instrumented call site records into.
  static FlightRecorder& Global();

  /// Records one event (caller already checked FlightEnabled()). Lock-free;
  /// overwrites the oldest event once the ring is full.
  void Record(FlightEventKind kind, std::uint32_t label, NodeAddr node,
              std::uint64_t a = 0, std::uint64_t b = 0);

  /// The surviving events, oldest first. Safe to call while writers are
  /// active (in-flight slots are skipped), but the intended use is after an
  /// experiment quiesced.
  std::vector<FlightEvent> Snapshot() const;

  /// One JSON object per surviving event, oldest first:
  /// {"seq":N,"t":T,"kind":"join","label":"LORM","node":N,"a":N,"b":N}
  void WriteJsonLines(std::ostream& os) const;

  /// Forgets every recorded event (the sequence counter restarts too).
  void Reset();

  /// Events ever recorded (>= capacity means the ring wrapped).
  std::uint64_t total() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return slots_.size(); }

  static constexpr std::size_t kDefaultCapacity = 4096;

 private:
  // Seqlock slot: `stamp` holds seq+1 of the resident event, published last
  // with release order; 0 = empty or in-progress. Payload words are only
  // meaningful while the stamp is stable across a read.
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> time_bits{0};
    std::atomic<std::uint64_t> meta{0};  ///< kind:8 | label:24 | node:32
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_seq_{0};
};

/// Convenience entry point for instrumented protocol code: records into the
/// global ring at the current flight sim time, interning `label` on the
/// spot. A single relaxed load + return when flight recording is off.
void RecordFlight(FlightEventKind kind, std::string_view label, NodeAddr node,
                  std::uint64_t a = 0, std::uint64_t b = 0);

/// Writes `v` as an integer when it is one, otherwise with six fixed
/// decimals: the shortest rendering that still round-trips the sim clocks
/// in use (event-queue seconds, synthetic phase indices). Flight and
/// timeline JSONL both write their numbers this way, so their bytes are
/// stable.
void WriteFixedNumber(std::ostream& os, double v);

/// Writes an already-captured event list as flight JSONL (the format
/// FlightRecorder::WriteJsonLines emits).
void WriteFlightJsonLines(std::ostream& os,
                          const std::vector<FlightEvent>& events);

}  // namespace lorm::obs
