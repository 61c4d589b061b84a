#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <ostream>

namespace lorm::obs {

namespace {

std::atomic<bool> g_flight_enabled{false};
std::atomic<std::uint64_t> g_flight_sim_time_bits{0};

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Label table: append-only, tiny (one entry per service/system name), so a
/// mutex around a vector is plenty. Leaked so dumps at exit stay valid.
struct LabelTable {
  std::mutex mu;
  std::vector<std::string> names;
};

LabelTable& Labels() {
  static LabelTable* table = new LabelTable();
  return *table;
}

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void WriteFixedNumber(std::ostream& os, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    os << static_cast<std::int64_t>(v);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  os << buf;
}

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kJoin:
      return "join";
    case FlightEventKind::kLeave:
      return "leave";
    case FlightEventKind::kCrash:
      return "crash";
    case FlightEventKind::kHandoff:
      return "handoff";
    case FlightEventKind::kReplicaRepair:
      return "replica-repair";
    case FlightEventKind::kCacheInvalidate:
      return "cache-invalidate";
    case FlightEventKind::kPlannerEarlyExit:
      return "planner-early-exit";
    case FlightEventKind::kPhase:
      return "phase";
  }
  return "?";
}

bool FlightEnabled() {
  return g_flight_enabled.load(std::memory_order_relaxed);
}

void SetFlightEnabled(bool on) {
  g_flight_enabled.store(on, std::memory_order_relaxed);
}

void SetFlightSimTime(double now) {
  g_flight_sim_time_bits.store(DoubleBits(now), std::memory_order_relaxed);
}

double FlightSimTime() {
  return BitsDouble(g_flight_sim_time_bits.load(std::memory_order_relaxed));
}

std::uint32_t InternFlightLabel(std::string_view label) {
  LabelTable& t = Labels();
  std::lock_guard<std::mutex> lock(t.mu);
  for (std::size_t i = 0; i < t.names.size(); ++i) {
    if (t.names[i] == label) return static_cast<std::uint32_t>(i);
  }
  t.names.emplace_back(label);
  return static_cast<std::uint32_t>(t.names.size() - 1);
}

std::string FlightLabelName(std::uint32_t id) {
  LabelTable& t = Labels();
  std::lock_guard<std::mutex> lock(t.mu);
  if (id < t.names.size()) return t.names[id];
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(RoundUpPow2(capacity)) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance = new FlightRecorder();  // leaked
  return *instance;
}

void FlightRecorder::Record(FlightEventKind kind, std::uint32_t label,
                            NodeAddr node, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[seq & (slots_.size() - 1)];
  // Invalidate first so a concurrent reader never pairs the old stamp with
  // new payload words; publish the new stamp last (release) so a reader
  // that sees it also sees the full payload.
  s.stamp.store(0, std::memory_order_release);
  s.time_bits.store(g_flight_sim_time_bits.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  s.meta.store((static_cast<std::uint64_t>(kind) << 56) |
                   (static_cast<std::uint64_t>(label & 0xFFFFFFu) << 32) |
                   static_cast<std::uint64_t>(node),
               std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.stamp.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    const std::uint64_t stamp = s.stamp.load(std::memory_order_acquire);
    if (stamp == 0) continue;  // empty or mid-write
    FlightEvent e;
    e.sim_time = BitsDouble(s.time_bits.load(std::memory_order_relaxed));
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    e.kind = static_cast<FlightEventKind>(meta >> 56);
    e.label = static_cast<std::uint32_t>((meta >> 32) & 0xFFFFFFu);
    e.node = static_cast<NodeAddr>(meta & 0xFFFFFFFFu);
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    // Seqlock validation: a writer that touched this slot since the first
    // stamp read zeroed it (or advanced it); either way the payload may be
    // torn — drop the slot.
    if (s.stamp.load(std::memory_order_acquire) != stamp) continue;
    e.seq = stamp - 1;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

void FlightRecorder::WriteJsonLines(std::ostream& os) const {
  WriteFlightJsonLines(os, Snapshot());
}

void WriteFlightJsonLines(std::ostream& os,
                          const std::vector<FlightEvent>& events) {
  for (const FlightEvent& e : events) {
    os << "{\"seq\":" << e.seq << ",\"t\":";
    WriteFixedNumber(os, e.sim_time);
    os << ",\"kind\":\"" << FlightEventKindName(e.kind) << "\",\"label\":\""
       << FlightLabelName(e.label) << "\",\"node\":" << e.node
       << ",\"a\":" << e.a << ",\"b\":" << e.b << "}\n";
  }
}

void FlightRecorder::Reset() {
  for (Slot& s : slots_) {
    s.stamp.store(0, std::memory_order_relaxed);
    s.time_bits.store(0, std::memory_order_relaxed);
    s.meta.store(0, std::memory_order_relaxed);
    s.a.store(0, std::memory_order_relaxed);
    s.b.store(0, std::memory_order_relaxed);
  }
  next_seq_.store(0, std::memory_order_relaxed);
}

void RecordFlight(FlightEventKind kind, std::string_view label, NodeAddr node,
                  std::uint64_t a, std::uint64_t b) {
  if (!FlightEnabled()) return;
  FlightRecorder::Global().Record(kind, InternFlightLabel(label), node, a, b);
}

}  // namespace lorm::obs
