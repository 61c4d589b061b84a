// Node storage shared by the three overlays (Chord, Cycloid, single-hop).
//
// Slot slab. Nodes live in one contiguous vector of slots, each carrying a
// generation counter that is bumped every time the slot is vacated. A
// vacated slot has addr == kNoNode and goes on a free list (reused last in,
// first out); `AddrIndexMap` maps each member's address to its slot. Slots
// never move, so a ring can address a node by slot index alone.
//
// Links. A routing-table entry is a `SlotRef`: the target's slot, the
// generation observed when the ref was built, and the target's address from
// the same moment. While the generation still matches, the target is alive
// and still occupies the slot — liveness costs one compare and no hash
// probe, and the target's ID is on the header line that compare read. On a
// mismatch the occupant changed, and resolution falls back to the address
// (the target may have rejoined at another slot), which reproduces
// address-keyed routing tables exactly when a node departs, or departs and
// rejoins, between maintenance rounds. The address is what a stale ref
// resolves by: a vacated slot no longer holds its old occupant's address.
// A `SlotLink` is a ref plus the target's ID cached from the same moment:
// Chord's fresh-ring ownership test reads its predecessor's ID that way,
// and the Cycloid and single-hop tables hold links too.
//
// Sorted membership. `RingOracle` holds every member's (id, slot) of a
// circular identifier space sorted by id — what stabilization converges to,
// the single-hop ring's shared full view, and the placement oracle of the
// replication protocol (OwnerOfExcluding, NthSuccessor/NthPredecessor).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace lorm {

/// Index into a slot slab.
using SlabSlot = std::uint32_t;
inline constexpr SlabSlot kNoSlabSlot = 0xffffffffu;

/// Generation-checked reference to a slot's occupant (see the file
/// comment). A null ref is SlotRef{} (addr == kNoNode).
struct SlotRef {
  SlabSlot slot = kNoSlabSlot;
  std::uint32_t gen = 0;
  NodeAddr addr = kNoNode;
};
static_assert(sizeof(SlotRef) == 12, "a ref is three 32-bit words");

/// A ref plus the target's ID as of the same moment. A null link is
/// SlotLink{} (addr == kNoNode).
template <typename Id>
struct SlotLink : SlotRef {
  Id id{};
};

/// `Node` must be default-constructible with `id`, `addr` and `gen`
/// members; a default Node is a vacated slot (addr == kNoNode).
template <typename Node, typename Alloc = std::allocator<Node>>
class SlotSlab {
 public:
  using Slot = SlabSlot;
  using Id = decltype(Node::id);
  using Link = SlotLink<Id>;

  /// `unknown_node` is the invariant message MustFind raises.
  explicit SlotSlab(const char* unknown_node) : unknown_node_(unknown_node) {}

  /// Live members.
  std::size_t size() const { return by_addr_.size(); }
  bool empty() const { return by_addr_.empty(); }
  bool Contains(NodeAddr addr) const { return by_addr_.Contains(addr); }
  /// Warms the address-index probe line for a later Find(addr).
  void PrefetchFind(NodeAddr addr) const { by_addr_.PrefetchFind(addr); }

  /// Slab extent: live and vacated slots.
  std::size_t slot_count() const { return nodes_.size(); }
  Node* data() { return nodes_.data(); }
  Node& operator[](Slot s) { return nodes_[s]; }
  const Node& operator[](Slot s) const { return nodes_[s]; }
  /// The node's slot, recovered from its slab position.
  Slot SlotOf(const Node& n) const {
    return static_cast<Slot>(&n - nodes_.data());
  }

  /// addr -> slot, or kNoSlabSlot when the address is not a member.
  Slot Find(NodeAddr addr) const {
    const std::uint32_t v = by_addr_.Find(addr);
    return v == AddrIndexMap::kAbsent ? kNoSlabSlot : static_cast<Slot>(v);
  }
  Slot MustFind(NodeAddr addr) const {
    const Slot s = Find(addr);
    LORM_CHECK_MSG(s != kNoSlabSlot, unknown_node_);
    return s;
  }
  Node& MustGet(NodeAddr addr) { return nodes_[MustFind(addr)]; }
  const Node& MustGet(NodeAddr addr) const { return nodes_[MustFind(addr)]; }

  /// Snapshot ref to the slot's current occupant.
  SlotRef MakeRef(Slot s) const {
    const Node& n = nodes_[s];
    return SlotRef{s, n.gen, n.addr};
  }
  /// Snapshot link to the slot's current occupant, its ID included.
  Link MakeLink(Slot s) const { return Link{MakeRef(s), nodes_[s].id}; }
  /// True while the ref still points at the occupant it was built for.
  bool Current(const SlotRef& l) const {
    return l.slot != kNoSlabSlot && nodes_[l.slot].gen == l.gen;
  }
  /// Live slot the ref leads to, or kNoSlabSlot if the target is gone:
  /// generation compare first, address fallback for stale refs only.
  Slot Resolve(const SlotRef& l) const {
    return Current(l) ? l.slot : Find(l.addr);
  }

  /// Seats a new member in a recycled slot (or a new one) with every other
  /// node field reset, and indexes its address.
  Slot Allocate(NodeAddr addr, Id id) {
    Slot s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = static_cast<Slot>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& n = nodes_[s];
    const std::uint32_t gen = n.gen;  // already bumped when vacated
    n = Node{};
    n.gen = gen;
    n.id = id;
    n.addr = addr;
    by_addr_.Put(addr, s);
    return s;
  }

  /// Vacates the slot: bumping its generation invalidates every link that
  /// points here.
  void Release(Slot s) {
    Node& n = nodes_[s];
    by_addr_.Erase(n.addr);
    const std::uint32_t gen = n.gen + 1;
    n = Node{};
    n.gen = gen;
    free_.push_back(s);
  }

  void reserve(std::size_t n) {
    nodes_.reserve(n);
    by_addr_.reserve(n);
  }

  std::size_t MemoryBytes() const {
    return nodes_.capacity() * sizeof(Node) + free_.capacity() * sizeof(Slot) +
           by_addr_.MemoryBytes();
  }

 private:
  std::vector<Node, Alloc> nodes_;  // entries stay put
  std::vector<Slot> free_;
  AddrIndexMap by_addr_;  // resolved once per membership change
  const char* unknown_node_;
};

/// Every member of a circular 64-bit identifier space as (id, slot), sorted
/// by id. Positions are indices into the sorted run; Next/Prev wrap. The
/// walks that report addresses take the ring's slab to read them.
class RingOracle {
 public:
  using Key = std::uint64_t;
  using Slot = SlabSlot;
  struct Entry {
    Key id;
    Slot slot;
  };

  std::size_t size() const { return entries_.size(); }
  const Entry& operator[](std::size_t i) const { return entries_[i]; }
  std::size_t Next(std::size_t i) const {
    return i + 1 == entries_.size() ? 0 : i + 1;
  }
  std::size_t Prev(std::size_t i) const {
    return i == 0 ? entries_.size() - 1 : i - 1;
  }

  bool Contains(Key id) const {
    const std::size_t i = LowerBound(id);
    return i != entries_.size() && entries_[i].id == id;
  }
  /// Position of a member's id (which must be present).
  std::size_t IndexOf(Key id) const {
    const std::size_t i = LowerBound(id);
    LORM_CHECK_MSG(i != entries_.size() && entries_[i].id == id,
                   "id missing from the membership oracle");
    return i;
  }
  /// Position of the owner of `key`: the first id >= key, wrapping.
  std::size_t OwnerIndex(Key key) const {
    const std::size_t i = LowerBound(key);
    return i == entries_.size() ? 0 : i;
  }
  /// Position of the first id > `id`, wrapping: `id`'s clockwise successor.
  std::size_t SuccessorIndex(Key id) const {
    const auto it = std::upper_bound(
        entries_.begin(), entries_.end(), id,
        [](Key k, const Entry& e) { return k < e.id; });
    const auto i = static_cast<std::size_t>(it - entries_.begin());
    return i == entries_.size() ? 0 : i;
  }
  /// The owner of `key` as a slot; kNoSlabSlot on an empty ring.
  Slot OwnerSlot(Key key) const {
    return entries_.empty() ? kNoSlabSlot : entries_[OwnerIndex(key)].slot;
  }

  /// One membership change: a contiguous splice per join or leave. Insert
  /// returns the new member's position; EraseAt takes one.
  std::size_t Insert(Key id, Slot slot) {
    const std::size_t i = LowerBound(id);
    entries_.insert(At(i), Entry{id, slot});
    return i;
  }
  void Erase(Key id) { EraseAt(IndexOf(id)); }
  void EraseAt(std::size_t i) { entries_.erase(At(i)); }

  /// Bulk load: Append every member, then sort once. SortDistinct returns
  /// false when two members share an id.
  void reserve(std::size_t n) { entries_.reserve(n); }
  void Append(Key id, Slot slot) { entries_.push_back({id, slot}); }
  bool SortDistinct() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.id < b.id; });
    return std::adjacent_find(entries_.begin(), entries_.end(),
                              [](const Entry& a, const Entry& b) {
                                return a.id == b.id;
                              }) == entries_.end();
  }

  std::size_t MemoryBytes() const {
    return entries_.capacity() * sizeof(Entry);
  }

  /// Member addresses in id order.
  template <typename Slab>
  std::vector<NodeAddr> Members(const Slab& slab) const {
    std::vector<NodeAddr> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(slab[e.slot].addr);
    return out;
  }

  /// First member at or clockwise after position `i` whose address is not
  /// `excluded`; kNoSlabSlot when every member is excluded.
  template <typename Slab>
  Slot FirstFrom(const Slab& slab, std::size_t i, NodeAddr excluded) const {
    for (std::size_t probed = 0; probed < entries_.size(); ++probed) {
      if (slab[entries_[i].slot].addr != excluded) return entries_[i].slot;
      i = Next(i);
    }
    return kNoSlabSlot;
  }

  /// Owner of `key` as if `excluded` had already left the ring; kNoNode
  /// when no other member exists. `excluded` = kNoNode (or a non-member)
  /// gives the plain owner.
  template <typename Slab>
  NodeAddr OwnerOfExcluding(const Slab& slab, Key key,
                            NodeAddr excluded) const {
    if (entries_.empty()) return kNoNode;
    const Slot s = FirstFrom(slab, OwnerIndex(key), excluded);
    return s == kNoSlabSlot ? kNoNode : slab[s].addr;
  }

  /// The member `steps` positions clockwise of `addr` (0 = itself),
  /// skipping `excluded`; the walk stops after one revolution. Replica i of
  /// a key lives on the i-th successor of its owner.
  template <typename Slab>
  NodeAddr NthSuccessor(const Slab& slab, NodeAddr addr, std::size_t steps,
                        NodeAddr excluded) const {
    return Walk(slab, addr, steps, excluded, /*clockwise=*/true);
  }
  /// Counterclockwise counterpart of NthSuccessor.
  template <typename Slab>
  NodeAddr NthPredecessor(const Slab& slab, NodeAddr addr, std::size_t steps,
                          NodeAddr excluded) const {
    return Walk(slab, addr, steps, excluded, /*clockwise=*/false);
  }

 private:
  std::vector<Entry>::iterator At(std::size_t i) {
    return entries_.begin() + static_cast<std::ptrdiff_t>(i);
  }
  std::size_t LowerBound(Key id) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const Entry& e, Key k) { return e.id < k; });
    return static_cast<std::size_t>(it - entries_.begin());
  }

  template <typename Slab>
  NodeAddr Walk(const Slab& slab, NodeAddr addr, std::size_t steps,
                NodeAddr excluded, bool clockwise) const {
    std::size_t i = IndexOf(slab.MustGet(addr).id);
    NodeAddr cur = addr;
    std::size_t taken = 0;
    for (std::size_t probed = 0; taken < steps && probed < entries_.size();
         ++probed) {
      i = clockwise ? Next(i) : Prev(i);
      const NodeAddr next = slab[entries_[i].slot].addr;
      if (next == excluded) continue;
      cur = next;
      ++taken;
    }
    return cur;
  }

  std::vector<Entry> entries_;
};

}  // namespace lorm
