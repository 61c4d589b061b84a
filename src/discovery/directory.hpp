// Per-node resource directories.
//
// A directory node pools resource-information tuples and answers sub-queries
// against them (paper §III: "the operation in resource discovery is to pool
// together information of available resources in a number of directory
// nodes"). Entries carry the DHT placement key they were stored under so
// ownership changes under churn can re-home exactly the affected entries,
// and the value's ordinal so range scans need no schema access.
//
// Layout. DirectoryStore finds a node's directory with one AddrIndexMap
// probe (common/flat_map.hpp). The probe yields an index into a vector of
// heap-allocated directories, so a directory keeps its address for as long
// as it lives, and Drop swap-removes. A Directory holds one flat run of
// 64-byte entries (72 with Cycloid keys) sorted by (attr, ordinal,
// insertion order), fed by an insert buffer merged in lazily: advertising
// appends, and the first read after a batch of inserts sorts the buffer
// stably and merges it into the run. Both keep equal keys in insertion
// order, so ForEach, TakeIf and TakeAll visit entries in (attr, ordinal,
// insertion) order and handoffs re-insert them in a fixed order. When the
// run is empty — the first read after a build's advertising — the sorted
// buffer becomes the run instead of being copied into one, so a directory
// holds each entry once and no emptied buffer keeps its capacity beside the
// run. Into a non-empty run the buffer merges from the back, in place: the
// run grows by the buffer's size and each step moves the larger tail entry
// to its final slot, so entries before the buffer's smallest key never
// move. A merge that fits the run's capacity allocates nothing: a buffer of
// up to 16 entries sorts by insertion (std::stable_sort takes a temporary
// buffer on every call).
//
// Search keys. Beside the run each directory keeps an array of 16-byte
// (attr, ordinal) keys, keys_[i] being sorted_[i]'s, so ForEachMatch's
// binary search and its scan's stop test stride 16 bytes instead of 64 and
// read an entry only to hand it to the caller. The array is rebuilt
// wherever the run changes (the merge, EraseIf, TakeIf). The first merge
// sizes it exactly, since the adopted run keeps its growth slack; later
// merges reserve it to the run's capacity, so the two grow together.
//
// Presence word. Each directory also keeps a 64-bit word with bit
// attr % 64 set for every attribute it holds, rebuilt wherever the sorted
// run changes (the merge, EraseIf, TakeIf). ForEachMatch tests it before
// searching. A clear bit proves the directory holds no entry of the
// attribute, so the search is skipped. A set bit only says that some
// attribute with the same residue is present, and the exact search runs;
// the word can skip work but never change an answer. Over a 30 s run of
// the discovery benchmark (perfbench/, seed 20261017) it skips 77.1% of
// all ForEachMatch calls on `range` and 75.9% on `hotspot`. On `point` it
// skips 26.7%: there 200 attributes alias onto 64 bits, and a further
// 19.0% of calls fall through to the exact search for an attribute the
// directory does not hold.
//
// The lazy merge is guarded by an atomic dirty flag + mutex so the
// concurrent read-only query replay stays race-free: the merge publishes
// the sorted run and the presence word together, and reads in the merged
// steady state cost one acquire load.
//
// The template parameter is the overlay key type (chord::Key or
// cycloid::CycloidId).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "discovery/selectivity.hpp"
#include "resource/resource_info.hpp"

namespace lorm::discovery {

template <typename KeyT>
class Directory {
 public:
  struct Entry {
    resource::ResourceInfo info;
    double ordinal = 0;  ///< schema ordinal of info.value
    KeyT key{};          ///< DHT key the entry was placed under
    /// Soft-state reporting period the entry was advertised in.
    std::uint64_t epoch = 0;
    /// Record kind for systems that store one tuple under several keys
    /// (MAAN: 0 = value record, 1 = attribute record). Others leave it 0.
    std::uint8_t tag = 0;
    /// 0 = primary copy (lives on the key's owner and re-homes with it);
    /// 1..r-1 = replica copies placed on the owner's successors for crash
    /// resilience. Replicas stay where they were put and are rebuilt by the
    /// next soft-state epoch.
    std::uint8_t replica = 0;
  };

  /// An entry's place in the run's order, kept apart from the payload.
  struct SearchKey {
    AttrId attr = 0;
    double ordinal = 0;
  };

  Directory() = default;
  // The merge guard makes directories address-stable; the store holds each
  // one behind a unique_ptr and never copies or moves it.
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  // Dropping a whole directory (node crash, TakeAll re-homing through the
  // store) must surrender its entries' estimator counts too.
  ~Directory() {
    if (est_ == nullptr) return;
    for (const Entry& e : sorted_) est_->Remove(e.info.attr, e.ordinal);
    for (const Entry& e : pending_) est_->Remove(e.info.attr, e.ordinal);
  }

  /// Attaches the planner's selectivity estimator; every insert/erase from
  /// now on is mirrored into its per-attribute histograms. Pass nullptr to
  /// detach. Never touched on the query path.
  void SetEstimator(SelectivityEstimator* est) { est_ = est; }

  void Insert(Entry e) {
    if (est_ != nullptr) est_->Add(e.info.attr, e.ordinal);
    pending_.push_back(std::move(e));
    size_.fetch_add(1, std::memory_order_relaxed);
    dirty_.store(true, std::memory_order_release);
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// All entries for `attr` whose ordinal lies in [lo, hi].
  template <typename Fn>
  void ForEachMatch(AttrId attr, double lo, double hi, Fn&& fn) const {
    MergePending();
    if ((present_ & PresenceBit(attr)) == 0) return;
    const SearchKey* const keys = keys_.data();
    const std::size_t n = keys_.size();
    std::size_t i = static_cast<std::size_t>(
        std::partition_point(keys, keys + n,
                             [attr, lo](const SearchKey& k) {
                               return k.attr < attr ||
                                      (k.attr == attr && k.ordinal < lo);
                             }) -
        keys);
    for (; i < n && keys[i].attr == attr && keys[i].ordinal <= hi; ++i) {
      fn(sorted_[i]);
    }
  }

  /// Removes and returns every entry satisfying `pred(entry)`.
  template <typename Pred>
  std::vector<Entry> TakeIf(Pred&& pred) {
    std::vector<Entry> out;
    EraseIfImpl(pred, &out);
    return out;
  }

  std::vector<Entry> TakeAll() {
    return TakeIf([](const Entry&) { return true; });
  }

  /// In-place variant of TakeIf for call sites that only need the removal
  /// count (soft-state expiry, twin reconciliation): nothing is moved into
  /// a result vector.
  template <typename Pred>
  std::size_t EraseIf(Pred&& pred) {
    return EraseIfImpl(pred, nullptr);
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    MergePending();
    for (const Entry& e : sorted_) fn(e);
  }

  /// Bytes the run, the insert buffer and the key array reserve.
  std::size_t MemoryBytes() const {
    std::lock_guard<std::mutex> lock(merge_mu_);
    return (sorted_.capacity() + pending_.capacity()) * sizeof(Entry) +
           keys_.capacity() * sizeof(SearchKey);
  }

 private:
  static std::uint64_t PresenceBit(AttrId attr) {
    return std::uint64_t{1} << (attr % 64);
  }

  /// Sort key of the run: (attr, ordinal); insertion order breaks ties.
  static bool Precedes(const Entry& x, const Entry& y) {
    return x.info.attr != y.info.attr ? x.info.attr < y.info.attr
                                      : x.ordinal < y.ordinal;
  }

  /// Folds the insert buffer into the sorted run, its keys and the
  /// presence word. Safe to call from concurrent readers; in the merged
  /// steady state it costs a single atomic load.
  void MergePending() const {
    if (!dirty_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(merge_mu_);
    if (!dirty_.load(std::memory_order_relaxed)) return;
    // A stable sort + merging older-before-newer preserves insertion order
    // among equal keys (pending entries all post-date sorted ones).
    SortPending();
    for (const Entry& e : pending_) present_ |= PresenceBit(e.info.attr);
    std::size_t moved = 0;  // run positions before it kept their entry
    if (sorted_.empty()) {
      sorted_.swap(pending_);  // the sorted buffer is the whole run
    } else {
      moved = MergeFromBack();
      keys_.reserve(sorted_.capacity());
    }
    keys_.resize(sorted_.size());
    for (std::size_t i = moved; i < sorted_.size(); ++i) {
      keys_[i] = {sorted_[i].info.attr, sorted_[i].ordinal};
    }
    pending_.clear();
    dirty_.store(false, std::memory_order_release);
  }

  /// Stable sort of the insert buffer. A small buffer (an Advertise
  /// between queries) sorts by insertion, which needs no temporary buffer.
  void SortPending() const {
    constexpr std::size_t kInsertionSortMax = 16;
    if (pending_.size() > kInsertionSortMax) {
      std::stable_sort(pending_.begin(), pending_.end(), Precedes);
      return;
    }
    for (std::size_t i = 1; i < pending_.size(); ++i) {
      const Entry e = pending_[i];
      std::size_t j = i;
      for (; j > 0 && Precedes(e, pending_[j - 1]); --j) {
        pending_[j] = pending_[j - 1];
      }
      pending_[j] = e;
    }
  }

  /// Merges the sorted buffer into the non-empty run from the back: a
  /// buffer entry lands after run entries of an equal key. Returns the
  /// first run position whose entry changed.
  std::size_t MergeFromBack() const {
    std::size_t i = sorted_.size();
    std::size_t j = pending_.size();
    sorted_.resize(i + j);
    std::size_t k = sorted_.size();
    while (j > 0) {
      if (i > 0 && Precedes(pending_[j - 1], sorted_[i - 1])) {
        sorted_[--k] = sorted_[--i];
      } else {
        sorted_[--k] = pending_[--j];
      }
    }
    return k;
  }

  template <typename Pred>
  std::size_t EraseIfImpl(Pred& pred, std::vector<Entry>* out) {
    MergePending();
    std::size_t removed = 0;
    std::uint64_t present = 0;
    std::size_t dst = 0;
    for (std::size_t src = 0; src < sorted_.size(); ++src) {
      const Entry& e = sorted_[src];
      if (pred(e)) {
        if (est_ != nullptr) est_->Remove(e.info.attr, e.ordinal);
        if (out != nullptr) out->push_back(e);
        ++removed;
      } else {
        present |= PresenceBit(e.info.attr);
        if (dst != src) {
          sorted_[dst] = e;
          keys_[dst] = keys_[src];
        }
        ++dst;
      }
    }
    sorted_.resize(dst);
    keys_.resize(dst);
    present_ = present;
    size_.fetch_sub(removed, std::memory_order_relaxed);
    return removed;
  }

  // Mutable plus the guard pair so the lazy merge can run under const
  // reads. What a probe reads comes first: an absent attribute only the
  // flag and the presence word, a search the keys, a match the run.
  mutable std::atomic<bool> dirty_{false};
  /// Bit attr % 64 set for every attribute in sorted_.
  mutable std::uint64_t present_ = 0;
  mutable std::vector<SearchKey> keys_;  ///< keys_[i] is sorted_[i]'s key
  mutable std::vector<Entry> sorted_;    ///< by (attr, ordinal, insertion)
  /// Relaxed atomic: size()/TotalEntries() are read by parallel replay
  /// workers while another worker's first read after an insert batch runs
  /// MergePending; the count itself only changes under the single-writer
  /// phases, but the read must still be well-defined.
  std::atomic<std::size_t> size_{0};
  mutable std::vector<Entry> pending_;  ///< inserts since the last merge
  mutable std::mutex merge_mu_;
  /// Optional planner hook; owned by the service, outlives the store.
  SelectivityEstimator* est_ = nullptr;
};

static_assert(sizeof(Directory<std::uint64_t>::Entry) == 64);
static_assert(sizeof(Directory<std::uint64_t>::SearchKey) == 16);

/// Node address -> directory, plus the bookkeeping shared by all five
/// systems. An owner is never kNoNode, the index's empty-slot sentinel.
template <typename KeyT>
class DirectoryStore {
 public:
  using Dir = Directory<KeyT>;
  using Entry = typename Dir::Entry;

  const Dir* Find(NodeAddr owner) const {
    const std::uint32_t i = index_.Find(owner);
    return i == AddrIndexMap::kAbsent ? nullptr : dirs_[i].dir.get();
  }

  void Insert(NodeAddr owner, Entry e) {
    GetOrCreate(owner).Insert(std::move(e));
  }

  /// Attaches the estimator to every existing directory and to every one
  /// created from now on.
  void SetEstimator(SelectivityEstimator* est) {
    est_ = est;
    for (Slot& s : dirs_) s.dir->SetEstimator(est);
  }

  /// Empties and destroys `owner`'s directory, returning its entries.
  std::vector<Entry> TakeAll(NodeAddr owner) {
    const std::uint32_t i = index_.Find(owner);
    if (i == AddrIndexMap::kAbsent) return {};
    auto out = dirs_[i].dir->TakeAll();
    Erase(i);
    return out;
  }

  template <typename Pred>
  std::vector<Entry> TakeIf(NodeAddr owner, Pred&& pred) {
    Dir* d = FindMutable(owner);
    if (d == nullptr) return {};
    return d->TakeIf(std::forward<Pred>(pred));
  }

  /// Count-only variant of TakeIf(owner, pred).
  template <typename Pred>
  std::size_t EraseIf(NodeAddr owner, Pred&& pred) {
    Dir* d = FindMutable(owner);
    if (d == nullptr) return 0;
    return d->EraseIf(std::forward<Pred>(pred));
  }

  void Drop(NodeAddr owner) {
    const std::uint32_t i = index_.Find(owner);
    if (i != AddrIndexMap::kAbsent) Erase(i);
  }

  std::size_t SizeAt(NodeAddr owner) const {
    const Dir* d = Find(owner);
    return d ? d->size() : 0;
  }

  std::size_t TotalEntries() const {
    std::size_t total = 0;
    for (const Slot& s : dirs_) total += s.dir->size();
    return total;
  }

  /// Soft-state expiry: drops entries advertised before `cutoff`.
  std::size_t ExpireBefore(std::uint64_t cutoff) {
    std::size_t n = 0;
    for (Slot& s : dirs_) {
      n += s.dir->EraseIf(
          [cutoff](const Entry& e) { return e.epoch < cutoff; });
    }
    return n;
  }

  /// Every directory's object and MemoryBytes, plus the owner index and
  /// its slots.
  std::size_t MemoryBytes() const {
    std::size_t total =
        index_.MemoryBytes() + dirs_.capacity() * sizeof(Slot);
    for (const Slot& s : dirs_) total += sizeof(Dir) + s.dir->MemoryBytes();
    return total;
  }

 private:
  struct Slot {
    NodeAddr owner = kNoNode;
    std::unique_ptr<Dir> dir;
  };

  Dir* FindMutable(NodeAddr owner) {
    return const_cast<Dir*>(std::as_const(*this).Find(owner));
  }

  Dir& GetOrCreate(NodeAddr owner) {
    const std::uint32_t i = index_.Find(owner);
    if (i != AddrIndexMap::kAbsent) return *dirs_[i].dir;
    index_.Put(owner, static_cast<std::uint32_t>(dirs_.size()));
    dirs_.push_back({owner, std::make_unique<Dir>()});
    Dir& d = *dirs_.back().dir;
    if (est_ != nullptr) d.SetEstimator(est_);
    return d;
  }

  /// Destroys dirs_[i]; the last directory moves into its place.
  void Erase(std::uint32_t i) {
    index_.Erase(dirs_[i].owner);
    if (i + 1 != dirs_.size()) {
      dirs_[i] = std::move(dirs_.back());
      index_.Put(dirs_[i].owner, i);
    }
    dirs_.pop_back();
  }

  AddrIndexMap index_;  ///< owner -> position in dirs_
  std::vector<Slot> dirs_;
  SelectivityEstimator* est_ = nullptr;
};

}  // namespace lorm::discovery
