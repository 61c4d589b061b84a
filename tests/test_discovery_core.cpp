// Discovery-core tests: per-node directories, the provider join and the
// successor walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chord/chord.hpp"
#include "common/random.hpp"
#include "discovery/directory.hpp"
#include "discovery/join.hpp"
#include "discovery/ring_walk.hpp"
#include "singlehop/singlehop.hpp"

namespace lorm::discovery {
namespace {

using resource::AttrValue;
using resource::ResourceInfo;

Directory<std::uint64_t>::Entry E(AttrId attr, double ordinal,
                                  NodeAddr provider, std::uint64_t key = 0) {
  Directory<std::uint64_t>::Entry e;
  e.info = ResourceInfo{attr, AttrValue::Number(ordinal), provider};
  e.ordinal = ordinal;
  e.key = key;
  return e;
}

TEST(DirectoryTest, InsertAndRangeMatch) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 1.0, 10));
  dir.Insert(E(0, 2.0, 11));
  dir.Insert(E(0, 3.0, 12));
  dir.Insert(E(1, 2.0, 13));  // other attribute, same ordinal
  EXPECT_EQ(dir.size(), 4u);

  std::vector<NodeAddr> hits;
  dir.ForEachMatch(0, 1.5, 3.0, [&](const auto& e) {
    hits.push_back(e.info.provider);
  });
  EXPECT_EQ(hits, (std::vector<NodeAddr>{11, 12}));

  hits.clear();
  dir.ForEachMatch(1, 0.0, 10.0, [&](const auto& e) {
    hits.push_back(e.info.provider);
  });
  EXPECT_EQ(hits, (std::vector<NodeAddr>{13}));
}

TEST(DirectoryTest, PointMatchIsInclusive) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 2.0, 11));
  int hits = 0;
  dir.ForEachMatch(0, 2.0, 2.0, [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 1);
  dir.ForEachMatch(0, 2.1, 2.2, [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(DirectoryTest, DuplicateValuesCoexist) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 2.0, 11));
  dir.Insert(E(0, 2.0, 12));
  dir.Insert(E(0, 2.0, 11));  // same provider re-advertises
  EXPECT_EQ(dir.size(), 3u);
  int hits = 0;
  dir.ForEachMatch(0, 2.0, 2.0, [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 3);
}

TEST(DirectoryTest, TakeIfRemovesAndReturns) {
  Directory<std::uint64_t> dir;
  dir.Insert(E(0, 1.0, 10, 100));
  dir.Insert(E(0, 2.0, 11, 200));
  dir.Insert(E(0, 3.0, 12, 300));
  const auto taken =
      dir.TakeIf([](const auto& e) { return e.key >= 200; });
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(dir.size(), 1u);
  const auto all = dir.TakeAll();
  EXPECT_EQ(all.size(), 1u);
  EXPECT_TRUE(dir.empty());
}

// The first read after inserts into an empty directory adopts the sorted
// insert buffer as the run: the directory then holds each entry once, in
// the buffer's capacity, beside an exactly sized key array, and later
// inserts still merge into that run.
TEST(DirectoryTest, FirstMergeAdoptsTheInsertBuffer) {
  using Dir = Directory<std::uint64_t>;
  Dir dir;
  std::vector<Dir::Entry> buffer;  // grown as the insert buffer is
  for (NodeAddr i = 0; i < 1000; ++i) {
    dir.Insert(E(i % 7, 1000.0 - i, i));
    buffer.push_back(E(i % 7, 1000.0 - i, i));
  }
  const std::size_t run_bytes = buffer.capacity() * sizeof(Dir::Entry);
  EXPECT_EQ(dir.MemoryBytes(), run_bytes);
  std::vector<NodeAddr> hits;
  dir.ForEachMatch(0, 0.0, 1000.0,
                   [&](const auto& e) { hits.push_back(e.info.provider); });
  ASSERT_EQ(hits.size(), 143u);  // providers 994, 987, ..., 0
  EXPECT_TRUE(std::is_sorted(hits.rbegin(), hits.rend()));
  EXPECT_EQ(dir.MemoryBytes(), run_bytes + 1000 * sizeof(Dir::SearchKey));

  dir.Insert(E(0, 1000.5, 2000));
  dir.Insert(E(0, 0.5, 2001));
  hits.clear();
  dir.ForEachMatch(0, 0.0, 2000.0,
                   [&](const auto& e) { hits.push_back(e.info.provider); });
  ASSERT_EQ(hits.size(), 145u);
  EXPECT_EQ(hits.front(), 2001u);
  EXPECT_EQ(hits.back(), 2000u);
  // That merge fit the run, and grew the key array to the run's capacity,
  // not past it; the insert buffer keeps its two slots.
  EXPECT_EQ(dir.MemoryBytes(),
            run_bytes + buffer.capacity() * sizeof(Dir::SearchKey) +
                2 * sizeof(Dir::Entry));
}

TEST(DirectoryStoreTest, MemoryBytesCoverEveryDirectory) {
  DirectoryStore<std::uint64_t> store;
  for (NodeAddr i = 0; i < 300; ++i) store.Insert(i % 3, E(0, i, i));
  const std::size_t before = store.MemoryBytes();
  std::size_t dirs = 0;
  for (NodeAddr owner = 0; owner < 3; ++owner) {
    const auto* dir = store.Find(owner);
    int hits = 0;
    dir->ForEachMatch(0, 0.0, 300.0, [&](const auto&) { ++hits; });
    EXPECT_EQ(hits, 100);
    dirs += dir->MemoryBytes();
  }
  // The merges copied no entry; each built a 100-key array.
  EXPECT_EQ(store.MemoryBytes(),
            before + 300 * sizeof(Directory<std::uint64_t>::SearchKey));
  EXPECT_GT(store.MemoryBytes(), dirs);
  store.Drop(1);
  EXPECT_LT(store.MemoryBytes(), before);
}

TEST(DirectoryStoreTest, PerOwnerBookkeeping) {
  DirectoryStore<std::uint64_t> store;
  store.Insert(1, E(0, 1.0, 10));
  store.Insert(1, E(0, 2.0, 11));
  store.Insert(2, E(0, 3.0, 12));
  EXPECT_EQ(store.SizeAt(1), 2u);
  EXPECT_EQ(store.SizeAt(2), 1u);
  EXPECT_EQ(store.SizeAt(99), 0u);
  EXPECT_EQ(store.TotalEntries(), 3u);
  ASSERT_NE(store.Find(1), nullptr);
  EXPECT_EQ(store.Find(99), nullptr);

  const auto moved = store.TakeAll(1);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(store.TotalEntries(), 1u);
}

TEST(DirectoryTest, IterationIsAttrOrdinalInsertionOrder) {
  // Interleaved attributes with repeated ordinals, in three insert batches
  // merged by three different reads. `key` numbers the inserts.
  const std::vector<std::pair<AttrId, double>> batches[] = {
      {{2, 5.0}, {0, 3.0}, {1, 5.0}, {0, 1.0}, {2, 5.0}, {0, 3.0}},
      {{1, 5.0}, {0, 3.0}, {2, 1.0}, {0, 2.0}, {2, 5.0}},
      {{0, 3.0}, {1, 0.5}, {2, 5.0}, {1, 5.0}}};
  Directory<std::uint64_t> dir;
  std::vector<Directory<std::uint64_t>::Entry> inserted;
  const auto insert_batch = [&](const auto& batch) {
    for (const auto& [attr, ordinal] : batch) {
      inserted.push_back(E(attr, ordinal, 10, inserted.size()));
      dir.Insert(inserted.back());
    }
  };
  // Reference order: a stable sort of the insert sequence.
  const auto expected_keys = [&] {
    auto ref = inserted;
    std::stable_sort(ref.begin(), ref.end(), [](const auto& x, const auto& y) {
      return std::pair(x.info.attr, x.ordinal) <
             std::pair(y.info.attr, y.ordinal);
    });
    std::vector<std::uint64_t> keys;
    for (const auto& e : ref) keys.push_back(e.key);
    return keys;
  };
  const auto keys_of = [](const auto& entries) {
    std::vector<std::uint64_t> keys;
    for (const auto& e : entries) keys.push_back(e.key);
    return keys;
  };

  insert_batch(batches[0]);
  dir.ForEachMatch(0, 0.0, 10.0, [](const auto&) {});  // first merge
  insert_batch(batches[1]);
  std::vector<Directory<std::uint64_t>::Entry> seen;
  dir.ForEach([&](const auto& e) { seen.push_back(e); });  // second merge
  EXPECT_EQ(keys_of(seen), expected_keys());

  insert_batch(batches[2]);
  EXPECT_EQ(keys_of(dir.TakeAll()), expected_keys());  // third merge
  EXPECT_TRUE(dir.empty());
}

TEST(DirectoryTest, PresenceWordAliasNeverChangesAnswer) {
  // Attributes 3 and 67 share presence bit 3; attribute 4's bit is clear.
  Directory<std::uint64_t> dir;
  const auto providers = [&](AttrId attr) {
    std::vector<NodeAddr> out;
    dir.ForEachMatch(attr, 0.0, 10.0,
                     [&](const auto& e) { out.push_back(e.info.provider); });
    return out;
  };
  dir.Insert(E(67, 1.0, 10));
  dir.Insert(E(67, 2.0, 11));
  EXPECT_TRUE(providers(3).empty());
  EXPECT_EQ(providers(67), (std::vector<NodeAddr>{10, 11}));
  EXPECT_TRUE(providers(4).empty());

  dir.Insert(E(3, 1.5, 12));
  EXPECT_EQ(providers(3), (std::vector<NodeAddr>{12}));
  EXPECT_EQ(providers(67), (std::vector<NodeAddr>{10, 11}));

  EXPECT_EQ(dir.EraseIf([](const auto& e) { return e.info.attr == 67; }), 2u);
  EXPECT_TRUE(providers(67).empty());
  EXPECT_EQ(providers(3), (std::vector<NodeAddr>{12}));
  EXPECT_EQ(dir.EraseIf([](const auto& e) { return e.info.provider == 12; }),
            1u);
  EXPECT_TRUE(providers(3).empty());
}

// Insert batches on both sides of the insertion-sort cutoff (16), range
// matches, erasures and takes, checked against a stable sort of the live
// entries: the merge from the back and the key array must keep every
// answer in (attr, ordinal, insertion) order.
TEST(DirectoryTest, MatchesAStableSortUnderMixedOps) {
  using Dir = Directory<std::uint64_t>;
  Dir dir;
  std::vector<Dir::Entry> live;  // insertion order; `key` numbers inserts
  std::uint64_t inserts = 0;
  const auto sorted_keys = [](std::vector<Dir::Entry> entries) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto& x, const auto& y) {
                       return std::pair(x.info.attr, x.ordinal) <
                              std::pair(y.info.attr, y.ordinal);
                     });
    std::vector<std::uint64_t> keys;
    for (const auto& e : entries) keys.push_back(e.key);
    return keys;
  };
  const auto take_from_live = [&](auto pred) {
    std::vector<Dir::Entry> taken;
    std::erase_if(live, [&](const Dir::Entry& e) {
      if (!pred(e)) return false;
      taken.push_back(e);
      return true;
    });
    return taken;
  };
  Rng rng(41);
  for (int step = 0; step < 600; ++step) {
    const std::uint64_t op = rng.NextBelow(6);
    if (op < 2) {
      const std::uint64_t n = 1 + rng.NextBelow(40);
      for (std::uint64_t i = 0; i < n; ++i) {
        live.push_back(E(static_cast<AttrId>(rng.NextBelow(5)),
                         static_cast<double>(rng.NextBelow(21)), 10,
                         inserts++));
        dir.Insert(live.back());
      }
    } else if (op == 2) {
      const std::uint64_t r = rng.NextBelow(7);
      const auto pred = [r](const auto& e) { return e.key % 7 == r; };
      if (rng.NextBelow(2) == 0) {
        EXPECT_EQ(dir.EraseIf(pred), take_from_live(pred).size());
      } else {
        std::vector<std::uint64_t> got;
        for (const auto& e : dir.TakeIf(pred)) got.push_back(e.key);
        EXPECT_EQ(got, sorted_keys(take_from_live(pred)));
      }
    } else {
      const auto attr = static_cast<AttrId>(rng.NextBelow(5));
      const auto lo = static_cast<double>(rng.NextBelow(21));
      const double hi = lo + static_cast<double>(rng.NextBelow(8));
      std::vector<std::uint64_t> got;
      dir.ForEachMatch(attr, lo, hi,
                       [&](const auto& e) { got.push_back(e.key); });
      std::vector<Dir::Entry> want;
      for (const auto& e : live) {
        if (e.info.attr == attr && e.ordinal >= lo && e.ordinal <= hi) {
          want.push_back(e);
        }
      }
      ASSERT_EQ(got, sorted_keys(want)) << "step " << step;
    }
    ASSERT_EQ(dir.size(), live.size());
  }
  std::vector<std::uint64_t> all;
  dir.ForEach([&](const auto& e) { all.push_back(e.key); });
  EXPECT_EQ(all, sorted_keys(live));
}

TEST(DirectoryStoreTest, DropAndTakeAllLeaveOtherDirectoriesInPlace) {
  using Store = DirectoryStore<std::uint64_t>;
  Store store;
  for (NodeAddr owner = 1; owner <= 8; ++owner) {
    for (NodeAddr i = 0; i < owner; ++i) {
      store.Insert(owner, E(i % 3, static_cast<double>(i), owner * 100 + i));
    }
  }
  const auto contents = [&](NodeAddr owner) {
    std::vector<NodeAddr> out;
    store.Find(owner)->ForEach(
        [&](const auto& e) { out.push_back(e.info.provider); });
    return out;
  };
  std::map<NodeAddr, const Store::Dir*> where;
  std::map<NodeAddr, std::vector<NodeAddr>> before;
  for (NodeAddr owner = 1; owner <= 8; ++owner) {
    where[owner] = store.Find(owner);
    before[owner] = contents(owner);
  }

  // The first, a middle and the last directory go; others swap into place.
  store.Drop(1);
  EXPECT_EQ(store.TakeAll(5).size(), 5u);
  store.Drop(8);
  store.Drop(99);
  for (NodeAddr owner = 1; owner <= 8; ++owner) {
    if (owner == 1 || owner == 5 || owner == 8) {
      EXPECT_EQ(store.Find(owner), nullptr) << owner;
      continue;
    }
    EXPECT_EQ(store.Find(owner), where[owner]) << owner;
    EXPECT_EQ(contents(owner), before[owner]) << owner;
  }
  EXPECT_EQ(store.TotalEntries(), 2u + 3u + 4u + 6u + 7u);

  store.Insert(1, E(0, 9.0, 42));
  EXPECT_EQ(store.SizeAt(1), 1u);
  EXPECT_EQ(contents(1), (std::vector<NodeAddr>{42}));
}

TEST(DirectoryStoreTest, EstimatorTotalsReturnToZero) {
  resource::AttributeRegistry registry;
  for (int a = 0; a < 3; ++a) {
    registry.RegisterNumeric("attr" + std::to_string(a), 0.0, 10.0);
  }
  SelectivityEstimator est;
  est.Configure(registry);
  {
    DirectoryStore<std::uint64_t> store;
    store.SetEstimator(&est);
    for (NodeAddr owner = 1; owner <= 3; ++owner) {
      for (int i = 0; i < 4; ++i) {
        store.Insert(owner, E(static_cast<AttrId>(i % 3), i, owner));
      }
    }
    EXPECT_EQ(est.TotalCount(), 12u);
    store.Drop(1);
    EXPECT_EQ(est.TotalCount(), 8u);
    EXPECT_EQ(store.TakeAll(2).size(), 4u);
    EXPECT_EQ(est.TotalCount(), 4u);
    store.Insert(3, E(2, 5.0, 3));  // left unmerged for the destructor
    EXPECT_EQ(est.TotalCount(), 5u);
  }
  EXPECT_EQ(est.TotalCount(), 0u);
  for (AttrId a = 0; a < 3; ++a) EXPECT_EQ(est.CountOf(a), 0u) << a;
}

TEST(JoinTest, IntersectsProviderSets) {
  using V = std::vector<ResourceInfo>;
  const V a{{0, AttrValue::Number(1), 10},
            {0, AttrValue::Number(2), 11},
            {0, AttrValue::Number(3), 12}};
  const V b{{1, AttrValue::Number(1), 11},
            {1, AttrValue::Number(2), 12},
            {1, AttrValue::Number(9), 13}};
  const V c{{2, AttrValue::Number(1), 12},
            {2, AttrValue::Number(1), 11}};
  EXPECT_EQ(JoinProviders({a, b, c}), (std::vector<NodeAddr>{11, 12}));
}

TEST(JoinTest, DuplicateProvidersCountOnce) {
  using V = std::vector<ResourceInfo>;
  const V a{{0, AttrValue::Number(1), 10}, {0, AttrValue::Number(2), 10}};
  const V b{{1, AttrValue::Number(1), 10}};
  EXPECT_EQ(JoinProviders({a, b}), (std::vector<NodeAddr>{10}));
}

TEST(JoinTest, EmptySubResultYieldsEmptyJoin) {
  using V = std::vector<ResourceInfo>;
  const V a{{0, AttrValue::Number(1), 10}};
  const V none{};
  EXPECT_TRUE(JoinProviders({a, none}).empty());
  EXPECT_TRUE(JoinProviders({}).empty());
  EXPECT_EQ(JoinProviders({a}), (std::vector<NodeAddr>{10}));
}

TEST(DedupTest, RemovesExactDuplicatesOnly) {
  using V = std::vector<ResourceInfo>;
  V matches{{0, AttrValue::Number(1), 10},
            {0, AttrValue::Number(1), 10},   // replica duplicate
            {0, AttrValue::Number(1), 11},   // same value, other provider
            {0, AttrValue::Number(2), 10},   // same provider, other value
            {1, AttrValue::Number(1), 10}};  // other attribute
  DedupMatches(matches);
  EXPECT_EQ(matches.size(), 4u);
}

TEST(DedupTest, EmptyAndSingleton) {
  std::vector<ResourceInfo> none;
  DedupMatches(none);
  EXPECT_TRUE(none.empty());
  std::vector<ResourceInfo> one{{0, AttrValue::Number(1), 10}};
  DedupMatches(one);
  EXPECT_EQ(one.size(), 1u);
}

// ---- Dedup and join against the plain algorithms --------------------------

/// The dedup as a whole-tuple sort: order by (attr, provider, value), then
/// drop equal neighbours.
std::vector<ResourceInfo> ReferenceDedup(std::vector<ResourceInfo> m) {
  std::sort(m.begin(), m.end(),
            [](const ResourceInfo& a, const ResourceInfo& b) {
              if (a.attr != b.attr) return a.attr < b.attr;
              if (a.provider != b.provider) return a.provider < b.provider;
              return a.value < b.value;
            });
  m.erase(std::unique(m.begin(), m.end()), m.end());
  return m;
}

/// The join as std::set_intersection over sorted, unique provider sets.
std::vector<NodeAddr> ReferenceJoin(
    const std::vector<std::vector<ResourceInfo>>& per_sub) {
  std::vector<NodeAddr> acc;
  for (std::size_t i = 0; i < per_sub.size(); ++i) {
    std::vector<NodeAddr> cur;
    for (const ResourceInfo& m : per_sub[i]) cur.push_back(m.provider);
    std::sort(cur.begin(), cur.end());
    cur.erase(std::unique(cur.begin(), cur.end()), cur.end());
    if (i == 0) {
      acc = cur;
      continue;
    }
    std::vector<NodeAddr> out;
    std::set_intersection(acc.begin(), acc.end(), cur.begin(), cur.end(),
                          std::back_inserter(out));
    acc = out;
  }
  return acc;
}

/// Random raw matches: `attrs` attributes (attribute 2 is text-valued), a
/// pool of six providers so ties are common, a few values per attribute
/// (-0.0 and +0.0 among the numbers, texts sharing their first eight bytes)
/// and repeated tuples.
std::vector<ResourceInfo> RandomMatches(Rng& rng, std::size_t attrs) {
  static const double kNumbers[] = {-2.5, -0.0, 0.0, 1.0, 1.5, -1e-300, 1e300};
  static const char* const kTexts[] = {"",          "AIX",
                                       "Linux",     "Linux-x86",
                                       "Linux-x86_64", "Linux-x86_32",
                                       "Windows"};
  std::vector<ResourceInfo> out(rng.NextBelow(201));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ResourceInfo& m = out[i];
    if (i > 0 && rng.NextBelow(5) == 0) {
      m = out[rng.NextBelow(i)];  // a repeated tuple
      continue;
    }
    m.attr = static_cast<AttrId>(rng.NextBelow(attrs));
    m.provider = static_cast<NodeAddr>(rng.NextBelow(6));
    m.value = m.attr == 2 ? AttrValue::Text(kTexts[rng.NextBelow(7)])
                          : AttrValue::Number(kNumbers[rng.NextBelow(7)]);
  }
  return out;
}

TEST(JoinReference, DedupMatchesTheWholeTupleSort) {
  Rng rng(0xDED0);
  std::vector<MatchKey> keys;
  std::size_t signed_zero_pairs = 0;
  for (int round = 0; round < 400; ++round) {
    const std::vector<ResourceInfo> raw =
        RandomMatches(rng, 1 + static_cast<std::size_t>(round % 3));
    const std::vector<ResourceInfo> want = ReferenceDedup(raw);
    SCOPED_TRACE(round);

    std::vector<ResourceInfo> in_place = raw;
    DedupMatches(in_place);
    EXPECT_EQ(in_place, want);

    std::vector<ResourceInfo> distinct;
    DedupMatches(raw, keys, distinct);  // keys reused across rounds
    EXPECT_EQ(distinct, want);
    EXPECT_EQ(distinct.capacity(), distinct.size());

    // -0.0 == +0.0: a key made of the raw bits would keep both.
    for (const ResourceInfo& a : raw) {
      for (const ResourceInfo& b : raw) {
        if (a.attr == b.attr && a.provider == b.provider &&
            a.value.kind() == resource::ValueKind::kNumeric &&
            b.value.kind() == resource::ValueKind::kNumeric &&
            a.value.num() == 0.0 && b.value.num() == 0.0 &&
            std::signbit(a.value.num()) && !std::signbit(b.value.num())) {
          ++signed_zero_pairs;
        }
      }
    }
  }
  EXPECT_GT(signed_zero_pairs, 0u);
}

TEST(JoinReference, JoinProvidersMatchesSetIntersection) {
  Rng rng(0x501);
  JoinScratch scratch;
  std::size_t non_empty = 0;
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE(round);
    std::vector<std::vector<ResourceInfo>> raw(rng.NextBelow(4));
    for (auto& sub : raw) sub = RandomMatches(rng, 1 + rng.NextBelow(3));
    std::vector<std::vector<ResourceInfo>> deduped;
    for (const auto& sub : raw) deduped.push_back(ReferenceDedup(sub));

    const std::vector<NodeAddr> want = ReferenceJoin(raw);
    if (!want.empty()) ++non_empty;
    // Raw lists are unsorted; deduplicated ones come in provider order.
    EXPECT_EQ(JoinProviders(raw), want);
    EXPECT_EQ(JoinProviders(raw, scratch), want);
    EXPECT_EQ(JoinProviders(deduped, scratch), want);
  }
  EXPECT_GT(non_empty, 100u);
}

TEST(JoinReference, IntersectSortedKeepsBothCapacities) {
  // The intersection is copied back into `acc` instead of swapping buffers,
  // so neither scratch buffer takes the other's capacity.
  std::vector<NodeAddr> acc{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<NodeAddr> tmp;
  tmp.reserve(2);
  const std::size_t acc_cap = acc.capacity();
  const NodeAddr* acc_data = acc.data();
  IntersectSorted(acc, {2, 4, 8, 9}, tmp);
  EXPECT_EQ(acc, (std::vector<NodeAddr>{2, 4, 8}));
  EXPECT_EQ(acc.capacity(), acc_cap);
  EXPECT_EQ(acc.data(), acc_data);
  EXPECT_EQ(tmp, acc);
}

// ---- Successor walks step by slot -----------------------------------------

/// The walk by address: IdOf for the coverage test, Successor for the next
/// node.
template <typename Ring>
std::vector<NodeAddr> ReferenceWalk(const Ring& ring, NodeAddr root,
                                    chord::Key key_lo, chord::Key key_hi) {
  const std::uint64_t mask = ring.space() - 1;
  const std::uint64_t target = (key_hi - key_lo) & mask;
  std::vector<NodeAddr> visits{root};
  for (NodeAddr cur = root;;) {
    if (((ring.IdOf(cur) - key_lo) & mask) >= target) break;
    cur = ring.Successor(cur);
    if (cur == root) break;
    visits.push_back(cur);
  }
  return visits;
}

/// Runs WalkSuccessors and the reference over random ranges (and the full
/// ring) from the owner of each range's low end; both must visit the same
/// nodes and bill the same dead links. Returns the dead links billed.
template <typename Ring>
std::uint64_t ExpectWalksMatchReference(const Ring& ring, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t dead_links = 0;
  for (int i = 0; i < 300; ++i) {
    chord::Key lo = rng.NextBelow(ring.space());
    chord::Key hi = lo + rng.NextBelow(ring.space() / 3);
    if (hi >= ring.space()) hi = ring.space() - 1;
    if (i == 0) {
      lo = 0;
      hi = ring.space() - 1;
    }
    const NodeAddr root = ring.OwnerOf(lo);
    SCOPED_TRACE(::testing::Message() << "walk [" << lo << ", " << hi << "]");

    const std::uint64_t d0 = ring.maintenance().dead_links_skipped;
    const std::vector<NodeAddr> want = ReferenceWalk(ring, root, lo, hi);
    const std::uint64_t d1 = ring.maintenance().dead_links_skipped;
    std::vector<NodeAddr> got;
    QueryStats stats;
    WalkSuccessors(ring, root, lo, hi, stats,
                   [&](NodeAddr a) { got.push_back(a); });
    const std::uint64_t d2 = ring.maintenance().dead_links_skipped;

    EXPECT_EQ(got, want);
    EXPECT_EQ(d2 - d1, d1 - d0);
    EXPECT_EQ(stats.visited_nodes, want.size());
    EXPECT_EQ(stats.walk_steps, want.size() - 1);
    dead_links += d2 - d1;
  }
  return dead_links;
}

TEST(WalkReference, FreshChordRing) {
  chord::Config cfg;
  cfg.bits = 12;
  const auto ring = chord::MakeRing(300, cfg, /*deterministic_ids=*/false);
  ASSERT_TRUE(ring.LinksFresh());
  EXPECT_EQ(ExpectWalksMatchReference(ring, 11), 0u);
}

TEST(WalkReference, ChordRingWithCrashedUnrepairedMembers) {
  chord::Config cfg;
  cfg.bits = 12;
  auto ring = chord::MakeRing(300, cfg, /*deterministic_ids=*/false);
  const std::vector<NodeAddr> members = ring.Members();  // id order
  // A run longer than the successor list (every listed successor of the
  // member before it dies, so the oracle answers) and scattered crashes.
  for (std::size_t i = 40; i < 40 + cfg.successor_list + 1; ++i) {
    ring.FailNode(members[i]);
  }
  for (std::size_t i = 100; i < members.size(); i += 23) {
    ring.FailNode(members[i]);
  }
  ASSERT_FALSE(ring.LinksFresh());
  EXPECT_GT(ExpectWalksMatchReference(ring, 12), 0u);
}

TEST(WalkReference, SingleHopRingWithStaleSuccessors) {
  singlehop::Config cfg;
  cfg.bits = 12;
  auto ring = chord::MakeRing<singlehop::SingleHopRing>(
      300, cfg, /*deterministic_ids=*/false);
  const std::vector<NodeAddr> members = ring.Members();
  for (std::size_t i = 5; i < members.size(); i += 17) {
    ring.FailNode(members[i]);
  }
  ASSERT_FALSE(ring.LinksFresh());
  EXPECT_GT(ExpectWalksMatchReference(ring, 13), 0u);
}

TEST(DirectoryTest, ExpireBeforeDropsOldEpochsOnly) {
  DirectoryStore<std::uint64_t> store;
  auto e0 = E(0, 1.0, 10);
  e0.epoch = 0;
  auto e1 = E(0, 2.0, 11);
  e1.epoch = 1;
  store.Insert(1, e0);
  store.Insert(1, e1);
  EXPECT_EQ(store.ExpireBefore(1), 1u);
  EXPECT_EQ(store.TotalEntries(), 1u);
  EXPECT_EQ(store.ExpireBefore(0), 0u);
}

}  // namespace
}  // namespace lorm::discovery
