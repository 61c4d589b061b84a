// Concurrency regression for the directory layer: parallel replay workers
// read directories (ForEachMatch triggers the lazy MergePending) while other
// workers poll size()/TotalEntries(). Run under ThreadSanitizer in CI, this
// pins the atomic size_ fix, the merge guard and the presence word the merge
// publishes.
#include "discovery/directory.hpp"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "discovery/visit_counter.hpp"

namespace lorm::discovery {
namespace {

using Dir = Directory<std::uint64_t>;

Dir::Entry MakeEntry(AttrId attr, double ordinal, NodeAddr provider) {
  Dir::Entry e;
  e.info.attr = attr;
  e.info.provider = provider;
  e.ordinal = ordinal;
  e.key = static_cast<std::uint64_t>(ordinal);
  return e;
}

TEST(DirectoryConcurrency, ParallelMatchAndSizeReads) {
  constexpr int kAttrs = 4;
  constexpr int kEntriesPerAttr = 256;
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;

  Dir dir;
  for (int a = 0; a < kAttrs; ++a) {
    for (int i = 0; i < kEntriesPerAttr; ++i) {
      dir.Insert(MakeEntry(static_cast<AttrId>(a), static_cast<double>(i),
                           static_cast<NodeAddr>(i)));
    }
  }
  // Leave the insert buffer unmerged: the first concurrent reader below
  // races to run MergePending while the others read size().
  const std::size_t expected_size = kAttrs * kEntriesPerAttr;

  std::atomic<std::uint64_t> total_matches{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t matches = 0;
      for (int r = 0; r < kRounds; ++r) {
        const auto attr = static_cast<AttrId>((t + r) % kAttrs);
        dir.ForEachMatch(attr, 64.0, 191.0,
                         [&](const Dir::Entry& e) {
                           matches += e.ordinal >= 64.0 && e.ordinal <= 191.0;
                         });
        if (dir.size() != expected_size || dir.empty()) failed.store(true);
      }
      total_matches.fetch_add(matches);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(failed.load());
  // 128 in-range ordinals per (thread, round) scan.
  EXPECT_EQ(total_matches.load(),
            static_cast<std::uint64_t>(kThreads) * kRounds * 128u);
  EXPECT_EQ(dir.size(), expected_size);
}

TEST(DirectoryConcurrency, MergedSteadyStateReadsStayConsistent) {
  // Alternating single-writer insert phases and parallel read phases — the
  // pattern the replay engine actually produces (builds are sequential,
  // queries are parallel).
  Dir dir;
  std::size_t inserted = 0;
  for (int phase = 0; phase < 10; ++phase) {
    for (int i = 0; i < 64; ++i) {
      dir.Insert(MakeEntry(0, static_cast<double>(i), 1));
      ++inserted;
    }
    std::atomic<std::uint64_t> seen{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&] {
        std::uint64_t n = 0;
        dir.ForEachMatch(0, 0.0, 1e9, [&](const Dir::Entry&) { ++n; });
        seen.fetch_add(n);
      });
    }
    for (auto& th : readers) th.join();
    EXPECT_EQ(seen.load(), 4u * inserted);
    EXPECT_EQ(dir.size(), inserted);
  }
}

TEST(DirectoryConcurrency, StoreReadersRaceOnFirstMerge) {
  // Every directory holds attributes 0 and 5. Attribute 64 is absent but
  // shares attribute 0's presence bit; attribute 1 is absent with its bit
  // clear. No directory has been read, so the first readers of each race
  // on the merge that publishes both its sorted run and its presence word.
  constexpr NodeAddr kOwners = 16;
  constexpr int kEntriesPerAttr = 64;
  constexpr int kThreads = 8;
  DirectoryStore<std::uint64_t> store;
  for (NodeAddr owner = 0; owner < kOwners; ++owner) {
    for (int i = 0; i < kEntriesPerAttr; ++i) {
      store.Insert(owner, MakeEntry(0, static_cast<double>(i), owner));
      store.Insert(owner, MakeEntry(5, static_cast<double>(i), owner));
    }
  }

  constexpr AttrId kAttrs[] = {0, 5, 64, 1};
  std::atomic<std::uint64_t> present_matches{0};
  std::atomic<std::uint64_t> absent_matches{0};
  std::atomic<bool> missing{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (NodeAddr k = 0; k < kOwners; ++k) {
        // Threads start on different owners and meet on every directory.
        const NodeAddr owner = (k + static_cast<NodeAddr>(t)) % kOwners;
        const auto* dir = store.Find(owner);
        if (dir == nullptr || store.Find(kOwners + owner) != nullptr) {
          missing.store(true);
          continue;
        }
        for (const AttrId attr : kAttrs) {
          std::uint64_t n = 0;
          dir->ForEachMatch(attr, 16.0, 47.0, [&](const auto& e) {
            n += e.info.attr == attr && e.info.provider == owner;
          });
          (attr == 0 || attr == 5 ? present_matches : absent_matches)
              .fetch_add(n);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(missing.load());
  // 32 in-range ordinals per (thread, owner, present attribute).
  EXPECT_EQ(present_matches.load(),
            std::uint64_t{kThreads} * kOwners * 2 * 32);
  EXPECT_EQ(absent_matches.load(), 0u);
  EXPECT_EQ(store.TotalEntries(), std::size_t{kOwners} * 2 * kEntriesPerAttr);
}

TEST(VisitCounterConcurrency, ShardedRecordsSumExactly) {
  VisitCounter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Record(static_cast<NodeAddr>((t * kPerThread + i) % 16));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t total = 0;
  for (NodeAddr a = 0; a < 16; ++a) total += counter.CountOf(a);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace lorm::discovery
