// Resource-model tests: values, schemas, queries, workloads, machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "resource/machine.hpp"
#include "resource/query.hpp"
#include "resource/workload.hpp"

namespace lorm::resource {
namespace {

TEST(AttrValueTest, NumericOrderingAndEquality) {
  const auto a = AttrValue::Number(1.5);
  const auto b = AttrValue::Number(2.0);
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a <= a);
  EXPECT_EQ(a, AttrValue::Number(1.5));
  EXPECT_NE(a, b);
  EXPECT_THROW(a.text(), InvariantError);
}

TEST(AttrValueTest, TextOrderingIsLexicographic) {
  const auto linux = AttrValue::Text("Linux");
  const auto windows = AttrValue::Text("Windows");
  EXPECT_TRUE(linux < windows);
  EXPECT_EQ(linux.text(), "Linux");
  EXPECT_THROW(linux.num(), InvariantError);
  EXPECT_THROW((void)(linux < AttrValue::Number(1)), InvariantError);
  EXPECT_FALSE(linux == AttrValue::Number(1));  // different kinds: not equal
}

TEST(AttrValueTest, TextsAreInterned) {
  const auto linux = AttrValue::Text("Linux");
  const std::string prefix = "Lin";
  const auto built = AttrValue::Text(prefix + "ux");
  EXPECT_EQ(&linux.text(), &built.text());
  EXPECT_EQ(linux, built);
  EXPECT_FALSE(linux < built);
  const AttrValue copy = built;
  EXPECT_EQ(&copy.text(), &linux.text());

  // Texts that share their first eight bytes order by the whole string.
  const auto x32 = AttrValue::Text("Linux-x86_32");
  const auto x64 = AttrValue::Text("Linux-x86_64");
  EXPECT_NE(&x32.text(), &x64.text());
  EXPECT_NE(x32, x64);
  EXPECT_TRUE(x32 < x64);
  EXPECT_FALSE(x64 < x32);
  EXPECT_TRUE(x32 <= x64);
  EXPECT_EQ(x64.ToString(), "Linux-x86_64");
  EXPECT_THROW(x64.num(), InvariantError);
}

TEST(AttrValueTest, ConcurrentInterningAgrees) {
  // Four threads intern the same 64 strings, each in its own order (an odd
  // stride over 64 slots visits every slot once).
  constexpr int kThreads = 4;
  constexpr int kStrings = 64;
  const auto text_of = [](int s) { return "concurrent-" + std::to_string(s); };
  std::vector<std::vector<const std::string*>> seen(
      kThreads, std::vector<const std::string*>(kStrings));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &text_of] {
      for (int i = 0; i < kStrings; ++i) {
        const int s = (i * (2 * t + 1) + 17 * t) % kStrings;
        seen[t][s] = &AttrValue::Text(text_of(s)).text();
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::set<const std::string*> distinct(seen[0].begin(), seen[0].end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kStrings));
  for (int s = 0; s < kStrings; ++s) {
    EXPECT_EQ(*seen[0][s], text_of(s));
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][s], seen[0][s]);
  }
}

TEST(AttributeSchemaTest, NumericOrdinals) {
  const auto s = AttributeSchema::Numeric("cpu", 500, 5000);
  EXPECT_DOUBLE_EQ(s.OrdinalOf(AttrValue::Number(1800)), 1800.0);
  EXPECT_DOUBLE_EQ(s.ordinal_min(), 500.0);
  EXPECT_DOUBLE_EQ(s.ordinal_max(), 5000.0);
  EXPECT_EQ(s.ValueAt(700).num(), 700.0);
  EXPECT_EQ(s.ValueAt(-5).num(), 500.0);  // clamped
  EXPECT_THROW(AttributeSchema::Numeric("bad", 2, 2), ConfigError);
}

TEST(AttributeSchemaTest, TextOrdinalsFollowSortedEnumeration) {
  const auto s = AttributeSchema::Text("os", {"Windows", "Linux", "AIX"});
  // Sorted: AIX=0, Linux=1, Windows=2.
  EXPECT_DOUBLE_EQ(s.OrdinalOf(AttrValue::Text("AIX")), 0.0);
  EXPECT_DOUBLE_EQ(s.OrdinalOf(AttrValue::Text("Linux")), 1.0);
  EXPECT_DOUBLE_EQ(s.OrdinalOf(AttrValue::Text("Windows")), 2.0);
  EXPECT_EQ(s.ValueAt(1.4).text(), "Linux");  // rounds to nearest
  EXPECT_THROW(s.OrdinalOf(AttrValue::Text("Plan9")), InvariantError);
  EXPECT_THROW(AttributeSchema::Text("empty", {}), ConfigError);
}

TEST(AttributeRegistryTest, RegisterFindGet) {
  AttributeRegistry reg;
  const AttrId cpu = reg.RegisterNumeric("cpu", 1, 10);
  const AttrId os = reg.RegisterText("os", {"Linux", "Windows"});
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.Find("cpu"), std::optional<AttrId>(cpu));
  EXPECT_EQ(reg.Find("os"), std::optional<AttrId>(os));
  EXPECT_EQ(reg.Find("nope"), std::nullopt);
  EXPECT_EQ(reg.Get(cpu).name(), "cpu");
  EXPECT_THROW(reg.RegisterNumeric("cpu", 0, 1), ConfigError);
  EXPECT_THROW(reg.Get(99), InvariantError);
}

TEST(ValueRangeTest, ContainmentAndFactories) {
  const auto r = ValueRange::Between(AttrValue::Number(2), AttrValue::Number(5));
  EXPECT_TRUE(r.Contains(AttrValue::Number(2)));
  EXPECT_TRUE(r.Contains(AttrValue::Number(5)));
  EXPECT_FALSE(r.Contains(AttrValue::Number(5.1)));
  EXPECT_FALSE(r.IsPoint());
  EXPECT_TRUE(ValueRange::Point(AttrValue::Number(3)).IsPoint());
  EXPECT_THROW(
      ValueRange::Between(AttrValue::Number(5), AttrValue::Number(2)),
      ConfigError);

  const auto s = AttributeSchema::Numeric("x", 0, 10);
  const auto at_least = ValueRange::AtLeast(s, AttrValue::Number(7));
  EXPECT_TRUE(at_least.Contains(AttrValue::Number(10)));
  EXPECT_FALSE(at_least.Contains(AttrValue::Number(6.9)));
  const auto at_most = ValueRange::AtMost(s, AttrValue::Number(3));
  EXPECT_TRUE(at_most.Contains(AttrValue::Number(0)));
  EXPECT_FALSE(at_most.Contains(AttrValue::Number(3.1)));
}

TEST(QueryBuilderTest, BuildsMultiAttributeQuery) {
  AttributeRegistry reg;
  RegisterGridSchema(reg);
  const MultiQuery q = QueryBuilder(reg, /*requester=*/7)
                           .AtLeast(kAttrCpuMhz, 1800)
                           .Between(kAttrMemMb, 2048, 8192)
                           .Equals(kAttrOs, "Linux")
                           .Build();
  EXPECT_EQ(q.requester, 7u);
  ASSERT_EQ(q.subs.size(), 3u);
  EXPECT_TRUE(q.IsRangeQuery());
  EXPECT_FALSE(q.subs[2].range.lo < q.subs[2].range.hi);
  EXPECT_THROW(QueryBuilder(reg, 1).Equals("bogus", 1.0), ConfigError);
  EXPECT_FALSE(q.ToString(reg).empty());
}

TEST(QueryTest, PointOnlyQueryIsNotRange) {
  AttributeRegistry reg;
  reg.RegisterNumeric("a", 0, 10);
  const MultiQuery q = QueryBuilder(reg, 1).Equals("a", 5.0).Build();
  EXPECT_FALSE(q.IsRangeQuery());
  EXPECT_TRUE(q.subs[0].Matches({0, AttrValue::Number(5.0), 9}));
  EXPECT_FALSE(q.subs[0].Matches({0, AttrValue::Number(5.5), 9}));
}

TEST(WorkloadTest, GeneratesPaperShapedInfos) {
  WorkloadConfig cfg;
  cfg.attributes = 10;
  cfg.infos_per_attribute = 20;
  const Workload w(cfg);
  EXPECT_EQ(w.registry().size(), 10u);

  Rng rng(1);
  const std::vector<NodeAddr> providers{1, 2, 3, 4, 5};
  const auto infos = w.GenerateInfos(providers, rng);
  ASSERT_EQ(infos.size(), 200u);
  std::vector<std::size_t> per_attr(10, 0);
  for (const auto& info : infos) {
    ++per_attr[info.attr];
    EXPECT_GE(info.value.num(), cfg.value_min);
    EXPECT_LE(info.value.num(), cfg.value_max);
    EXPECT_TRUE(std::count(providers.begin(), providers.end(), info.provider));
  }
  for (auto c : per_attr) EXPECT_EQ(c, 20u);  // k pieces per attribute
}

TEST(WorkloadTest, QueriesUseDistinctAttributes) {
  WorkloadConfig cfg;
  cfg.attributes = 10;
  const Workload w(cfg);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto q = w.MakePointQuery(5, 1, rng);
    EXPECT_EQ(q.subs.size(), 5u);
    std::set<AttrId> attrs;
    for (const auto& s : q.subs) {
      attrs.insert(s.attr);
      EXPECT_TRUE(s.IsPoint());
    }
    EXPECT_EQ(attrs.size(), 5u);
  }
  EXPECT_THROW(w.MakePointQuery(11, 1, rng), InvariantError);
  EXPECT_THROW(w.MakePointQuery(0, 1, rng), InvariantError);
}

TEST(WorkloadTest, RangeStylesProduceExpectedShapes) {
  WorkloadConfig cfg;
  const Workload w(cfg);
  Rng rng(3);
  OnlineStats widths;
  for (int i = 0; i < 2000; ++i) {
    const auto q = w.MakeRangeQuery(1, 1, RangeStyle::kBounded, rng);
    const auto& r = q.subs[0].range;
    EXPECT_LE(r.lo.num(), r.hi.num());
    widths.Add(r.hi.num() - r.lo.num());
  }
  // Width ~ U(0, domain/2): mean ~ domain/4 ~ 249.75.
  EXPECT_NEAR(widths.mean(), (cfg.value_max - cfg.value_min) / 4.0, 15.0);

  const auto low = w.MakeRangeQuery(1, 1, RangeStyle::kLowerBounded, rng);
  EXPECT_DOUBLE_EQ(low.subs[0].range.hi.num(), cfg.value_max);
  const auto up = w.MakeRangeQuery(1, 1, RangeStyle::kUpperBounded, rng);
  EXPECT_DOUBLE_EQ(up.subs[0].range.lo.num(), cfg.value_min);
  const auto full = w.MakeRangeQuery(1, 1, RangeStyle::kFullSpan, rng);
  EXPECT_DOUBLE_EQ(full.subs[0].range.lo.num(), cfg.value_min);
  EXPECT_DOUBLE_EQ(full.subs[0].range.hi.num(), cfg.value_max);
}

TEST(WorkloadTest, DeterministicGivenSeeds) {
  WorkloadConfig cfg;
  cfg.attributes = 5;
  cfg.infos_per_attribute = 10;
  const Workload w(cfg);
  Rng r1(9), r2(9);
  const auto a = w.GenerateInfos({1, 2, 3}, r1);
  const auto b = w.GenerateInfos({1, 2, 3}, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MachineTest, SchemaAndAdvertise) {
  AttributeRegistry reg;
  const auto ids = RegisterGridSchema(reg);
  EXPECT_EQ(ids.size(), 5u);
  Rng rng(5);
  const Machine m = RandomMachine(42, rng);
  EXPECT_EQ(m.addr, 42u);
  EXPECT_GE(m.cpu_mhz, 500.0);
  EXPECT_LE(m.cpu_mhz, 5000.0);
  const auto ads = m.Advertise(reg);
  ASSERT_EQ(ads.size(), 5u);
  for (const auto& ad : ads) EXPECT_EQ(ad.provider, 42u);
  EXPECT_FALSE(m.ToString().empty());
  EXPECT_FALSE(ads[0].ToString(reg).empty());
}

TEST(MachineTest, OsDistributionSkewsLinux) {
  AttributeRegistry reg;
  RegisterGridSchema(reg);
  Rng rng(6);
  int linux_count = 0;
  for (int i = 0; i < 1000; ++i) {
    if (RandomMachine(i, rng).os == "Linux") ++linux_count;
  }
  EXPECT_GT(linux_count, 600);
  EXPECT_LT(linux_count, 800);
}

TEST(WorkloadTest, ZipfAttributePopularitySkewsQueries) {
  WorkloadConfig cfg;
  cfg.attributes = 20;
  cfg.attr_zipf_exponent = 1.2;
  const Workload w(cfg);
  Rng rng(4);
  std::vector<int> hits(20, 0);
  for (int i = 0; i < 4000; ++i) {
    const auto q = w.MakePointQuery(1, 1, rng);
    ++hits[q.subs[0].attr];
  }
  // Rank-1 attribute dominates; the tail is still reachable.
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[0], 4000 / 5);
  EXPECT_GT(hits[19], 0);

  // Attributes within one query stay distinct even under heavy skew.
  for (int i = 0; i < 200; ++i) {
    const auto q = w.MakePointQuery(5, 1, rng);
    std::set<AttrId> attrs;
    for (const auto& sub : q.subs) attrs.insert(sub.attr);
    EXPECT_EQ(attrs.size(), 5u);
  }
}

TEST(WorkloadTest, ZeroExponentIsUniform) {
  WorkloadConfig cfg;
  cfg.attributes = 10;
  cfg.attr_zipf_exponent = 0.0;
  const Workload w(cfg);
  Rng rng(5);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 5000; ++i) ++hits[w.MakePointQuery(1, 1, rng).subs[0].attr];
  for (int h : hits) {
    EXPECT_GT(h, 350);
    EXPECT_LT(h, 650);
  }
}

}  // namespace
}  // namespace lorm::resource
