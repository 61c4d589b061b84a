// The three workloads. Every input derives from the run's seed; op counts
// are fixed and never depend on elapsed time. README.md says why each
// workload exists and which layers it stresses.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/random.hpp"

namespace perfbench {
namespace {

using lorm::Rng;
using lorm::resource::MultiQuery;
using lorm::resource::RangeStyle;
using lorm::resource::ResourceInfo;

/// Tuples a joining node advertises (Fig. 6's churn model).
constexpr std::size_t kAdvertsPerJoin = 3;

Op QueryOp(MultiQuery q) {
  Op op;
  op.kind = OpKind::kQuery;
  op.query = std::move(q);
  return op;
}

ResourceInfo RandomTuple(const lorm::resource::Workload& w, NodeAddr provider,
                         Rng& rng) {
  ResourceInfo info;
  info.attr = static_cast<AttrId>(rng.NextBelow(w.registry().size()));
  info.value = w.SampleValue(info.attr, rng);
  info.provider = provider;
  return info;
}

Op JoinOp(const lorm::resource::Workload& w, NodeAddr node, Rng& rng) {
  Op op;
  op.kind = OpKind::kJoin;
  op.node = node;
  for (std::size_t i = 0; i < kAdvertsPerJoin; ++i) {
    op.infos.push_back(RandomTuple(w, node, rng));
  }
  return op;
}

Op LeaveOp(NodeAddr node) {
  Op op;
  op.kind = OpKind::kLeave;
  op.node = node;
  return op;
}

Op AdvertiseOp(ResourceInfo info) {
  Op op;
  op.kind = OpKind::kAdvertise;
  op.infos.push_back(std::move(info));
  return op;
}

/// Writes appended after the measured stream, so every workload times every
/// kind of write (they feed update_s and the membership layer metrics). A
/// leave comes before each join: the paper-scale and Quick Cycloids are full,
/// and would refuse it.
void AppendWriteTail(WorkloadSpec& w, Rng& rng) {
  const auto n = static_cast<NodeAddr>(w.setup.nodes);
  std::vector<NodeAddr> members(n);
  for (NodeAddr a = 0; a < n; ++a) members[a] = a;
  for (NodeAddr j = 0; j < 2; ++j) {
    const std::size_t k = rng.NextBelow(members.size());
    w.ops.push_back(LeaveOp(members[k]));
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(k));
    w.ops.push_back(JoinOp(*w.workload, n + j, rng));
    members.push_back(n + j);
    const NodeAddr provider = members[rng.NextBelow(members.size())];
    w.ops.push_back(AdvertiseOp(RandomTuple(*w.workload, provider, rng)));
  }
  Op maintain;
  maintain.kind = OpKind::kMaintain;
  w.ops.push_back(std::move(maintain));
}

}  // namespace

WorkloadSpec MakeWorkload(const std::string& name, std::uint64_t seed,
                          unsigned seconds) {
  WorkloadSpec w;
  // Rounds per 30 s of measuring (the time BENCHMARK.json asks for); each
  // round rebuilds the seeded state, so rounds x passes is the number of
  // replays behind every op's minimum. More rounds spread each op's replays
  // over more of the run, which is what steadies the minimum: the host's
  // speed drifts over seconds.
  std::size_t base_rounds = 0;
  if (name == "point") {
    w.setup = lorm::harness::Setup::Paper();
    base_rounds = 6;
    w.passes = 8;
  } else if (name == "range") {
    w.setup = lorm::harness::Setup::Quick();
    base_rounds = 22;
    w.passes = 3;
  } else if (name == "hotspot") {
    w.setup = lorm::harness::Setup::Quick();
    w.setup.cache = true;
    w.setup.plan = true;
    base_rounds = 115;
  } else {
    throw lorm::ConfigError("unknown workload '" + name + "'");
  }
  // --seconds scales the rounds; the op stream depends on the seed alone.
  w.rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(static_cast<double>(base_rounds) *
                                              seconds / 30.0)));

  std::uint64_t s = seed;
  w.setup.seed = lorm::SplitMix64(s);
  w.workload = std::make_unique<lorm::resource::Workload>(w.setup.MakeWorkloadConfig());
  Rng rng(seed);
  Rng info_rng = rng.Fork();
  Rng op_rng = rng.Fork();
  Rng tail_rng = rng.Fork();

  std::vector<NodeAddr> providers(w.setup.nodes);
  for (NodeAddr a = 0; a < w.setup.nodes; ++a) providers[a] = a;
  w.infos = w.workload->GenerateInfos(providers, info_rng);
  const auto requester = [&](Rng& r) {
    return static_cast<NodeAddr>(r.NextBelow(w.setup.nodes));
  };

  if (name == "point") {
    for (std::size_t i = 0; i < 4000; ++i) {
      w.ops.push_back(QueryOp(w.workload->MakePointQuery(3, requester(op_rng), op_rng)));
    }
  } else if (name == "range") {
    for (std::size_t i = 0; i < 2000; ++i) {
      w.ops.push_back(QueryOp(w.workload->MakeRangeQuery(
          2, requester(op_rng), RangeStyle::kBounded, op_rng)));
    }
  } else {
    // Zipf(1.0) over a fixed pool of 2-attribute bounded-range templates;
    // every 20th op advertises a fresh tuple, invalidating its attribute's
    // cached results. The pool comes from the cache_hotspot bench's seed, so
    // every run has the same hot templates; the run's seed picks the Zipf
    // draws, requesters and advertised tuples.
    constexpr std::size_t kTemplates = 64;
    Rng pool_rng(0xCAC4Eull);
    std::vector<std::vector<lorm::resource::SubQuery>> pool;
    for (std::size_t t = 0; t < kTemplates; ++t) {
      pool.push_back(
          w.workload->MakeRangeQuery(2, 0, RangeStyle::kBounded, pool_rng).subs);
    }
    const lorm::Zipf popularity(kTemplates, 1.0);
    for (std::size_t i = 0; i < 8000; ++i) {
      if (i % 20 == 19) {
        w.ops.push_back(AdvertiseOp(RandomTuple(*w.workload, requester(op_rng), op_rng)));
        continue;
      }
      MultiQuery q;
      q.subs = pool[popularity.Sample(op_rng) - 1];
      q.requester = requester(op_rng);
      w.ops.push_back(QueryOp(std::move(q)));
    }
  }
  for (const Op& op : w.ops) {
    if (op.kind == OpKind::kQuery) w.warm.push_back(op.query);
  }
  AppendWriteTail(w, tail_rng);
  if (name == "point" || name == "range") {
    w.read_prefix = w.warm.size();
  }
  return w;
}

}  // namespace perfbench
