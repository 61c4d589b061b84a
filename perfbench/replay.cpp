#include "replay.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "discovery/d1ht_service.hpp"
#include "discovery/join.hpp"
#include "discovery/lorm_service.hpp"
#include "discovery/maan_service.hpp"
#include "discovery/mercury_service.hpp"
#include "discovery/planner.hpp"
#include "discovery/ring_walk.hpp"
#include "discovery/sword_service.hpp"

namespace perfbench {
namespace {

namespace ld = lorm::discovery;
using lorm::NodeAddr;
using lorm::resource::ResourceInfo;
using lorm::resource::SubQuery;
using Matches = std::vector<ResourceInfo>;

// Each resolver mirrors one service's per-sub-query resolution: it times
// the routing lookups as `route` and the walk plus directory scans as
// `walk_scan`, and returns false when a lookup or walk failed. Spans are
// recorded only after the intervals they describe, so recording a span never
// lands inside a timed interval.

void AddRouteAndWalk(const SpanSink& sink, std::size_t idx,
                     Clock::time_point t0, Clock::time_point t1,
                     Clock::time_point t2) {
  sink.Add(SpanKind::kRoute, idx, t0, t1);
  sink.Add(SpanKind::kWalkScan, idx, t1, t2);
}

struct LormResolver {
  const ld::LormService& svc;

  bool operator()(const SubQuery& sub, double lo, double hi, NodeAddr from,
                  bool /*first*/, ld::QueryScratch& s, Matches& matches,
                  LayerSample& out, const SpanSink& sink,
                  std::size_t idx) const {
    const auto t0 = Clock::now();
    const auto key_lo = svc.KeyFor(sub.attr, sub.range.lo);
    const auto key_hi = svc.KeyFor(sub.attr, sub.range.hi);
    const auto& net = svc.overlay();
    net.LookupInto(key_lo, from, s.cycloid);
    out.lookups += 1;
    out.hops += s.cycloid.hops;
    const auto t1 = Clock::now();
    out.route_ns += NsSince(t0, t1);
    if (!s.cycloid.ok) {
      sink.Add(SpanKind::kRoute, idx, t0, t1);
      return false;
    }
    ld::ClusterWalkState walk;
    ld::QueryStats st;
    ld::ClusterWalkBegin(net, s.cycloid.owner, key_lo, key_hi, walk);
    do {
      out.visited += 1;
      if (const auto* dir = svc.directories().Find(walk.cur)) {
        dir->ForEachMatch(sub.attr, lo, hi,
                          [&](const auto& e) { matches.push_back(e.info); });
      }
    } while (ld::ClusterWalkAdvance(net, walk, st));
    const auto t2 = Clock::now();
    out.walk_scan_ns += NsSince(t1, t2);
    AddRouteAndWalk(sink, idx, t0, t1, t2);
    return !st.failed;
  }
};

/// Routes to the owner of key_lo on `ring`, then walks successors over
/// [key_lo, key_hi] keeping the entries `keep` accepts (Mercury, MAAN and
/// D1HT value walks).
template <typename Ring, typename Dirs, typename Keep>
bool RouteAndWalk(const Ring& ring, const Dirs& dirs, const SubQuery& sub,
                  lorm::chord::Key key_lo, lorm::chord::Key key_hi, double lo,
                  double hi, NodeAddr from, Clock::time_point t0,
                  ld::QueryScratch& s, Matches& matches, LayerSample& out,
                  const SpanSink& sink, std::size_t idx, Keep keep) {
  ring.LookupInto(key_lo, from, s.chord);
  out.lookups += 1;
  out.hops += s.chord.hops;
  const auto t1 = Clock::now();
  out.route_ns += NsSince(t0, t1);
  if (!s.chord.ok) {
    sink.Add(SpanKind::kRoute, idx, t0, t1);
    return false;
  }
  ld::SuccessorWalkState walk;
  ld::QueryStats st;
  ld::WalkBegin(ring, s.chord.owner, key_lo, key_hi, walk);
  do {
    out.visited += 1;
    if (const auto* dir = dirs.Find(walk.cur)) {
      dir->ForEachMatch(sub.attr, lo, hi, [&](const auto& e) {
        if (keep(e)) matches.push_back(e.info);
      });
    }
  } while (ld::WalkAdvance(ring, walk, st));
  const auto t2 = Clock::now();
  out.walk_scan_ns += NsSince(t1, t2);
  AddRouteAndWalk(sink, idx, t0, t1, t2);
  return true;
}

struct MercuryResolver {
  const ld::MercuryService& svc;

  bool operator()(const SubQuery& sub, double lo, double hi, NodeAddr from,
                  bool /*first*/, ld::QueryScratch& s, Matches& matches,
                  LayerSample& out, const SpanSink& sink,
                  std::size_t idx) const {
    const auto t0 = Clock::now();
    return RouteAndWalk(svc.hub(sub.attr), svc.directories(), sub,
                        svc.KeyFor(sub.attr, sub.range.lo),
                        svc.KeyFor(sub.attr, sub.range.hi), lo, hi, from, t0,
                        s, matches, out, sink, idx,
                        [](const auto&) { return true; });
  }
};

struct SwordResolver {
  const ld::SwordService& svc;

  bool operator()(const SubQuery& sub, double lo, double hi, NodeAddr from,
                  bool /*first*/, ld::QueryScratch& s, Matches& matches,
                  LayerSample& out, const SpanSink& sink,
                  std::size_t idx) const {
    const auto t0 = Clock::now();
    svc.overlay().LookupInto(svc.KeyFor(sub.attr), from, s.chord);
    out.lookups += 1;
    out.hops += s.chord.hops;
    const auto t1 = Clock::now();
    out.route_ns += NsSince(t0, t1);
    if (!s.chord.ok) {
      sink.Add(SpanKind::kRoute, idx, t0, t1);
      return false;
    }
    out.visited += 1;
    if (const auto* dir = svc.directories().Find(s.chord.owner)) {
      dir->ForEachMatch(sub.attr, lo, hi,
                        [&](const auto& e) { matches.push_back(e.info); });
    }
    const auto t2 = Clock::now();
    out.walk_scan_ns += NsSince(t1, t2);
    AddRouteAndWalk(sink, idx, t0, t1, t2);
    return true;
  }
};

/// MAAN and D1HT share placement and query code; only the ring differs.
template <typename Service>
struct DualPlacementResolver {
  const Service& svc;
  bool plan;

  bool operator()(const SubQuery& sub, double lo, double hi, NodeAddr from,
                  bool first, ld::QueryScratch& s, Matches& matches,
                  LayerSample& out, const SpanSink& sink,
                  std::size_t idx) const {
    const auto& ring = svc.overlay();
    const auto t0 = Clock::now();
    ring.LookupInto(svc.AttributeKeyFor(sub.attr), from, s.chord);
    out.lookups += 1;
    out.hops += s.chord.hops;
    if (plan && !first) {
      // Planned, dominated sub-query: the attribute root answers alone.
      const auto t1 = Clock::now();
      out.route_ns += NsSince(t0, t1);
      if (!s.chord.ok) {
        sink.Add(SpanKind::kRoute, idx, t0, t1);
        return false;
      }
      out.visited += 1;
      if (const auto* dir = svc.directories().Find(s.chord.owner)) {
        dir->ForEachMatch(sub.attr, lo, hi, [&](const auto& e) {
          if (e.tag == Service::kAttributeRecord) matches.push_back(e.info);
        });
      }
      const auto t2 = Clock::now();
      out.walk_scan_ns += NsSince(t1, t2);
      AddRouteAndWalk(sink, idx, t0, t1, t2);
      return true;
    }
    // Attribute root (checked, no value matches), then the value walk.
    bool ok = s.chord.ok;
    out.visited += ok ? 1 : 0;
    ok = RouteAndWalk(ring, svc.directories(), sub,
                      svc.ValueKeyFor(sub.attr, sub.range.lo),
                      svc.ValueKeyFor(sub.attr, sub.range.hi), lo, hi, from,
                      t0, s, matches, out, sink, idx, [](const auto& e) {
                        return e.tag == Service::kValueRecord;
                      }) && ok;
    return ok;
  }
};

template <typename Resolver>
void Replay(const Resolver& resolve, const ld::DiscoveryService& svc,
            const lorm::resource::AttributeRegistry& registry,
            const lorm::resource::MultiQuery& q, bool plan,
            lorm::cache::ResultCache* cache, ld::QueryScratch& s,
            const SpanSink& sink, LayerSample& out) {
  const std::size_t k = q.subs.size();
  ld::PlanScratch& ps = s.plan;
  ld::ComputeSubRanges(registry, q, ps);
  out.per_sub.resize(k);
  for (auto& m : out.per_sub) m.clear();
  out.providers.clear();

  const auto join_span = [&](std::size_t idx, Clock::time_point t0) {
    const auto t1 = Clock::now();
    out.join_ns += NsSince(t0, t1);
    sink.Add(SpanKind::kJoin, idx, t0, t1);
  };
  const auto drop_departed = [&]() {
    out.providers.erase(
        std::remove_if(out.providers.begin(), out.providers.end(),
                       [&](NodeAddr p) { return !svc.HasNode(p); }),
        out.providers.end());
  };

  if (!plan) {
    for (std::size_t i = 0; i < k; ++i) {
      Matches& m = out.per_sub[i];
      if (!resolve(q.subs[i], ps.lo[i], ps.hi[i], q.requester, i == 0, s, m,
                   out, sink, i)) {
        out.failed = true;
      }
      out.raw_matches += m.size();
      const auto t0 = Clock::now();
      ld::DedupMatches(m);
      join_span(i, t0);
    }
    const auto t0 = Clock::now();
    out.providers = ld::JoinProviders(out.per_sub);
    drop_departed();
    join_span(k, t0);
    return;
  }

  // Planned path (discovery/planner.hpp), with `cache` in place of the
  // service's result cache.
  if (cache != nullptr && k > 0) {
    ld::CanonicalSubKeys(q, ps);
    if (ld::JoinedCacheFetch(*cache, ps, k, out.per_sub, out.providers)) return;
  }
  ld::PlanOrder(resolve.svc.selectivity(), q, ps);
  ps.candidates.clear();
  bool pruned = false;
  bool first = true;
  for (std::size_t rank = 0; rank < k && !pruned; ++rank) {
    const std::uint32_t idx = ps.order[rank];
    const SubQuery& sub = q.subs[idx];
    Matches& m = out.per_sub[idx];
    if (cache == nullptr || !cache->Lookup(sub.attr, ps.lo[idx], ps.hi[idx], m)) {
      const bool ok = resolve(sub, ps.lo[idx], ps.hi[idx], q.requester, first,
                              s, m, out, sink, idx);
      out.failed = out.failed || !ok;
      out.raw_matches += m.size();
      const auto t0 = Clock::now();
      ld::DedupMatches(m);
      join_span(idx, t0);
      if (ok && cache != nullptr) cache->Store(sub.attr, ps.lo[idx], ps.hi[idx], m);
    }
    const auto t0 = Clock::now();
    ld::ProvidersOf(m, ps.providers);
    if (first) {
      ps.candidates = ps.providers;
      first = false;
    } else {
      ld::IntersectSorted(ps.candidates, ps.providers, ps.tmp);
    }
    pruned = ps.candidates.empty() && rank + 1 < k;
    join_span(idx, t0);
  }
  out.providers = ps.candidates;
  drop_departed();
  if (cache != nullptr && k > 0 && !out.failed && !pruned) {
    ld::JoinedCacheStore(*cache, ps, out.per_sub, out.providers);
  }
}

/// Calls `fn` with the resolver for `svc`'s concrete type; returns false
/// for a system that is not one of the five built-ins.
template <typename Fn>
bool WithResolver(const ld::DiscoveryService& svc, bool plan, Fn&& fn) {
  if (const auto* p = dynamic_cast<const ld::LormService*>(&svc)) {
    fn(LormResolver{*p});
  } else if (const auto* p = dynamic_cast<const ld::MercuryService*>(&svc)) {
    fn(MercuryResolver{*p});
  } else if (const auto* p = dynamic_cast<const ld::SwordService*>(&svc)) {
    fn(SwordResolver{*p});
  } else if (const auto* p = dynamic_cast<const ld::MaanService*>(&svc)) {
    fn(DualPlacementResolver<ld::MaanService>{*p, plan});
  } else if (const auto* p = dynamic_cast<const ld::D1htService*>(&svc)) {
    fn(DualPlacementResolver<ld::D1htService>{*p, plan});
  } else {
    return false;
  }
  return true;
}

}  // namespace

void ReplayQuery(const ld::DiscoveryService& svc,
                 const lorm::resource::AttributeRegistry& registry,
                 const lorm::resource::MultiQuery& q, bool plan,
                 lorm::cache::ResultCache* cache, ld::QueryScratch& scratch,
                 const SpanSink& sink, LayerSample& out) {
  // Keep the match buffers' capacity across replays.
  out.route_ns = out.walk_scan_ns = out.join_ns = 0;
  out.lookups = out.visited = out.raw_matches = 0;
  out.hops = 0;
  out.failed = false;
  const bool known = WithResolver(svc, plan, [&](const auto& resolve) {
    Replay(resolve, svc, registry, q, plan, cache, scratch, sink, out);
  });
  if (!known) throw lorm::ConfigError("no layer replay for " + svc.name());
}

}  // namespace perfbench
