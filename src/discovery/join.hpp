// The requester-side "join" of per-attribute sub-query results.
//
// Paper §III: "The requester node then concatenates the results in a
// database-like 'join' operation based on ip_addr. The results are the nodes
// that have desired resource by the requester." A provider satisfies the
// multi-attribute query iff it appears in the result set of every sub-query.
//
// Both steps run in caller-owned scratch (JoinScratch, held by QueryScratch),
// so a warm query allocates only its result:
//
//  * Dedup. A sub-query's raw matches stay where the walk appended them. The
//    dedup sorts one fixed-width key per match, (attribute, provider) then
//    the value's order, drops equal neighbours and copies each distinct
//    tuple once into an exactly sized output, in (attribute, provider,
//    value) order, the order a sort of whole tuples gives.
//  * Join. A deduplicated sub-query's matches share one attribute, so its
//    providers come out of the list already sorted; ProvidersOf sorts only
//    input that is not. The intersection writes into a scratch buffer and
//    copies back rather than swapping buffers, so no buffer's capacity
//    depends on the queries before, and the joined providers are allocated
//    once, at their final size.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "resource/resource_info.hpp"

namespace lorm::discovery {

/// Sort key of one match for DedupMatches: `group` packs (attribute,
/// provider); `value` maps the value to an unsigned integer in the value's
/// order (a number's ordered bits with -0 folded onto +0, a text's first
/// eight bytes); `index` is the match's position in its list.
struct MatchKey {
  std::uint64_t group = 0;
  std::uint64_t value = 0;
  std::uint32_t index = 0;
};

/// The reusable buffers of DedupMatches and JoinProviders.
struct JoinScratch {
  std::vector<resource::ResourceInfo> raw;  ///< one sub-query's raw matches
  std::vector<MatchKey> keys;               ///< DedupMatches' sort keys
  std::vector<NodeAddr> acc;  ///< running intersection of provider sets
  std::vector<NodeAddr> cur;  ///< the next sub-query's provider set
  std::vector<NodeAddr> tmp;  ///< IntersectSorted's output
};

/// Intersects the provider sets of all sub-query results. Each inner vector
/// holds the matches of one sub-query (any order); the output is the sorted
/// set of providers present in every one of them. An empty outer vector
/// joins to an empty set. Works in `scratch` and allocates only the result.
std::vector<NodeAddr> JoinProviders(
    const std::vector<std::vector<resource::ResourceInfo>>& per_sub,
    JoinScratch& scratch);
/// The same join in throwaway scratch.
std::vector<NodeAddr> JoinProviders(
    const std::vector<std::vector<resource::ResourceInfo>>& per_sub);

/// Extracts the sorted, deduplicated provider set of one sub-query's
/// matches into `out` (cleared first). Deduplicated matches of one
/// attribute are already in provider order and are not sorted again.
void ProvidersOf(const std::vector<resource::ResourceInfo>& matches,
                 std::vector<NodeAddr>& out);

/// acc <- acc ∩ cur via a galloping merge: iterate the smaller side and
/// binary-search forward in the larger, so a k-attribute join costs
/// O(min·log max) instead of O(acc + cur) when selectivities are skewed.
/// Both inputs must be sorted and unique; the (sorted, unique) output is
/// identical to std::set_intersection. The output is built in `tmp` and
/// copied back into `acc`, which never grows: neither buffer takes the
/// other's capacity.
void IntersectSorted(std::vector<NodeAddr>& acc,
                     const std::vector<NodeAddr>& cur,
                     std::vector<NodeAddr>& tmp);

/// Requester-side deduplication of one sub-query's matches: with directory
/// replication a range walk can see the same tuple on several nodes; the
/// requester keeps one copy of each ⟨attribute, value, provider⟩. Copies
/// the distinct tuples of `raw`, sorted by (attribute, provider, value),
/// into `out` (cleared, then reserved to their exact count); `keys` is
/// scratch.
void DedupMatches(const std::vector<resource::ResourceInfo>& raw,
                  std::vector<MatchKey>& keys,
                  std::vector<resource::ResourceInfo>& out);
/// The same deduplication in place, through throwaway buffers: the
/// distinct tuples move back to the front of `matches`, which keeps its
/// capacity.
void DedupMatches(std::vector<resource::ResourceInfo>& matches);

}  // namespace lorm::discovery
