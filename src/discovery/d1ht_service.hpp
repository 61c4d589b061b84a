// D1HT-style discovery: MAAN's attribute/value mapping on the single-hop
// substrate (Monnerat & Amorim's D1HT; see src/singlehop/singlehop.hpp and
// PAPERS.md).
//
// The directory scheme is exactly MaanService's — every tuple stored twice,
// an attribute record at H(attribute name) and a value record at the
// locality-preserving hash of the value; point sub-queries cost two lookups,
// range sub-queries add the system-wide value-segment walk. What changes is
// the ring underneath: every lookup resolves in one hop off the complete
// membership table, so the query-path curves collapse to ~1 hop per lookup
// while the maintenance meter charges Θ(n) event-dissemination messages per
// membership change (see the singlehop header). Together with MAAN on Chord
// this brackets the maintenance-vs-lookup tradeoff the five-curve figures
// exist to show: identical workload, identical directories, opposite end of
// the DHT design space. Membership runs through the same DirectoryService
// path and handoff as MAAN's, over the single-hop ring.
#pragma once

#include "discovery/maan_service.hpp"
#include "singlehop/singlehop.hpp"

namespace lorm::discovery {

/// MAAN's placement, planner and crash repair on the single-hop ring; a
/// type distinct from MaanService, named "D1HT".
using D1htService = BasicMaanService<singlehop::SingleHopRing>;

}  // namespace lorm::discovery
