// Shared helpers for the per-system discovery tests.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "discovery/discovery.hpp"
#include "harness/experiments.hpp"
#include "harness/setup.hpp"
#include "resource/workload.hpp"

namespace lorm::testutil {

struct Bed {
  harness::Setup setup;
  std::unique_ptr<resource::Workload> workload;
  std::unique_ptr<discovery::DiscoveryService> service;
  std::vector<resource::ResourceInfo> infos;
};

/// Builds a populated small system: every node 0..n-1 is a member and
/// advertises its share of harness::GridInfos.
inline Bed MakeBed(harness::SystemKind kind,
                   harness::Setup setup = harness::Setup::Small()) {
  Bed bed;
  bed.setup = setup;
  bed.workload = std::make_unique<resource::Workload>(setup.MakeWorkloadConfig());
  bed.service = harness::MakeService(kind, setup, bed.workload->registry());
  bed.infos = harness::GridInfos(setup, *bed.workload);
  harness::AdvertiseAll(*bed.service, bed.infos);
  return bed;
}

}  // namespace lorm::testutil
