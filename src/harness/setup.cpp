#include "harness/setup.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/d1ht_service.hpp"
#include "discovery/lorm_service.hpp"
#include "discovery/maan_service.hpp"
#include "discovery/mercury_service.hpp"
#include "discovery/sword_service.hpp"

namespace lorm::harness {

namespace {

struct RegistryEntry {
  SystemKind kind;
  std::string name;  // stable storage: SystemName hands out c_str()
  SystemFactory factory;
};

// std::deque: RegisterSystem must not invalidate the `name` storage that
// SystemName() has already handed out as const char*.
std::deque<RegistryEntry>& MutableRegistry();

RegistryEntry* FindEntry(SystemKind kind) {
  for (auto& e : MutableRegistry()) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

/// The options `setup` gives every system (`--cache` turns on the result
/// cache here and each overlay's route cache below).
discovery::ServiceOptions OptionsOf(const Setup& setup) {
  return {setup.replicas, setup.cache, setup.plan};
}

template <typename Service>
std::unique_ptr<discovery::DiscoveryService> MakeRingService(
    const Setup& setup, const resource::AttributeRegistry& registry) {
  typename Service::Config cfg{OptionsOf(setup)};
  cfg.ring.bits = setup.chord_bits;
  cfg.ring.seed = setup.seed;
  if constexpr (requires { cfg.ring.route_cache; }) {
    cfg.ring.route_cache = setup.cache;  // the single-hop ring has none
  }
  return std::make_unique<Service>(setup.nodes, registry, cfg);
}

std::deque<RegistryEntry> MakeBuiltins() {
  std::deque<RegistryEntry> reg;
  reg.push_back({SystemKind::kLorm, "LORM",
                 [](const Setup& setup,
                    const resource::AttributeRegistry& registry) {
                   discovery::LormService::Config cfg{OptionsOf(setup)};
                   cfg.overlay.dimension = setup.dimension;
                   cfg.overlay.seed = setup.seed;
                   cfg.overlay.route_cache = setup.cache;
                   return std::make_unique<discovery::LormService>(
                       setup.nodes, registry, std::move(cfg));
                 }});
  reg.push_back({SystemKind::kMercury, "Mercury",
                 MakeRingService<discovery::MercuryService>});
  reg.push_back({SystemKind::kSword, "SWORD",
                 MakeRingService<discovery::SwordService>});
  reg.push_back({SystemKind::kMaan, "MAAN",
                 MakeRingService<discovery::MaanService>});
  // singlehop::Config shares chord::Config's `bits` and `seed` names, so the
  // generic wiring applies to D1HT too.
  reg.push_back({SystemKind::kD1ht, "D1HT",
                 MakeRingService<discovery::D1htService>});
  return reg;
}

std::deque<RegistryEntry>& MutableRegistry() {
  static std::deque<RegistryEntry> reg = MakeBuiltins();
  return reg;
}

}  // namespace

const char* SystemName(SystemKind kind) {
  const RegistryEntry* e = FindEntry(kind);
  return e != nullptr ? e->name.c_str() : "?";
}

std::vector<SystemKind> AllSystems() {
  return {SystemKind::kLorm, SystemKind::kMercury, SystemKind::kSword,
          SystemKind::kMaan, SystemKind::kD1ht};
}

void RegisterSystem(SystemKind kind, std::string name, SystemFactory factory) {
  if (RegistryEntry* e = FindEntry(kind); e != nullptr) {
    e->name = std::move(name);
    e->factory = std::move(factory);
    return;
  }
  MutableRegistry().push_back({kind, std::move(name), std::move(factory)});
}

bool SystemRegistered(SystemKind kind) { return FindEntry(kind) != nullptr; }

std::vector<SystemKind> RegisteredSystems() {
  std::vector<SystemKind> kinds;
  for (const auto& e : MutableRegistry()) kinds.push_back(e.kind);
  return kinds;
}

Setup Setup::Small() {
  Setup s;
  s.nodes = 384;    // 6 * 2^6: a fully populated d=6 Cycloid
  s.dimension = 6;
  s.chord_bits = 9;
  s.attributes = 20;
  s.infos_per_attribute = 50;
  // Harsh skew (three decades) so tests exercise the imbalanced regime the
  // lph ablation studies.
  s.pareto_shape = 1.5;
  s.value_min = 1.0;
  s.value_max = 1000.0;
  return s;
}

Setup Setup::Quick() {
  Setup s;
  s.nodes = 384;
  s.dimension = 6;
  s.chord_bits = 9;
  s.attributes = 40;
  s.infos_per_attribute = 100;
  return s;
}

Setup Setup::WithNodes(std::size_t n) const {
  Setup s = *this;
  s.nodes = n;
  s.dimension = cycloid::DimensionFor(n);
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  s.chord_bits = std::max(bits, 4u);
  return s;
}

resource::WorkloadConfig Setup::MakeWorkloadConfig() const {
  resource::WorkloadConfig cfg;
  cfg.attributes = attributes;
  cfg.infos_per_attribute = infos_per_attribute;
  cfg.pareto_shape = pareto_shape;
  cfg.value_min = value_min;
  cfg.value_max = value_max;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<discovery::DiscoveryService> MakeService(
    SystemKind kind, const Setup& setup,
    const resource::AttributeRegistry& registry) {
  const RegistryEntry* e = FindEntry(kind);
  if (e == nullptr) throw ConfigError("unknown system kind");
  return e->factory(setup, registry);
}

HopCount AdvertiseAll(discovery::DiscoveryService& service,
                      const std::vector<resource::ResourceInfo>& infos) {
  return service.AdvertiseAll(infos);
}

std::vector<resource::ResourceInfo> GridInfos(
    const Setup& setup, const resource::Workload& workload) {
  std::vector<NodeAddr> providers(setup.nodes);
  std::iota(providers.begin(), providers.end(), NodeAddr{0});
  Rng rng(setup.seed ^ 0xBEEF);
  return workload.GenerateInfos(providers, rng);
}

std::unique_ptr<discovery::DiscoveryService> BuildPopulated(
    SystemKind kind, const Setup& setup, const resource::Workload& workload) {
  auto service = MakeService(kind, setup, workload.registry());
  AdvertiseAll(*service, GridInfos(setup, workload));
  return service;
}

}  // namespace lorm::harness
