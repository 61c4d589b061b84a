// Self-test of the benchmark's checks: two deliberately broken systems,
// registered through the public registry, must trip the oracle and the
// determinism guard. Runs at the start of every benchmark run.
#include <memory>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace ld = lorm::discovery;
using lorm::harness::SystemKind;

/// Forwards everything to a real service; subclasses corrupt query results.
class Forwarding : public ld::DiscoveryService {
 public:
  explicit Forwarding(std::unique_ptr<ld::DiscoveryService> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return "stub(" + inner_->name() + ")"; }
  bool JoinNode(NodeAddr a) override { return inner_->JoinNode(a); }
  void LeaveNode(NodeAddr a) override { inner_->LeaveNode(a); }
  void FailNode(NodeAddr a) override { inner_->FailNode(a); }
  bool HasNode(NodeAddr a) const override { return inner_->HasNode(a); }
  std::size_t NetworkSize() const override { return inner_->NetworkSize(); }
  std::vector<NodeAddr> Nodes() const override { return inner_->Nodes(); }
  void Maintain() override { inner_->Maintain(); }
  std::uint64_t MaintenanceMessages() const override {
    return inner_->MaintenanceMessages();
  }
  HopCount Advertise(const lorm::resource::ResourceInfo& info) override {
    return inner_->Advertise(info);
  }
  void SetEpoch(std::uint64_t e) override { inner_->SetEpoch(e); }
  std::uint64_t CurrentEpoch() const override { return inner_->CurrentEpoch(); }
  std::size_t ExpireEntriesBefore(std::uint64_t c) override {
    return inner_->ExpireEntriesBefore(c);
  }
  ld::QueryResult Query(const lorm::resource::MultiQuery& q,
                        ld::QueryScratch& scratch) const override {
    ld::QueryResult r = inner_->Query(q, scratch);
    Corrupt(r);
    return r;
  }
  std::vector<double> DirectorySizes() const override {
    return inner_->DirectorySizes();
  }
  std::vector<double> QueryLoadCounts() const override {
    return inner_->QueryLoadCounts();
  }
  void ResetQueryLoad() override { inner_->ResetQueryLoad(); }
  std::vector<double> OutlinkCounts() const override {
    return inner_->OutlinkCounts();
  }
  std::size_t TotalInfoPieces() const override {
    return inner_->TotalInfoPieces();
  }

 protected:
  virtual void Corrupt(ld::QueryResult& r) const = 0;

 private:
  std::unique_ptr<ld::DiscoveryService> inner_;
};

/// Loses one provider of every non-empty answer.
class DropsOneProvider final : public Forwarding {
 public:
  using Forwarding::Forwarding;

 protected:
  void Corrupt(ld::QueryResult& r) const override {
    if (!r.providers.empty()) r.providers.pop_back();
  }
};

/// Every other instance reports one extra hop per query, so two replays
/// (each round rebuilds the systems) disagree.
class FlakyHops final : public Forwarding {
 public:
  explicit FlakyHops(std::unique_ptr<ld::DiscoveryService> inner)
      : Forwarding(std::move(inner)), extra_(instances_++ % 2) {}

 protected:
  void Corrupt(ld::QueryResult& r) const override { r.stats.dht_hops += extra_; }

 private:
  static inline HopCount instances_ = 0;
  const HopCount extra_;
};

constexpr auto kDropsOneProvider = static_cast<SystemKind>(100);
constexpr auto kFlakyHops = static_cast<SystemKind>(101);

template <typename Stub>
void Register(SystemKind kind, const char* name) {
  lorm::harness::RegisterSystem(
      kind, name,
      [](const lorm::harness::Setup& setup,
         const lorm::resource::AttributeRegistry& registry) {
        return std::make_unique<Stub>(
            lorm::harness::MakeService(SystemKind::kSword, setup, registry));
      });
}

}  // namespace

std::vector<std::string> SelfTest() {
  Register<DropsOneProvider>(kDropsOneProvider, "stub-drops-one-provider");
  Register<FlakyHops>(kFlakyHops, "stub-flaky-hops");

  // A short slice of the range workload: ranges make non-empty answers.
  WorkloadSpec spec = MakeWorkload("range", 1, 10);
  constexpr std::size_t kQueries = 64;
  spec.ops.resize(kQueries);
  spec.warm.resize(kQueries);
  spec.read_prefix = kQueries;
  spec.passes = 1;
  spec.rounds = 2;

  std::vector<std::string> problems;
  const auto run = [&](SystemKind kind) {
    RunOptions opt;
    opt.systems = {kind};
    return RunWorkload(spec, opt);
  };
  const RunOutput clean = run(SystemKind::kSword);
  if (!clean.correct) {
    problems.push_back("an unmodified system failed the checks");
  }
  if (run(kDropsOneProvider).failed == 0) {
    problems.push_back("a system that drops a provider kept fail_rate at 0");
  }
  if (run(kFlakyHops).determinism_violations == 0) {
    problems.push_back("hop counts that change between replays passed the "
                       "determinism guard");
  }
  return problems;
}

}  // namespace perfbench
