// Interactive grid-discovery console.
//
// A small REPL over a LORM service: join/crash machines, advertise
// resources, run point/range/semantic queries, inspect stats. Reads
// commands from stdin (works piped, so it doubles as a scriptable demo):
//
//   echo "seed 100
//   query cpu_mhz>=1800 os=Linux
//   ask unix
//   fail 5
//   maintain
//   stats
//   quit" | ./build/examples/grid_console
//
// Commands:
//   seed N                 bootstrap N random machines (addresses 0..N-1)
//   join                   add one new machine
//   leave ADDR             graceful departure
//   fail N                 crash N random machines (no handoff)
//   maintain               one self-organization round
//   refresh                new epoch: re-advertise all live machines
//   query COND [COND...]   COND := attr>=v | attr<=v | attr=v | attr=text
//   ask CONCEPT [COND...]  semantic query over the grid ontology
//   show ADDR              print one machine
//   stats                  network and directory statistics
//   help, quit
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "discovery/lorm_service.hpp"
#include "resource/machine.hpp"
#include "semantic/grid_ontology.hpp"

namespace {

using namespace lorm;

class Console {
 public:
  Console()
      : service_(0, registry_, MakeConfig()),  // starts empty: 'seed' populates
        ontology_(semantic::MakeGridOntology(registry_)),
        resolver_(ontology_.taxonomy, ontology_.bindings),
        rng_(0xC0451) {}

  int Run(std::istream& in, std::ostream& out) {
    std::string line;
    out << "lorm grid console — type 'help'\n";
    while (std::getline(in, line)) {
      std::istringstream args(line);
      std::string cmd;
      if (!(args >> cmd) || cmd[0] == '#') continue;
      try {
        if (cmd == "quit" || cmd == "exit") break;
        Dispatch(cmd, args, out);
      } catch (const std::exception& e) {
        out << "error: " << e.what() << "\n";
      }
    }
    out << "bye\n";
    return 0;
  }

 private:
  static constexpr std::size_t kCapacity = 6 * 64;

  static discovery::LormService::Config MakeConfig() {
    discovery::LormService::Config cfg;
    cfg.overlay.dimension = 6;
    return cfg;
  }

  void Dispatch(const std::string& cmd, std::istringstream& args,
                std::ostream& out) {
    if (cmd == "help") {
      out << "seed N | join | leave A | fail N | maintain | refresh |\n"
             "query COND... | ask CONCEPT [COND...] | show A | stats | quit\n"
             "COND := attr>=v | attr<=v | attr=v (e.g. cpu_mhz>=1800, "
             "os=Linux)\n";
    } else if (cmd == "seed") {
      std::size_t n = 0;
      args >> n;
      Seed(n, out);
    } else if (cmd == "join") {
      const NodeAddr addr = next_addr_++;
      if (!service_.JoinNode(addr)) {
        out << "join rejected: overlay full\n";
        return;
      }
      AdvertiseMachine(addr);
      out << "joined " << FormatNodeAddr(addr) << " ("
          << service_.NetworkSize() << " nodes)\n";
    } else if (cmd == "leave") {
      NodeAddr addr = kNoNode;
      args >> addr;
      service_.LeaveNode(addr);
      out << "left gracefully (" << service_.NetworkSize() << " nodes)\n";
    } else if (cmd == "fail") {
      std::size_t n = 1;
      args >> n;
      for (std::size_t i = 0; i < n && service_.NetworkSize() > 1; ++i) {
        const auto nodes = service_.Nodes();
        service_.FailNode(nodes[rng_.NextBelow(nodes.size())]);
      }
      out << "crashed " << n << " nodes (" << service_.NetworkSize()
          << " left); run 'maintain' + 'refresh' to heal\n";
    } else if (cmd == "maintain") {
      service_.Maintain();
      out << "self-organization round done\n";
    } else if (cmd == "refresh") {
      service_.SetEpoch(service_.CurrentEpoch() + 1);
      std::size_t readvertised = 0;
      for (const auto& [addr, m] : machines_) {
        if (!service_.HasNode(addr)) continue;
        for (const auto& info : m.Advertise(registry_)) {
          service_.Advertise(info);
          ++readvertised;
        }
      }
      const std::size_t expired =
          service_.ExpireEntriesBefore(service_.CurrentEpoch());
      out << "epoch " << service_.CurrentEpoch() << ": re-advertised "
          << readvertised << " tuples, expired " << expired << " stale\n";
    } else if (cmd == "query") {
      RunQuery(args, out);
    } else if (cmd == "ask") {
      RunSemantic(args, out);
    } else if (cmd == "show") {
      NodeAddr addr = kNoNode;
      args >> addr;
      const auto it = machines_.find(addr);
      out << (it == machines_.end() ? std::string("unknown machine\n")
                                    : it->second.ToString() + "\n");
    } else if (cmd == "stats") {
      const Summary dirs = Summarize(service_.DirectorySizes());
      out << "nodes " << service_.NetworkSize() << ", clusters "
          << service_.overlay().ClusterCount() << ", stored pieces "
          << service_.TotalInfoPieces() << "\n";
      out << "directory/node: mean " << dirs.mean << ", p99 " << dirs.p99
          << ", max " << dirs.max << "\n";
      out << "maintenance messages " << service_.MaintenanceMessages()
          << ", epoch " << service_.CurrentEpoch() << "\n";
    } else {
      out << "unknown command '" << cmd << "' (try 'help')\n";
    }
  }

  void Seed(std::size_t n, std::ostream& out) {
    std::size_t joined = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeAddr addr = next_addr_++;
      if (!service_.JoinNode(addr)) break;
      AdvertiseMachine(addr);
      ++joined;
    }
    out << "seeded " << joined << " machines (" << service_.NetworkSize()
        << " total)\n";
  }

  void AdvertiseMachine(NodeAddr addr) {
    const auto m = resource::RandomMachine(addr, rng_);
    machines_[addr] = m;
    for (const auto& info : m.Advertise(registry_)) service_.Advertise(info);
  }

  /// Parses "attr>=v", "attr<=v", "attr=v" (numeric) or "attr=Text".
  resource::SubQuery ParseCond(const std::string& token) const {
    const auto TrySplit = [&](const std::string& op)
        -> std::optional<std::pair<std::string, std::string>> {
      const auto pos = token.find(op);
      if (pos == std::string::npos) return std::nullopt;
      return std::make_pair(token.substr(0, pos), token.substr(pos + op.size()));
    };
    std::string_view op = ">=";
    auto split = TrySplit(">=");
    if (!split) {
      op = "<=";
      split = TrySplit("<=");
    }
    if (!split) {
      op = "=";
      split = TrySplit("=");
    }
    if (!split) throw ConfigError("bad condition: " + token);
    const auto id = registry_.Find(split->first);
    if (!id) throw ConfigError("unknown attribute: " + split->first);
    const auto& schema = registry_.Get(*id);

    resource::AttrValue value;
    if (schema.kind() == resource::ValueKind::kNumeric) {
      value = resource::AttrValue::Number(std::stod(split->second));
    } else {
      value = resource::AttrValue::Text(split->second);
    }
    if (op == ">=") {
      return {*id, resource::ValueRange::AtLeast(schema, value)};
    }
    if (op == "<=") {
      return {*id, resource::ValueRange::AtMost(schema, value)};
    }
    return {*id, resource::ValueRange::Point(value)};
  }

  std::vector<resource::SubQuery> ParseConds(std::istringstream& args) const {
    std::vector<resource::SubQuery> subs;
    std::string token;
    while (args >> token) subs.push_back(ParseCond(token));
    return subs;
  }

  NodeAddr AnyRequester() {
    const auto nodes = service_.Nodes();
    if (nodes.empty()) throw ConfigError("network is empty — 'seed' first");
    return nodes[rng_.NextBelow(nodes.size())];
  }

  void PrintProviders(const std::vector<NodeAddr>& providers,
                      std::ostream& out) {
    std::size_t shown = 0;
    for (const NodeAddr p : providers) {
      if (shown++ == 5) {
        out << "  ... (" << providers.size() - 5 << " more)\n";
        break;
      }
      const auto it = machines_.find(p);
      out << "  "
          << (it == machines_.end() ? FormatNodeAddr(p) : it->second.ToString())
          << "\n";
    }
  }

  void RunQuery(std::istringstream& args, std::ostream& out) {
    resource::MultiQuery q;
    q.requester = AnyRequester();
    q.subs = ParseConds(args);
    if (q.subs.empty()) throw ConfigError("query needs conditions");
    const auto res = service_.Query(q);
    out << res.providers.size() << " matches (" << res.stats.lookups
        << " lookups, " << res.stats.dht_hops << " hops, "
        << res.stats.visited_nodes << " probed"
        << (res.stats.failed ? ", PARTIAL: routing failures" : "") << ")\n";
    PrintProviders(res.providers, out);
  }

  void RunSemantic(std::istringstream& args, std::ostream& out) {
    std::string concept_name;
    if (!(args >> concept_name)) throw ConfigError("ask needs a concept");
    const auto concept_id = ontology_.taxonomy.Find(concept_name);
    if (!concept_id) throw ConfigError("unknown concept: " + concept_name);
    semantic::SemanticRequest req;
    req.concept_id = *concept_id;
    req.extra = ParseConds(args);
    req.requester = AnyRequester();
    const auto res = resolver_.Resolve(req, service_);
    out << res.providers.size() << " matches via {";
    for (std::size_t i = 0; i < res.expanded_concepts.size(); ++i) {
      out << (i ? ", " : "") << res.expanded_concepts[i];
    }
    out << "} (" << res.stats.lookups << " lookups, " << res.stats.dht_hops
        << " hops)\n";
    PrintProviders(res.providers, out);
  }

  resource::AttributeRegistry registry_ = [] {
    resource::AttributeRegistry r;
    resource::RegisterGridSchema(r);
    return r;
  }();
  discovery::LormService service_;
  semantic::GridOntology ontology_;
  semantic::Resolver resolver_;
  Rng rng_;
  std::map<NodeAddr, resource::Machine> machines_;
  NodeAddr next_addr_ = 0;
};

}  // namespace

int main() { return Console().Run(std::cin, std::cout); }
