// Route tracing: watch a LORM lookup traverse the Cycloid, hop by hop, and
// emit the neighborhood as Graphviz DOT for visual inspection.
//
//   ./build/examples/route_trace            # human-readable trace
//   ./build/examples/route_trace --dot > route.dot
//   dot -Tsvg route.dot -o route.svg
#include <cstring>
#include <iostream>
#include <set>

#include "common/random.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/lorm_service.hpp"
#include "resource/machine.hpp"

namespace {

using namespace lorm;

std::string NodeLabel(const cycloid::CycloidNetwork& net, NodeAddr addr) {
  const auto id = net.IdOf(addr);
  std::string label = "(";
  label += std::to_string(id.k);
  label += ',';
  label += std::to_string(id.a);
  label += ')';
  return label;
}

void PrintTrace(const cycloid::CycloidNetwork& net,
                const cycloid::LookupResult& res) {
  std::cout << "lookup key (k=" << res.key.k << ", a=" << res.key.a
            << "): " << res.hops << " hops\n";
  for (std::size_t i = 0; i < res.path.size(); ++i) {
    const NodeAddr addr = res.path[i];
    std::cout << "  " << (i == 0 ? "start " : "  -> ")
              << FormatNodeAddr(addr) << " " << NodeLabel(net, addr);
    if (i + 1 == res.path.size()) std::cout << "   [owner]";
    std::cout << "\n";
  }
}

void PrintDot(const cycloid::CycloidNetwork& net,
              const cycloid::LookupResult& res) {
  // Emit the union of the path nodes' neighborhoods, highlighting the path.
  std::set<NodeAddr> nodes(res.path.begin(), res.path.end());
  for (const NodeAddr addr : res.path) {
    for (const NodeAddr n : net.NeighborsOf(addr)) nodes.insert(n);
  }
  std::cout << "digraph route {\n  rankdir=LR;\n"
            << "  node [shape=circle, fontsize=10];\n";
  for (const NodeAddr addr : nodes) {
    const bool on_path =
        std::find(res.path.begin(), res.path.end(), addr) != res.path.end();
    std::cout << "  n" << addr << " [label=\"" << NodeLabel(net, addr)
              << "\"";
    if (addr == res.path.front()) {
      std::cout << ", style=filled, fillcolor=lightblue";
    } else if (addr == res.path.back()) {
      std::cout << ", style=filled, fillcolor=lightgreen";
    } else if (on_path) {
      std::cout << ", style=filled, fillcolor=lightyellow";
    }
    std::cout << "];\n";
  }
  // Routing-table edges (grey) and the taken path (red, bold).
  for (const NodeAddr addr : res.path) {
    for (const NodeAddr n : net.NeighborsOf(addr)) {
      std::cout << "  n" << addr << " -> n" << n << " [color=grey80];\n";
    }
  }
  for (std::size_t i = 0; i + 1 < res.path.size(); ++i) {
    std::cout << "  n" << res.path[i] << " -> n" << res.path[i + 1]
              << " [color=red, penwidth=2];\n";
  }
  std::cout << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool dot = argc > 1 && std::strcmp(argv[1], "--dot") == 0;

  resource::AttributeRegistry registry;
  resource::RegisterGridSchema(registry);
  discovery::LormService::Config cfg;
  cfg.overlay.dimension = 5;
  discovery::LormService lorm(5 * 32, registry, std::move(cfg));
  const auto& net = lorm.overlay();

  // The resource ID of "cpu_mhz = 3000" — attribute picks the cluster,
  // value the position inside it (paper §III).
  const AttrId cpu = *registry.Find(resource::kAttrCpuMhz);
  const auto key = lorm.KeyFor(cpu, resource::AttrValue::Number(3000));

  Rng rng(99);
  const auto members = net.Members();
  const NodeAddr origin = members[rng.NextBelow(members.size())];
  const auto res = net.Lookup(key, origin);
  if (!res.ok) {
    std::cerr << "lookup failed\n";
    return 1;
  }

  if (dot) {
    PrintDot(net, res);
  } else {
    std::cout << "resource ID of {cpu_mhz = 3000}: cyclic " << key.k
              << ", cubical " << key.a << " (cluster of attribute 'cpu_mhz')\n";
    PrintTrace(net, res);
    std::cout << "\nthe descent flips one cubical-index bit per cubical-"
                 "neighbor hop;\nthe final hops rotate the target cluster's "
                 "small cycle.\nrun with --dot for a Graphviz rendering.\n";
  }
  return 0;
}
