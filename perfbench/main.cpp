// discovery_bench: the repository's end-to-end benchmark.
//
//   discovery_bench --workload point|range|hotspot --seed N
//                   --seconds S --trace 0|1
//                   [--span-file FILE] [--digest-dir DIR]
//
// Prints a self-describing header, then one JSON object as the last line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// README.md defines every metric.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

struct CpuTimes {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

/// Aggregate CPU time from /proc/stat; `steal` is time the hypervisor gave
/// this VM's CPUs to someone else.
CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    unsigned long long v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// FNV-1a of this executable, so determinism digests are only compared
/// between runs of the same build.
std::uint64_t ExecutableHash() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ull;
    }
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Compares the run's digest with an earlier run of the same build, seed,
/// workload and mode; records it if this is the first such run. Returns
/// false on a mismatch.
bool CheckDigest(const std::string& dir, const std::string& key,
                 std::uint64_t digest) {
  if (dir.empty()) return true;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + key + ".digest";
  std::ifstream in(path);
  std::string previous;
  if (in >> previous) return previous == Hex(digest);
  std::ofstream(path) << Hex(digest) << "\n";
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "discovery_bench: " << why
            << "\nusage: discovery_bench --workload point|range|hotspot "
               "--seed N --seconds S --trace 0|1 [--span-file FILE] "
               "[--digest-dir DIR]\n";
  std::exit(2);
}

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& v,
                            std::uint64_t max) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 19) {
    Usage(flag + " needs a whole number");
  }
  const std::uint64_t n = std::stoull(v);
  if (n > max) Usage(flag + " is out of range");
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad argument " + flag);
    args[flag] = argv[++i];
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!args.contains(required)) Usage(std::string("missing ") + required);
  }
  for (const auto& [flag, value] : args) {
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--span-file" && flag != "--digest-dir") {
      Usage("unknown flag " + flag);
    }
  }
  const std::string workload = args["--workload"];
  const std::uint64_t seed = ParseUnsigned("--seed", args["--seed"], ~0ull);
  const auto seconds =
      static_cast<unsigned>(ParseUnsigned("--seconds", args["--seconds"], 60));
  const std::uint64_t trace = ParseUnsigned("--trace", args["--trace"], 1);
  if (seconds == 0) Usage("--seconds must be at least 1");

  try {
    const CpuTimes cpu0 = ReadCpuTimes();
    const auto self_test = perfbench::SelfTest();
    for (const auto& p : self_test) std::cout << "# self-test FAILED: " << p << "\n";

    perfbench::WorkloadSpec spec = perfbench::MakeWorkload(workload, seed, seconds);
    perfbench::RunOptions opt;
    opt.trace = trace == 1;
    opt.systems = lorm::harness::AllSystems();
    if (opt.trace && args.contains("--span-file")) opt.span_file = args["--span-file"];

    std::cout << "# workload=" << workload << " seed=" << seed
              << " trace=" << trace << " build=" << PERFBENCH_BUILD_TYPE
              << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
              << " clients=1 (closed loop, one thread)\n"
              << "# scale: n=" << spec.setup.nodes << " d=" << spec.setup.dimension
              << " chord_bits=" << spec.setup.chord_bits
              << " m=" << spec.setup.attributes
              << " k=" << spec.setup.infos_per_attribute
              << " cache=" << spec.setup.cache << " plan=" << spec.setup.plan << "\n"
              << "# replays per op: " << spec.rounds + (opt.trace ? spec.rounds % 2 : 0)
              << " rounds (set-up rebuilt each round) x " << spec.passes
              << " passes over the read-only prefix of " << spec.read_prefix
              << " ops" << (opt.trace ? "; odd rounds traced" : "") << "\n";

    const perfbench::RunOutput out = perfbench::RunWorkload(spec, opt);
    const CpuTimes cpu1 = ReadCpuTimes();

    for (const auto& line : out.op_counts) std::cout << "# ops " << line << "\n";
    const std::string key = workload + "-" + std::to_string(seed) + "-trace" +
                            std::to_string(trace) + "-" + Hex(ExecutableHash());
    const bool digest_ok = CheckDigest(args["--digest-dir"], key, out.digest);
    if (!digest_ok) {
      std::cout << "# determinism FAILED: digest differs from an earlier run "
                   "with the same seed\n";
    }
    for (const auto& p : out.problems) std::cout << "# check FAILED: " << p << "\n";
    const double steal =
        cpu1.total > cpu0.total
            ? static_cast<double>(cpu1.steal - cpu0.steal) /
                  static_cast<double>(cpu1.total - cpu0.total)
            : 0.0;
    std::cout << "# fail_rate=" << out.failed << "/" << out.attempted
              << " determinism_violations=" << out.determinism_violations
              << " digest=" << Hex(out.digest) << " steal_share="
              << JsonNumber(steal) << " query_samples_per_system="
              << out.query_samples << "\n";

    const bool correct =
        out.correct && digest_ok && self_test.empty();
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      const auto& m = out.metrics[i];
      std::cout << "# " << m.name << " = " << JsonNumber(m.value) << " " << m.unit << "\n";
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "discovery_bench: run failed: " << e.what() << "\n";
    return 1;
  }
}
