// aabench — the repository benchmark.
//
//   aabench --workload <sim_service|thread_service|socket_lossy|convex_rb|all>
//           --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the untraced closed loop and reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics (see README.md).  Every
// metric is printed as a text line with its unit and sample count; the last
// line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// `--workload all` runs the four workloads in this one process and prefixes
// each metric name in the JSON with "<workload>/".  Exit code 1 when a
// correctness check failed, 2 on a usage error.
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace aabench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aabench: %s\nusage: aabench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else {
        usage("unknown option");
      }
    } catch (const std::logic_error&) {
      usage("bad number");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// The CPU brand string, read with cpuid (no file access).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

void print_machine() {
  std::printf("# machine: nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), __VERSION__,
              AABENCH_BUILD_TYPE);
}

void print_text(const char* workload, const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("%-16s %-32s %16.6g %-6s n=%-6zu %s\n", workload, m.name.c_str(),
                m.value, m.unit.c_str(), m.samples, m.note.c_str());
  }
  for (const auto& p : r.problems) {
    std::printf("%-16s FAILED: %s\n", workload, p.c_str());
  }
}

void append_json(std::string& out, const std::string& prefix, const Result& r) {
  char buf[128];
  for (const Metric& m : r.metrics) {
    if (!m.in_json) continue;
    if (out.back() != '{') out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += "\"";
    out += prefix;
    out += m.name;
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += m.unit;
    out += "\"}";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::vector<const Workload*> todo;
  if (args.workload == "all") {
    for (const auto& w : workloads()) todo.push_back(&w);
  } else if (const Workload* w = find_workload(args.workload)) {
    todo.push_back(w);
  } else {
    usage("unknown workload");
  }

  print_machine();
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics = "{";
  for (const Workload* w : todo) {
    Result r;
    try {
      r = args.trace ? run_layers(*w, args.seed, args.seconds)
                     : run_end_to_end(*w, args.seed, args.seconds);
    } catch (const std::exception& e) {
      r.fail(std::string("exception: ") + e.what());
    }
    print_text(w->name, r);
    std::fflush(stdout);
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    append_json(metrics, todo.size() > 1 ? std::string(w->name) + "/" : "", r);
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
