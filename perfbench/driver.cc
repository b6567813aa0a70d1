// Benchmark driver for topogen: runs one workload for a fixed time and
// prints its metrics as the last line of standard output.
//
//   perfbench_driver --workload figures|serve_warm|serve_store --seed N
//                    --seconds S --trace 0|1 --tmpdir DIR [--perturb CHECK]
//
// perfbench/run.py builds this binary and calls it; README.md describes
// the workloads, the metrics and the checks.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

extern char** environ;

namespace perfbench {

// Thread count of the parallel engine for every workload.
constexpr const char* kThreads = "2";

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

const LayerMetric kLayerMetrics[] = {
    {"gen.s", "s"},
    {"gen.cpu_s", "s"},
    {"metrics.expansion.s", "s"},
    {"metrics.expansion.cpu_s", "s"},
    {"metrics.resilience.s", "s"},
    {"metrics.resilience.cpu_s", "s"},
    {"metrics.distortion.s", "s"},
    {"metrics.distortion.cpu_s", "s"},
    {"policy.metrics.s", "s"},
    {"hierarchy.link_values.s", "s"},
    {"hierarchy.link_values.cpu_s", "s"},
    {"hierarchy.policy_link_values.s", "s"},
    {"hierarchy.policy_link_values.cpu_s", "s"},
    {"hierarchy.link_values.source_edges_per_s", "1/s"},
    {"graph.bfs.edges_per_s", "1/s"},
    {"core.render.s", "s"},
    {"trace.unattributed_s", "s"},
    {"service.server_elapsed_us", "us"},
    {"service.queue_us", "us"},
    {"service.wire_us", "us"},
    {"service.response_bytes", "bytes"},
    {"service.frames_per_response", "count"},
    {"service.parse_us", "us"},
    {"service.render_us", "us"},
    {"service.dedup_ratio", "ratio"},
    {"socket.echo_rtt_us", "us"},
    {"core.session_hit_us", "us"},
    {"core.session_open_us", "us"},
    {"store.metrics_load_us", "us"},
    {"store.linkvalue_load_us", "us"},
    {"store.artifact_bytes", "bytes"},
    {"core.cache_hit_ratio", "ratio"},
};

}  // namespace

std::vector<Metric> LayerMetrics(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    out.push_back({m.name, it == values.end() ? 0.0 : it->second, m.unit});
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known = known || name == m.name;
    if (!known) std::fprintf(stderr, "# unlisted layer metric %s\n", name.c_str());
  }
  return out;
}

void FinishTrace(const RunArgs& args, const Tracer& tracer) {
  tracer.PrintTable(stderr);
  const std::string path = args.tmpdir + "/spans.jsonl";
  if (!tracer.Write(path)) {
    std::fprintf(stderr, "# could not write %s\n", path.c_str());
  }
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload figures|serve_warm|"
               "serve_store --seed N --seconds S --trace 0|1 --tmpdir DIR "
               "[--perturb CHECK]\n",
               why);
  return 2;
}

// The program sees only what the benchmark sets: no inherited TOPOGEN_*
// variable (trace, stats, cache, faults, scale) reaches it.
void ResetEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TOPOGEN_", 8) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq == nullptr ? std::strlen(*e) : eq - *e);
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("TOPOGEN_THREADS", kThreads, 1);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string perturb;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--tmpdir") {
      args.tmpdir = value;
    } else if (flag == "--perturb") {
      perturb = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!have_seed || !have_seconds || !have_trace || args.tmpdir.empty()) {
    return Usage("--seed, --seconds, --trace and --tmpdir are required");
  }
  const bool figures = args.workload == "figures";
  const bool warm = args.workload == "serve_warm";
  const bool store = args.workload == "serve_store";
  if (!figures && !warm && !store) return Usage("unknown workload");

  ResetEnvironment();
  if (store) setenv("TOPOGEN_CACHE_DIR", (args.tmpdir + "/cache").c_str(), 1);

  Checks checks(perturb);
  Tracer tracer(args.trace);
  try {
    return figures ? RunFigures(args, checks, tracer)
                   : RunServe(args, store, checks, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
