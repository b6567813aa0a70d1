// The three workloads of the benchmark driver (README.md describes them).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Per-run scratch directory (artifact cache, spans); the caller
  // removes it.
  std::string tmpdir;
};

// Each prints the result line and returns the process exit code.
int RunFigures(const RunArgs& args, Checks& checks, Tracer& tracer);
int RunServe(const RunArgs& args, bool from_store, Checks& checks,
             Tracer& tracer);

// The per-layer metrics, every name in BENCHMARK.json order, from
// `values` (name -> value). A workload reports all of them; a layer the
// workload never enters reads 0.
std::vector<Metric> LayerMetrics(const std::map<std::string, double>& values);

// Writes the spans to <tmpdir>/spans.jsonl and prints the self-time
// table to stderr.
void FinishTrace(const RunArgs& args, const Tracer& tracer);

}  // namespace perfbench
