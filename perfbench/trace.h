// Benchmark-side helpers shared by the workloads: clocks, the output
// checks, the result line, and the span recorder of the traced mode.
//
// Spans are recorded here, around the calls into each layer's public
// functions, not inside the program: each span keeps its name, start,
// end, process CPU, parent and (for serve_*) request id in memory, and
// the recorder writes them out when the run ends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since the driver's main() began.
double NowS();
// Process CPU (user + sys, all threads) in seconds.
double ProcessCpuS();
// Peak resident set of the process so far, MiB.
double PeakRssMb();
// Current resident set of the process, MiB (0 where unreadable).
double ResidentMb();

double Median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q);

// FNV-1a over bytes: the output digest of a figures pass.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull);

// Output checks. A failed check is printed to stderr and turns the
// run's `correct` false. `--perturb <name>` lets a run corrupt the input
// of one named check, to show that the check can fail.
class Checks {
 public:
  explicit Checks(std::string perturb) : perturb_(std::move(perturb)) {}

  // True when this run was asked to corrupt the input of check `name`.
  bool Perturb(std::string_view name) const { return perturb_ == name; }
  void Expect(bool ok, std::string_view name, const std::string& detail);
  bool ok() const { return failures_ == 0; }

 private:
  std::string perturb_;
  std::uint64_t failures_ = 0;
};

// The result line: the last line of standard output.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics);

// In-memory span recorder. Spans may be opened from several threads;
// nesting (the parent link) is tracked per thread.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, std::string_view name, std::uint64_t request_id);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
    bool cpu_ = false;  // whether the span reads the process CPU clock
  };

  struct Totals {
    std::uint64_t count = 0;
    double inclusive_s = 0.0;
    double self_s = 0.0;
    double cpu_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // A no-op span when the tracer is disabled.
  Span Open(std::string_view name, std::uint64_t request_id = 0) {
    return Span(enabled_ ? this : nullptr, name, request_id);
  }

  // Per span name: count, inclusive, self (inclusive minus the direct
  // children's inclusive time) and process CPU.
  std::map<std::string, Totals> Aggregate() const;
  // The self-time table, to `out`.
  void PrintTable(std::FILE* out) const;
  // One JSON object per span, one per line.
  bool Write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    double cpu_start_s = 0.0;
    double cpu_end_s = 0.0;
    std::int64_t parent = -1;
    std::uint64_t request_id = 0;
    std::uint64_t thread = 0;
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

}  // namespace perfbench
