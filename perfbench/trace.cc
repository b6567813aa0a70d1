#include "trace.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <functional>
#include <thread>

#include "obs/json.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();

// Open spans of the current thread, innermost last.
thread_local std::vector<std::size_t> open_spans;

}  // namespace

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  unsigned long long size = 0;
  unsigned long long resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void Checks::Expect(bool ok, std::string_view name,
                    const std::string& detail) {
  if (ok) return;
  ++failures_;
  std::fprintf(stderr, "# CHECK FAILED [%.*s]: %s\n",
               static_cast<int>(name.size()), name.data(), detail.c_str());
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += "\"" + m.name + "\": {\"value\": " + topogen::obs::JsonNumber(v) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Tracer::Span::Span(Tracer* tracer, std::string_view name,
                   std::uint64_t request_id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Record r;
  r.name = std::string(name);
  r.parent = open_spans.empty() ? -1
                                : static_cast<std::int64_t>(open_spans.back());
  r.request_id = request_id;
  r.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    index_ = tracer_->records_.size();
    tracer_->records_.push_back(std::move(r));
  }
  open_spans.push_back(index_);
  // Clocks last, so the bookkeeping above is outside the span. Request
  // spans skip the process CPU clock: it costs a system call, and the
  // requests of two connections overlap, so their CPU reading means
  // nothing.
  cpu_ = request_id == 0;
  const double cpu = cpu_ ? ProcessCpuS() : 0.0;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->records_[index_].cpu_start_s = cpu;
  tracer_->records_[index_].start_s = now;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const double now = NowS();
  const double cpu = cpu_ ? ProcessCpuS() : 0.0;
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->records_[index_].end_s = now;
  tracer_->records_[index_].cpu_end_s = cpu;
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_s(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_s[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Totals& t = out[r.name];
    ++t.count;
    t.inclusive_s += r.end_s - r.start_s;
    t.self_s += r.end_s - r.start_s - child_s[i];
    t.cpu_s += r.cpu_end_s - r.cpu_start_s;
  }
  return out;
}

void Tracer::PrintTable(std::FILE* out) const {
  std::fprintf(out, "# %-34s %8s %12s %12s %12s\n", "span", "count",
               "inclusive_s", "self_s", "cpu_s");
  for (const auto& [name, t] : Aggregate()) {
    std::fprintf(out, "# %-34s %8llu %12.6f %12.6f %12.6f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.inclusive_s,
                 t.self_s, t.cpu_s);
  }
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Record& r : records_) {
    out << "{\"name\":\"" << topogen::obs::JsonEscape(r.name)
        << "\",\"start_s\":" << topogen::obs::JsonNumber(r.start_s)
        << ",\"end_s\":" << topogen::obs::JsonNumber(r.end_s)
        << ",\"cpu_s\":"
        << topogen::obs::JsonNumber(r.cpu_end_s - r.cpu_start_s)
        << ",\"parent\":" << r.parent << ",\"request_id\":" << r.request_id
        << ",\"thread\":" << r.thread << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
