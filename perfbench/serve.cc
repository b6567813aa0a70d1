// The `serve_warm` and `serve_store` workloads: an in-process
// service::Server on loopback with two executor lanes, driven by two
// closed-loop /2 keep-alive connections, one request in flight each.
// Connection i sends only requests whose roster configuration hashes
// (service::LaneForKey) to lane i.
//
// serve_warm: three configurations per lane, all resident and primed in
// set-up, so every timed request is a resident Session hit: parsing,
// dispatch, JSON rendering, framing and the socket, no compute.
// serve_store: five configurations per lane, more than the lane's four
// resident Sessions, cycled so that every request opens a Session and
// loads its artifacts from a TOPOGEN_CACHE_DIR that set-up filled.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/scale.h"
#include "core/session.h"
#include "graph/rng.h"
#include "obs/env.h"
#include "obs/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using topogen::core::Session;
using topogen::core::SessionOptions;
using topogen::metrics::Series;
using topogen::obs::Json;

constexpr std::size_t kLanes = 2;
// Resident Sessions per lane (ServerOptions::max_sessions).
constexpr std::size_t kMaxSessions = 4;
// serve_warm keeps its configurations resident; serve_store cycles more
// configurations per lane than stay resident, so every request misses
// the lane's Session pool.
constexpr std::size_t kWarmConfigsPerLane = kMaxSessions - 1;
constexpr std::size_t kStoreConfigsPerLane = kMaxSessions + 1;

// Tiny roster size overrides. The PLRG's link-value rank distribution
// has thousands of points, which stream as several chunk frames.
constexpr std::uint64_t kAsNodes = 400;
constexpr std::uint64_t kPlrgNodes = 3000;
constexpr const char* kScale = "small";

struct Kind {
  const char* label;
  const char* topology;
  std::vector<const char*> metrics;
  bool policy;
};
const Kind kKinds[] = {
    {"signature", "AS", {"signature"}, false},
    {"signature_policy", "AS", {"signature"}, true},
    {"basic", "AS", {"expansion", "resilience", "distortion", "signature"}, false},
    {"linkvalue", "PLRG", {"linkvalue"}, false},
};
constexpr std::size_t kNumKinds = std::size(kKinds);
// One connection's request cycle: one request of each kind. No traffic
// record gives a mix, so every kind has the same share, and the
// round-trip metric averages the kinds' medians (see RunServe).
constexpr std::size_t kCycle[] = {0, 2, 3, 1};
constexpr std::size_t kCycleLength = std::size(kCycle);
// A connection moves to its next configuration with every request; a
// count coprime with the cycle length pairs every configuration with
// every kind.
static_assert(std::gcd(kWarmConfigsPerLane, kCycleLength) == 1);
static_assert(std::gcd(kStoreConfigsPerLane, kCycleLength) == 1);
// The serving resident set is sampled each time connection 0 completes
// kRssEvery timed requests, up to kRssRequests: a fixed part of the
// serving phase, whatever the throughput, in which the driver's own
// per-request records stay small.
constexpr std::size_t kRssEvery = 500;
constexpr std::size_t kRssRequests = 4000;

struct Config {
  std::uint64_t seed = 0;
  std::size_t lane = 0;
};

std::string RequestLine(const Config& c, std::size_t kind,
                        const std::string& id) {
  const Kind& k = kKinds[kind];
  std::string line = "{\"v\":2,\"id\":\"" + id + "\",\"topology\":\"" +
                     k.topology + "\",\"metrics\":[";
  for (std::size_t i = 0; i < k.metrics.size(); ++i) {
    line += (i > 0 ? ",\"" : "\"") + std::string(k.metrics[i]) + "\"";
  }
  line += "],\"use_policy\":";
  line += k.policy ? "true" : "false";
  line += ",\"scale\":\"" + std::string(kScale) +
          "\",\"seed\":" + std::to_string(c.seed) +
          ",\"as_nodes\":" + std::to_string(kAsNodes) +
          ",\"plrg_nodes\":" + std::to_string(kPlrgNodes) + "}";
  return line;
}

// Roster configurations derived from the workload seed: the first
// `per_lane` that hash to each lane.
std::vector<Config> PickConfigs(std::uint64_t seed, std::size_t per_lane) {
  std::vector<Config> picked;
  std::vector<std::size_t> count(kLanes, 0);
  const std::string default_scale = topogen::obs::Env::Get().scale();
  for (std::uint64_t k = 0; picked.size() < per_lane * kLanes; ++k) {
    Config c;
    c.seed = 1 + topogen::graph::DeriveStream(seed, k) % 1000000000ull;
    const auto parsed =
        topogen::service::ParseRequest(RequestLine(c, 0, "pick"));
    c.lane = topogen::service::LaneForKey(
        topogen::service::StructuralKey(*parsed.request, default_scale),
        kLanes);
    if (count[c.lane] == per_lane) continue;
    ++count[c.lane];
    picked.push_back(c);
  }
  return picked;
}

// What the server resolves a request's configuration to (SessionFor in
// service/server.cc): the tier's options plus the request's overrides.
SessionOptions OptionsFor(const Config& c) {
  SessionOptions so = topogen::core::ScaledSessionOptions(kScale);
  so.journal_path.clear();
  so.roster.seed = c.seed;
  so.roster.as_nodes = kAsNodes;
  so.roster.plrg_nodes = kPlrgNodes;
  return so;
}

// The direct in-process result for one (configuration, kind).
struct Expected {
  std::vector<std::pair<std::string, Series>> figures;  // metric, series
  std::string signature;
};

Expected Reference(Session& s, std::size_t kind) {
  const Kind& k = kKinds[kind];
  Expected e;
  for (const char* m : k.metrics) {
    const std::string metric = m;
    if (metric == "linkvalue") {
      e.figures.emplace_back(metric,
                             s.LinkValues(k.topology, k.policy).RankDistribution());
      continue;
    }
    const topogen::core::BasicMetrics& b = s.Metrics(k.topology, k.policy);
    if (metric == "expansion") e.figures.emplace_back(metric, b.expansion);
    if (metric == "resilience") e.figures.emplace_back(metric, b.resilience);
    if (metric == "distortion") e.figures.emplace_back(metric, b.distortion);
    if (metric == "signature") e.signature = b.signature.ToString();
  }
  return e;
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Newline-framed reader over one socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool Next(std::string& line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }
  // True when bytes arrive (or are buffered) within `ms`.
  bool Pending(int ms) {
    if (!buffer_.empty()) return true;
    pollfd p{fd_, POLLIN, 0};
    return ::poll(&p, 1, ms) > 0;
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

// One /2 keep-alive connection with one request in flight.
class Connection {
 public:
  explicit Connection(int port) : fd_(Connect(port)), reader_(fd_) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  // Sends one request and reads frames through the closing more:false
  // frame: `chunks` gets the chunk frames, `final_frame` the last.
  bool RoundTrip(const std::string& line, std::vector<std::string>& chunks,
                 std::string& final_frame) {
    chunks.clear();
    if (!SendAll(fd_, line + "\n")) return false;
    for (;;) {
      std::string frame;
      if (!reader_.Next(frame)) return false;
      if (frame.find("\"more\":false") != std::string::npos) {
        final_frame = std::move(frame);
        return true;
      }
      chunks.push_back(std::move(frame));
    }
  }
  // One line out, one line back.
  bool RoundTripLine(const std::string& line, std::string& reply) {
    return SendAll(fd_, line + "\n") && reader_.Next(reply);
  }
  bool Pending(int ms) { return reader_.Pending(ms); }

 private:
  int fd_;
  LineReader reader_;
};

// A chunk frame with its id taken out: what must repeat byte for byte
// across responses to the same (configuration, kind).
std::string_view ChunkBody(std::string_view frame) {
  const std::size_t at = frame.find(",\"seq\":");
  return at == std::string_view::npos ? std::string_view() : frame.substr(at);
}

// A final frame split into its timing fields and the rest, with the id
// taken out: the rest must repeat byte for byte across responses to the
// same (configuration, kind).
struct FinalFrame {
  std::string body;
  std::uint64_t queue_us = 0;
  std::uint64_t elapsed_us = 0;
};

// False when the frame does not answer `id` or lacks a timing field.
bool SplitFinal(std::string_view frame, const std::string& id,
                FinalFrame& out) {
  const std::string id_field = "\"id\":\"" + id + "\",";
  const std::size_t at = frame.find(id_field);
  if (at == std::string_view::npos) return false;
  out.body.assign(frame.substr(0, at));
  std::size_t pos = at + id_field.size();
  const std::pair<std::string_view, std::uint64_t*> fields[] = {
      {"\"queue_us\":", &out.queue_us}, {"\"elapsed_us\":", &out.elapsed_us}};
  for (const auto& [name, value] : fields) {
    const std::size_t f = frame.find(name, pos);
    if (f == std::string_view::npos) return false;
    const char* digits = frame.data() + f + name.size();
    const auto [end, ec] =
        std::from_chars(digits, frame.data() + frame.size(), *value);
    if (ec != std::errc()) return false;
    out.body.append(frame.substr(pos, f + name.size() - pos));
    pos = static_cast<std::size_t>(end - frame.data());
  }
  out.body.append(frame.substr(pos));
  return true;
}

// What every later response to one (configuration, kind) must repeat.
struct Template {
  std::vector<std::string> chunks;  // ChunkBody of each chunk frame
  std::string final_body;           // FinalFrame::body
};

// Reassembles the streamed series of a response and compares them, and
// the signature, with the direct Session result.
bool MatchesReference(const std::vector<std::string>& chunks,
                      const Json& final_frame, const Expected& expected,
                      std::string& why) {
  std::vector<std::pair<std::string, Series>> got;
  for (const std::string& frame : chunks) {
    const std::optional<Json> j = Json::Parse(frame);
    const Json* figure = j ? j->Find("figure") : nullptr;
    const Json* name = j ? j->Find("name") : nullptr;
    const Json* x = j ? j->Find("x") : nullptr;
    const Json* y = j ? j->Find("y") : nullptr;
    if (figure == nullptr || name == nullptr || x == nullptr || y == nullptr) {
      why = "unparsable chunk frame";
      return false;
    }
    if (got.empty() || got.back().first != figure->AsString()) {
      got.emplace_back(figure->AsString(), Series{});
      got.back().second.name = name->AsString();
    }
    for (const Json& v : x->AsArray()) got.back().second.x.push_back(v.AsDouble());
    for (const Json& v : y->AsArray()) got.back().second.y.push_back(v.AsDouble());
  }
  if (got.size() != expected.figures.size()) {
    why = "response has " + std::to_string(got.size()) + " series, expected " +
          std::to_string(expected.figures.size());
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Series& a = got[i].second;
    const Series& b = expected.figures[i].second;
    if (got[i].first != expected.figures[i].first || a.name != b.name ||
        a.x != b.x || a.y != b.y) {
      why = "series " + expected.figures[i].first +
            " differs from the direct Session result";
      return false;
    }
  }
  const Json* sig = final_frame.Find("figures");
  sig = sig != nullptr ? sig->Find("signature") : nullptr;
  const std::string signature = sig != nullptr ? sig->AsString() : "";
  if (signature != expected.signature) {
    why = "signature '" + signature + "' vs '" + expected.signature + "'";
    return false;
  }
  return true;
}

// One answered request, as the client saw it.
struct Sample {
  std::size_t kind = 0;
  double end_s = 0.0;  // when the closing frame arrived
  double rtt_us = 0.0;
  double elapsed_us = 0.0;
  double queue_us = 0.0;
  std::size_t bytes = 0;
  std::size_t frames = 0;
};

// Per-connection tally of failed requests and the first reason.
struct Failures {
  std::uint64_t count = 0;
  std::string first;
  void Add(const std::string& why) {
    if (count++ == 0) first = why;
  }
};

// Checks one response's final frame: its id, status, and that it was
// served without computing (`cached`).
bool FinalOk(const Json& f, const std::string& id, bool want_cached,
             std::string& why) {
  const Json* rid = f.Find("id");
  const Json* status = f.Find("status");
  const Json* cached = f.Find("cached");
  if (rid == nullptr || rid->AsString() != id) {
    why = "final frame answers another id than " + id;
    return false;
  }
  if (status == nullptr || status->AsString() != "ok") {
    why = "status is not ok for " + id;
    return false;
  }
  if (want_cached && (cached == nullptr || !cached->AsBool())) {
    why = "request " + id + " was computed, not served from a Session";
    return false;
  }
  return true;
}

// The loopback echo floor: a peer that answers each line with as many
// bytes as the line asks for.
class EchoPeer {
 public:
  EchoPeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len);
    ::listen(listen_fd_, 1);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~EchoPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }
  EchoPeer(const EchoPeer&) = delete;
  EchoPeer& operator=(const EchoPeer&) = delete;
  int port() const { return port_; }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    LineReader reader(fd);
    std::string line;
    while (reader.Next(line)) {
      const std::size_t size = std::strtoull(line.c_str(), nullptr, 10);
      std::string reply(size > 0 ? size - 1 : 0, 'x');
      reply += '\n';
      if (!SendAll(fd, reply)) break;
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

double MeanOf(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

int RunServe(const RunArgs& args, bool from_store, Checks& checks,
             Tracer& tracer) {
  namespace svc = topogen::service;
  const std::size_t per_lane =
      from_store ? kStoreConfigsPerLane : kWarmConfigsPerLane;
  const std::vector<Config> configs = PickConfigs(args.seed, per_lane);
  std::vector<std::vector<std::size_t>> lane_configs(kLanes);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    lane_configs[configs[i].lane].push_back(i);
  }

  // Set-up 1: direct in-process results for every (configuration, kind).
  // With a cache directory (serve_store) these Sessions fill the store.
  // Only the results stay: the Sessions are gone before the server
  // starts, so the peak RSS holds the server's Sessions alone.
  std::vector<std::vector<Expected>> expected(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Session s(OptionsFor(configs[i]));
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      expected[i].push_back(Reference(s, k));
    }
  }
  if (checks.Perturb("serve_series")) expected[0][3].figures[0].second.y[0] += 1.0;

  // Set-up 2: the server, two connections, and verified requests per
  // (configuration, kind) whose frames become the template later
  // responses must repeat. On serve_warm the first round computes and
  // the second, served from the resident Session, is the template.
  svc::ServerOptions so;
  so.port = 0;
  so.executors = kLanes;
  so.max_sessions = kMaxSessions;
  svc::Server server(so);
  server.Start();
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t t = 0; t < kLanes; ++t) {
    conns.push_back(std::make_unique<Connection>(server.port()));
    if (!conns.back()->ok()) throw std::runtime_error("cannot connect");
  }
  std::vector<std::vector<Template>> templates(
      configs.size(), std::vector<Template>(kNumKinds));
  std::uint64_t sent = 0;
  Failures priming;
  const int rounds = from_store ? 1 : 2;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      for (std::size_t k = 0; k < kNumKinds; ++k) {
        const std::string id = "prime-" + std::to_string(round) + "-" +
                               std::to_string(i) + "-" + std::to_string(k);
        std::vector<std::string> chunks;
        std::string final_frame;
        ++sent;
        if (!conns[configs[i].lane]->RoundTrip(RequestLine(configs[i], k, id),
                                               chunks, final_frame)) {
          priming.Add("transport failure on " + id);
          continue;
        }
        const std::optional<Json> f = Json::Parse(final_frame);
        std::string why;
        FinalFrame split;
        if (!f || !FinalOk(*f, id, from_store || round > 0, why) ||
            !MatchesReference(chunks, *f, expected[i][k], why) ||
            !SplitFinal(final_frame, id, split)) {
          priming.Add(why.empty() ? "unparsable final frame" : why);
          continue;
        }
        Template& t = templates[i][k];
        t.chunks.clear();
        for (const std::string& c : chunks) t.chunks.emplace_back(ChunkBody(c));
        t.final_body = std::move(split.body);
      }
    }
  }
  checks.Expect(priming.count == 0, from_store ? "store_series" : "serve_series",
                priming.first);
  // Return what set-up freed (the direct Sessions) to the system, so the
  // resident set of the serving phase holds what the server keeps.
  ::malloc_trim(0);
  const double setup_s = NowS();
  // Largest resident set sampled by connection 0 (joined before use), or
  // read at the end of a phase too short to take a sample.
  double serving_rss_mb = -1.0;

  // Timed phase: each connection cycles its lane's configurations and
  // the request mix, closed loop, until the deadline, in whole cycles.
  std::vector<std::vector<Sample>> samples(kLanes);
  std::vector<Failures> failures(kLanes);
  std::vector<std::uint64_t> attempts(kLanes, 0);
  const double begin = NowS();
  const double cpu_begin = ProcessCpuS();
  const double deadline = begin + args.seconds;
  // Throughput and CPU per request are read per one-second window and
  // reported as the median window, so a stall of the shared host in a
  // few windows does not move them.
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.seconds));
  std::vector<double> cpu_marks{cpu_begin};
  {
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kLanes; ++t) {
      clients.emplace_back([&, t] {
        Connection& conn = *conns[t];
        const std::vector<std::size_t>& mine = lane_configs[t];
        std::vector<std::string> chunks;
        std::string final_frame;
        FinalFrame got;
        for (std::uint64_t n = 0; n % kCycleLength != 0 || NowS() < deadline; ++n) {
          const std::size_t ci = mine[n % mine.size()];
          const std::size_t kind = kCycle[n % kCycleLength];
          const std::string id = "c" + std::to_string(t) + "-" + std::to_string(n);
          const std::string line = RequestLine(configs[ci], kind, id);
          ++attempts[t];
          const double start = NowS();
          bool answered = false;
          {
            const auto span = tracer.Open("request", (t << 32) | (n + 1));
            answered = conn.RoundTrip(line, chunks, final_frame);
          }
          const double rtt_us = 1e6 * (NowS() - start);
          if (!answered) {
            failures[t].Add("transport failure on " + id);
            return;
          }
          // Byte comparison with the verified template: every frame
          // carries this request's id, and the final frame's status,
          // `cached` flag and body repeat the template's.
          const Template& want = templates[ci][kind];
          const bool misread = checks.Perturb("ids") && n == 3;
          const std::string chunk_prefix = "{\"v\":2,\"id\":\"" + id + "\",";
          bool ok = SplitFinal(final_frame, misread ? id + "x" : id, got) &&
                    got.body == want.final_body &&
                    chunks.size() == want.chunks.size();
          for (std::size_t c = 0; ok && c < chunks.size(); ++c) {
            ok = chunks[c].starts_with(chunk_prefix) &&
                 ChunkBody(chunks[c]) == want.chunks[c];
          }
          if (!ok) {
            failures[t].Add("response to " + id +
                            " differs from its verified template");
            continue;
          }
          Sample s;
          s.kind = kind;
          s.end_s = start + 1e-6 * rtt_us;
          s.rtt_us = rtt_us;
          s.elapsed_us = static_cast<double>(got.elapsed_us);
          s.queue_us = static_cast<double>(got.queue_us);
          s.frames = chunks.size() + 1;
          s.bytes = final_frame.size() + 1;
          for (const std::string& c : chunks) s.bytes += c.size() + 1;
          samples[t].push_back(s);
          if (t == 0 && samples[t].size() % kRssEvery == 0 &&
              samples[t].size() <= kRssRequests) {
            serving_rss_mb = std::max(serving_rss_mb, ResidentMb());
          }
        }
      });
    }
    // Process CPU at each whole second of the timed phase.
    for (std::size_t w = 1; w <= windows; ++w) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(0.0, begin + static_cast<double>(w) - NowS())));
      cpu_marks.push_back(ProcessCpuS());
    }
    for (std::thread& c : clients) c.join();
  }
  const double phase_s = NowS() - begin;
  if (serving_rss_mb < 0.0) serving_rss_mb = ResidentMb();
  std::vector<double> window_requests(windows, 0.0);
  for (const std::vector<Sample>& per : samples) {
    for (const Sample& s : per) {
      const double w = std::floor(s.end_s - begin);
      if (w >= 0.0 && w < static_cast<double>(windows)) {
        window_requests[static_cast<std::size_t>(w)] += 1.0;
      }
    }
  }
  std::vector<double> window_cpu_ms;
  for (std::size_t w = 0; w < windows; ++w) {
    if (window_requests[w] > 0.0) {
      window_cpu_ms.push_back(1e3 * (cpu_marks[w + 1] - cpu_marks[w]) /
                              window_requests[w]);
    }
  }

  // Exactly one answer per request: nothing left unread on either
  // connection, and the server counted one response per request sent.
  bool stray = false;
  for (auto& c : conns) stray = stray || c->Pending(50);
  std::uint64_t timed = 0;
  std::uint64_t failed = 0;
  for (std::size_t t = 0; t < kLanes; ++t) {
    timed += attempts[t];
    failed += failures[t].count;
    checks.Expect(failures[t].count == 0, from_store ? "store_series" : "serve_series",
                  failures[t].first);
  }
  sent += timed;
  const svc::ServerStats stats = server.stats();
  const topogen::core::CacheStats cache = server.SessionCacheStats();
  std::uint64_t expect_responses = sent;
  if (checks.Perturb("answered")) ++expect_responses;
  checks.Expect(!stray && stats.responses == expect_responses &&
                    stats.admitted == sent && stats.response_errors == 0 &&
                    stats.parse_errors == 0,
                "answered",
                "server answered " + std::to_string(stats.responses) + " of " +
                    std::to_string(sent) + " requests" +
                    (stray ? ", with stray frames" : ""));
  const std::uint64_t sheds = stats.rejected_overloaded +
                              (checks.Perturb("sheds") ? 1 : 0);
  checks.Expect(sheds == 0 && stats.rejected_inflight_cap == 0 &&
                    stats.rejected_queue_full == 0 &&
                    stats.lane_stall_failures == 0,
                "sheds", "the server shed or rejected requests");
  const std::uint64_t hits = cache.metrics_hits + cache.linkvalue_hits +
                             cache.topology_hits;
  std::uint64_t misses = cache.metrics_misses + cache.linkvalue_misses +
                         cache.topology_misses;
  if (checks.Perturb("hit_ratio")) ++misses;
  if (from_store) {
    checks.Expect(hits > 0 && misses == 0, "hit_ratio",
                  std::to_string(misses) + " store misses in resident Sessions");
  }

  std::vector<double> rtt;
  std::vector<std::vector<double>> kind_rtt(kNumKinds);
  std::vector<double> elapsed;
  std::vector<double> queue;
  std::vector<double> wire;
  std::vector<double> bytes;
  std::vector<double> frames;
  for (const std::vector<Sample>& per : samples) {
    for (const Sample& s : per) {
      rtt.push_back(s.rtt_us);
      kind_rtt[s.kind].push_back(s.rtt_us);
      elapsed.push_back(s.elapsed_us);
      queue.push_back(s.queue_us);
      wire.push_back(s.rtt_us - s.elapsed_us);
      bytes.push_back(static_cast<double>(s.bytes));
      frames.push_back(static_cast<double>(s.frames));
    }
  }
  // The round-trip metric: the mean over the kinds of each kind's
  // median, so a change to any one kind moves it by that kind's share
  // of the cycle, which a median over all requests would not show.
  double mix_p50_us = 0.0;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    const double p50 = Median(kind_rtt[k]);
    mix_p50_us += p50 / static_cast<double>(kNumKinds);
    std::fprintf(stderr, "# %s %s: %zu requests, p50 %.1f us, p99 %.1f us\n",
                 args.workload.c_str(), kKinds[k].label, kind_rtt[k].size(),
                 p50, Percentile(kind_rtt[k], 0.99));
  }
  std::fprintf(stderr,
               "# %s: %zu configurations, %llu requests in %.2f s, mix p50 "
               "%.1f us, all-request p50 %.1f us, p99 %.1f us, serving RSS "
               "%.1f MB, process peak RSS %.1f MB\n",
               args.workload.c_str(), configs.size(),
               static_cast<unsigned long long>(timed), phase_s, mix_p50_us,
               Median(rtt), Percentile(rtt, 0.99), serving_rss_mb, PeakRssMb());

  if (!args.trace) {
    server.Stop();
    PrintResult(checks.ok(), timed, failed,
                {{"setup_s", setup_s, "s"},
                 {"op_p50_ms", 1e-3 * mix_p50_us, "ms"},
                 {"op_cpu_ms", Median(window_cpu_ms), "ms"},
                 {"ops_per_s", Median(window_requests), "1/s"},
                 {"peak_rss_mb", serving_rss_mb, "MB"}});
    return 0;
  }

  std::map<std::string, double> layers;
  layers["service.server_elapsed_us"] = Median(elapsed);
  layers["service.queue_us"] = Median(queue);
  layers["service.wire_us"] = Median(wire);
  layers["service.response_bytes"] = MeanOf(bytes);
  layers["service.frames_per_response"] = MeanOf(frames);
  // Timed-phase wall time outside the request spans (the client's own
  // checks between requests), averaged over the two connections.
  layers["trace.unattributed_s"] =
      phase_s - tracer.Aggregate()["request"].inclusive_s / kLanes;
  layers["service.dedup_ratio"] =
      stats.admitted > 0 ? static_cast<double>(stats.deduped) /
                               static_cast<double>(stats.admitted)
                         : 0.0;
  if (from_store) {
    layers["core.cache_hit_ratio"] =
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
  }
  server.Stop();

  // Probes of single layers on the workload's own inputs, one cycle of
  // the mix per repetition.
  constexpr int kReps = 200;
  const Config& c0 = configs[lane_configs[0][0]];
  const std::size_t c0_index = lane_configs[0][0];
  std::vector<std::string> lines;
  std::vector<std::size_t> response_bytes;
  for (const std::size_t k : kCycle) {
    lines.push_back(RequestLine(c0, k, "probe"));
    const Template& t = templates[c0_index][k];
    std::size_t b = t.final_body.size() + 32;
    for (const std::string& c : t.chunks) b += c.size() + 24;
    response_bytes.push_back(b);
  }
  {
    std::vector<double> per;
    for (int r = 0; r < kReps; ++r) {
      const auto span = tracer.Open("service.parse");
      const double start = NowS();
      for (const std::string& l : lines) {
        checks.Expect(svc::ParseRequest(l).request.has_value(), "parse",
                      "probe request did not parse");
      }
      per.push_back(1e6 * (NowS() - start) / static_cast<double>(lines.size()));
    }
    layers["service.parse_us"] = Median(per);
  }
  {
    const std::size_t chunk = topogen::service::kDefaultStreamChunkPoints;
    std::vector<double> per;
    std::size_t rendered = 0;
    for (int r = 0; r < kReps; ++r) {
      const auto span = tracer.Open("service.render");
      const double start = NowS();
      for (const std::size_t k : kCycle) {
        const Expected& e = expected[c0_index][k];
        std::uint64_t seq = 0;
        for (const auto& [metric, series] : e.figures) {
          for (std::size_t b = 0; b < series.size(); b += chunk) {
            rendered += svc::StreamChunkFrame("probe", seq++, metric, series, b,
                                              std::min(series.size(), b + chunk))
                            .size();
          }
        }
        svc::ResponseBuilder rb("probe");
        rb.AddString("topology", kKinds[k].topology);
        rb.AddBool("cached", true);
        if (!e.signature.empty()) rb.AddSignature(e.signature);
        rendered += svc::StreamFinalFrame(seq, std::move(rb).Finish()).size();
      }
      per.push_back(1e6 * (NowS() - start) / static_cast<double>(kCycleLength));
    }
    layers["service.render_us"] = Median(per);
    checks.Expect(rendered > 0, "render", "nothing rendered");
  }
  {
    EchoPeer peer;
    Connection echo(peer.port());
    std::vector<double> per;
    std::string reply;
    for (int r = 0; r < kReps / 4 && echo.ok(); ++r) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        std::string line = std::to_string(response_bytes[i]);
        line.resize(lines[i].size(), ' ');
        const double start = NowS();
        if (!echo.RoundTripLine(line, reply)) break;
        per.push_back(1e6 * (NowS() - start));
      }
    }
    layers["socket.echo_rtt_us"] = Median(per);
  }
  if (!from_store) {
    // A Session of its own, computed once, then timed on hits.
    Session s(OptionsFor(c0));
    s.Metrics("AS");
    s.LinkValues("PLRG");
    const topogen::core::CacheStats before = s.cache_stats();
    std::vector<double> per;
    for (int r = 0; r < kReps * 10; ++r) {
      const auto span = tracer.Open("core.session_hit");
      const double start = NowS();
      s.Metrics("AS");
      s.LinkValues("PLRG");
      per.push_back(1e6 * (NowS() - start) / 2.0);
    }
    const topogen::core::CacheStats after = s.cache_stats();
    checks.Expect(after.metrics_misses == before.metrics_misses &&
                      after.linkvalue_misses == before.linkvalue_misses,
                  "session_hit", "a resident Session recomputed");
    layers["core.session_hit_us"] = Median(per);
  } else {
    std::vector<double> open_us;
    std::vector<double> metrics_us;
    std::vector<double> lv_us;
    std::uint64_t probe_misses = 0;
    for (int r = 0; r < kReps / 4; ++r) {
      const Config& c = configs[static_cast<std::size_t>(r) % configs.size()];
      const SessionOptions options = OptionsFor(c);
      double t0 = NowS();
      std::optional<Session> s;
      {
        const auto span = tracer.Open("core.session_open");
        s.emplace(options);
      }
      double t1 = NowS();
      {
        const auto span = tracer.Open("store.metrics_load");
        s->TryMetrics("AS");
      }
      double t2 = NowS();
      {
        const auto span = tracer.Open("store.linkvalue_load");
        s->TryLinkValues("PLRG");
      }
      double t3 = NowS();
      open_us.push_back(1e6 * (t1 - t0));
      metrics_us.push_back(1e6 * (t2 - t1));
      lv_us.push_back(1e6 * (t3 - t2));
      const topogen::core::CacheStats& cs = s->cache_stats();
      probe_misses += cs.metrics_misses + cs.linkvalue_misses + cs.topology_misses;
    }
    checks.Expect(probe_misses == 0, "hit_ratio",
                  "a fresh Session missed the store");
    layers["core.session_open_us"] = Median(open_us);
    layers["store.metrics_load_us"] = Median(metrics_us);
    layers["store.linkvalue_load_us"] = Median(lv_us);
    std::uintmax_t artifact_bytes = 0;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             args.tmpdir + "/cache")) {
      if (entry.is_regular_file() && entry.path().extension() == ".art") {
        artifact_bytes += entry.file_size();
      }
    }
    layers["store.artifact_bytes"] = static_cast<double>(artifact_bytes);
  }
  FinishTrace(args, tracer);
  PrintResult(checks.ok(), timed, failed, LayerMetrics(layers));
  return 0;
}

}  // namespace perfbench
