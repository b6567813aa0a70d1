// The `figures` workload: the paper's product. One pass computes what the
// Figure 2 benches compute (the basic-metrics suite over the 15 plain and
// policy roster requests, batched in one in-memory core::Session) and
// what the Figures 3-5 benches compute (plain and policy link values),
// then renders every series through core/report. The traced mode makes
// the same pass as sequential calls into each layer, with a span around
// each call, and must reproduce the batched pass bit for bit.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/roster.h"
#include "core/scale.h"
#include "core/session.h"
#include "graph/bfs.h"
#include "graph/bfs_scratch.h"
#include "graph/rng.h"
#include "hierarchy/link_value.h"
#include "metrics/classification.h"
#include "workloads.h"

namespace perfbench {

namespace {

using topogen::core::BasicMetrics;
using topogen::core::Session;
using topogen::core::SessionOptions;
using topogen::core::Topology;
using topogen::graph::Graph;
using topogen::graph::NodeId;
using topogen::hierarchy::LinkValueResult;
using topogen::metrics::Series;

// Figure 2's requests, in panel order: canonical (0-2), measured (3-6),
// generated (7-10), degree-based (11-14).
const Session::MetricsRequest kMetricRequests[] = {
    {"Tree"},  {"Mesh"},  {"Random"},                                //
    {"RL"},    {"RL", true}, {"AS"},     {"AS", true},               //
    {"TS"},    {"Tiers"},    {"Waxman"}, {"PLRG"},                   //
    {"B-A"},   {"Brite"},    {"BT"},     {"Inet"},                   //
};
constexpr std::size_t kNumMetricRequests = std::size(kMetricRequests);

// Figures 3-5: plain link values (3a canonical, 3b measured, 3c
// generated), plus the policy variant of the measured pair.
const char* const kLinkValueIds[] = {"Tree", "Mesh",  "Random",
                                     "RL",   "AS",    "TS",
                                     "Tiers", "Waxman", "PLRG"};
constexpr std::size_t kNumLinkValueIds = std::size(kLinkValueIds);
const char* const kPolicyLinkValueIds[] = {"RL", "AS"};
constexpr std::size_t kNumPolicyLinkValueIds = std::size(kPolicyLinkValueIds);

constexpr std::uint64_t kArtifactsPerPass =
    kNumMetricRequests + kNumLinkValueIds + kNumPolicyLinkValueIds;

// A roster and budgets below the small tier, so that one pass takes a
// few seconds at two threads and a run holds several passes. Link values
// and the basic metrics each take 40-55% of a pass. Pass `pass` of a run
// seeds the generators from (workload seed, pass), so the passes of one
// run sample the roster's seed-to-seed variation instead of repeating
// one draw of it. There is no cache: every pass computes everything.
SessionOptions FiguresOptions(std::uint64_t seed, std::uint64_t pass) {
  SessionOptions so;
  so.roster.seed = 1 + topogen::graph::DeriveStream(seed, pass) % 1000000000ull;
  so.roster.as_nodes = 800;
  so.roster.rl_expansion_ratio = 4.0;
  so.roster.plrg_nodes = 2000;
  so.roster.degree_based_nodes = 1500;
  so.suite = topogen::core::ScaledSuiteOptions("small");
  so.suite.ball.max_centers = 4;
  so.suite.ball.big_ball_centers = 2;
  so.suite.ball.max_ball_nodes = 1200;
  so.suite.expansion.max_sources = 300;
  so.link_value.max_sources = 120;
  so.link_value.seed = 23;
  return so;
}

// Every number one pass produces, in render order. Pointers are owned by
// the pass (a Session, or the sequential pass's own containers); nullptr
// marks a degraded slot.
struct PassResults {
  std::vector<const BasicMetrics*> basic;               // kMetricRequests
  std::vector<const Topology*> lv_topology;             // kLinkValueIds
  std::vector<const LinkValueResult*> lv_plain;         // kLinkValueIds
  std::vector<const LinkValueResult*> lv_policy;        // kPolicyLinkValueIds
};

std::size_t LinkValueIndex(std::string_view id) {
  for (std::size_t i = 0; i < kNumLinkValueIds; ++i) {
    if (id == kLinkValueIds[i]) return i;
  }
  return kNumLinkValueIds;
}

const Series& RowSeries(int row, const BasicMetrics& b) {
  return row == 0 ? b.expansion : row == 1 ? b.resilience : b.distortion;
}

// The Figure 2, 3/4 and 5 output, as the figure benches print it.
std::string Render(const PassResults& r) {
  std::ostringstream os;
  const char* const row_names[] = {"Expansion", "Resilience", "Distortion"};
  const char* const panel_ids[3][4] = {{"2a", "2d", "2g", "2j"},
                                       {"2b", "2e", "2h", "2k"},
                                       {"2c", "2f", "2i", "2l"}};
  for (int row = 0; row < 3; ++row) {
    auto slice = [&](std::size_t first, std::size_t count) {
      std::vector<Series> group;
      for (std::size_t i = first; i < first + count; ++i) {
        if (r.basic[i] != nullptr) group.push_back(RowSeries(row, *r.basic[i]));
      }
      return group;
    };
    const std::string name = row_names[row];
    topogen::core::PrintPanel(os, panel_ids[row][0], name + ", Canonical",
                              slice(0, 3));
    topogen::core::PrintPanel(os, panel_ids[row][1], name + ", Measured",
                              slice(3, 4));
    topogen::core::PrintPanel(os, panel_ids[row][2], name + ", Generated",
                              slice(7, 4));
    std::vector<Series> degree_based = slice(11, 4);
    if (r.basic[10] != nullptr) {
      degree_based.push_back(RowSeries(row, *r.basic[10]));  // PLRG again
    }
    topogen::core::PrintPanel(os, panel_ids[row][3],
                              name + ", Degree-Based Generators",
                              degree_based);
  }

  auto lv_panel = [&](const char* id, const char* title, std::size_t first,
                      std::size_t count) {
    std::vector<Series> curves;
    for (std::size_t i = first; i < first + count; ++i) {
      if (r.lv_plain[i] == nullptr) continue;
      Series s = r.lv_plain[i]->RankDistribution();
      s.name = kLinkValueIds[i];
      curves.push_back(std::move(s));
      for (std::size_t p = 0; p < kNumPolicyLinkValueIds; ++p) {
        if (r.lv_policy[p] == nullptr ||
            LinkValueIndex(kPolicyLinkValueIds[p]) != i) {
          continue;
        }
        Series ps = r.lv_policy[p]->RankDistribution();
        ps.name = std::string(kLinkValueIds[i]) + "(Policy)";
        curves.push_back(std::move(ps));
      }
    }
    topogen::core::PrintPanel(os, id, title, curves);
  };
  lv_panel("3a", "Link values, Canonical", 0, 3);
  lv_panel("3b", "Link values, Measured", 3, 2);
  lv_panel("3c", "Link values, Generated", 5, 4);

  topogen::core::PrintTableHeader(os, {"Topology", "Pearson", "Spearman"});
  for (std::size_t i = 0; i < kNumLinkValueIds; ++i) {
    if (r.lv_plain[i] == nullptr || r.lv_topology[i] == nullptr) continue;
    const Graph& g = r.lv_topology[i]->graph;
    topogen::core::PrintTableRow(
        os, {kLinkValueIds[i],
             topogen::core::Num(r.lv_plain[i]->DegreeCorrelation(g), 3),
             topogen::core::Num(r.lv_plain[i]->DegreeRankCorrelation(g), 3)});
  }
  return os.str();
}

// One pass through a fresh batched Session, as the figure benches run.
struct BatchedPass {
  std::unique_ptr<Session> session;
  PassResults results;
  std::string text;
  std::uint64_t digest = 0;
  std::uint64_t degraded = 0;
};

BatchedPass RunBatchedPass(const SessionOptions& options) {
  BatchedPass pass;
  pass.session = std::make_unique<Session>(options);
  Session& s = *pass.session;
  PassResults& r = pass.results;
  r.basic = s.MetricsBatch(kMetricRequests);
  for (const char* id : kLinkValueIds) {
    r.lv_plain.push_back(s.TryLinkValues(id));
    r.lv_topology.push_back(r.lv_plain.back() != nullptr ? &s.Topology(id)
                                                          : nullptr);
  }
  for (const char* id : kPolicyLinkValueIds) {
    r.lv_policy.push_back(s.TryLinkValues(id, /*use_policy=*/true));
  }
  pass.text = Render(r);
  pass.digest = Fnv1a(pass.text);
  pass.degraded = s.degraded().size();
  return pass;
}

// The roster factory behind a Session id (core/session.cc's MakeById).
Topology MakeById(std::string_view id,
                  const topogen::core::RosterOptions& ro) {
  namespace core = topogen::core;
  if (id == "Tree") return core::MakeTree(ro);
  if (id == "Mesh") return core::MakeMesh(ro);
  if (id == "Random") return core::MakeRandom(ro);
  if (id == "TS") return core::MakeTransitStub(ro);
  if (id == "Tiers") return core::MakeTiers(ro);
  if (id == "Waxman") return core::MakeWaxman(ro);
  if (id == "PLRG") return core::MakePlrg(ro);
  if (id == "B-A") return core::MakeBa(ro);
  if (id == "Brite") return core::MakeBrite(ro);
  if (id == "BT") return core::MakeBt(ro);
  if (id == "Inet") return core::MakeInet(ro);
  if (id == "AS") return core::MakeAs(ro);
  return core::MakeRl(ro).topology;
}

// The same pass as sequential calls into each layer, each under a span.
struct SequentialPass {
  std::map<std::string, Topology, std::less<>> topologies;
  std::vector<BasicMetrics> basic;
  std::vector<LinkValueResult> lv_plain;
  std::vector<LinkValueResult> lv_policy;
  PassResults results;
  std::string text;
  std::uint64_t digest = 0;
  double source_edges = 0.0;  // sum over plain link-value calls
};

void RunSequentialPass(const SessionOptions& options, Tracer& tracer,
                       SequentialPass& pass) {
  namespace metrics = topogen::metrics;
  namespace hierarchy = topogen::hierarchy;
  const auto root = tracer.Open("figures.pass");
  auto topology = [&](std::string_view id) -> const Topology& {
    auto it = pass.topologies.find(id);
    if (it == pass.topologies.end()) {
      const auto span = tracer.Open("gen");
      it = pass.topologies.emplace(std::string(id), MakeById(id, options.roster))
               .first;
    }
    return it->second;
  };

  pass.basic.reserve(kNumMetricRequests);
  for (const Session::MetricsRequest& req : kMetricRequests) {
    const Topology& t = topology(req.id);
    const Graph& g = t.graph;
    BasicMetrics b;
    if (req.use_policy) {
      {
        const auto span = tracer.Open("policy.metrics");
        b.expansion =
            metrics::PolicyExpansion(g, t.relationship, options.suite.expansion);
      }
      {
        const auto span = tracer.Open("policy.metrics");
        b.resilience =
            metrics::PolicyResilience(g, t.relationship, options.suite.ball);
      }
      {
        const auto span = tracer.Open("policy.metrics");
        b.distortion =
            metrics::PolicyDistortion(g, t.relationship, options.suite.ball);
      }
    } else {
      {
        const auto span = tracer.Open("metrics.expansion");
        b.expansion = metrics::Expansion(g, options.suite.expansion);
      }
      {
        const auto span = tracer.Open("metrics.resilience");
        b.resilience = metrics::Resilience(g, options.suite.ball);
      }
      {
        const auto span = tracer.Open("metrics.distortion");
        b.distortion = metrics::Distortion(g, options.suite.ball);
      }
    }
    const std::string name = t.name + (req.use_policy ? "(Policy)" : "");
    b.expansion.name = name;
    b.resilience.name = name;
    b.distortion.name = name;
    b.signature = metrics::Classify(b.expansion, b.resilience, b.distortion,
                                    options.suite.classifier);
    pass.basic.push_back(std::move(b));
  }

  pass.lv_plain.reserve(kNumLinkValueIds);
  for (const char* id : kLinkValueIds) {
    const Graph& g = topology(id).graph;
    const auto span = tracer.Open("hierarchy.link_values");
    pass.lv_plain.push_back(hierarchy::ComputeLinkValues(g, options.link_value));
    const std::size_t n = g.num_nodes();
    const std::size_t sources = options.link_value.max_sources == 0
                                    ? n
                                    : std::min(n, options.link_value.max_sources);
    pass.source_edges +=
        static_cast<double>(sources) * static_cast<double>(g.num_edges());
  }
  pass.lv_policy.reserve(kNumPolicyLinkValueIds);
  for (const char* id : kPolicyLinkValueIds) {
    const Topology& t = topology(id);
    const auto span = tracer.Open("hierarchy.policy_link_values");
    pass.lv_policy.push_back(hierarchy::ComputePolicyLinkValues(
        t.graph, t.relationship, options.link_value));
  }

  PassResults& r = pass.results;
  for (const BasicMetrics& b : pass.basic) r.basic.push_back(&b);
  for (std::size_t i = 0; i < kNumLinkValueIds; ++i) {
    r.lv_plain.push_back(&pass.lv_plain[i]);
    r.lv_topology.push_back(&topology(kLinkValueIds[i]));
  }
  for (const LinkValueResult& lv : pass.lv_policy) r.lv_policy.push_back(&lv);
  {
    const auto span = tracer.Open("core.render");
    pass.text = Render(r);
  }
  pass.digest = Fnv1a(pass.text);
}

// ---------------------------------------------------------------- checks

bool SameSeries(const Series& a, const Series& b) {
  return a.name == b.name && a.x == b.x && a.y == b.y && a.yerr == b.yerr;
}

// Mesh expansion with every node as a source against the count of node
// pairs within h hops, from Manhattan distance on the 30x30 grid.
void CheckMeshExpansion(const Graph& mesh, Checks& checks) {
  constexpr int kSide = 30;
  constexpr std::size_t n = kSide * kSide;
  if (mesh.num_nodes() != n) {
    checks.Expect(false, "mesh", "Mesh has " +
                                     std::to_string(mesh.num_nodes()) +
                                     " nodes, not 30x30");
    return;
  }
  // pairs[d] = ordered pairs (u, v), u == v included, at distance d.
  std::vector<std::uint64_t> pairs(2 * kSide - 1, 0);
  for (int a = 0; a < kSide * kSide; ++a) {
    for (int b = 0; b < kSide * kSide; ++b) {
      ++pairs[std::abs(a / kSide - b / kSide) + std::abs(a % kSide - b % kSide)];
    }
  }
  if (checks.Perturb("mesh")) pairs[1] += 1;
  topogen::metrics::ExpansionOptions all;
  all.max_sources = n;
  const Series e = topogen::metrics::Expansion(mesh, all);
  bool ok = e.size() == pairs.size() - 1;
  std::uint64_t within = pairs[0];
  for (std::size_t h = 1; ok && h < pairs.size(); ++h) {
    within += pairs[h];
    const double expected = static_cast<double>(within) /
                            static_cast<double>(n) / static_cast<double>(n);
    ok = e.x[h - 1] == static_cast<double>(h) && e.y[h - 1] == expected;
  }
  checks.Expect(ok, "mesh",
                "Mesh E(h) over all sources differs from the Manhattan count");
}

// Tree link values with every node as a source: each link's value is
// min(|A|, |B|) for the two sides it separates.
void CheckTreeLinkValues(const Graph& tree, Checks& checks) {
  const NodeId n = tree.num_nodes();
  std::vector<NodeId> parent(n, topogen::graph::kInvalidNode);
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<char> seen(n, 0);
  order.push_back(0);
  seen[0] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const NodeId v : tree.neighbors(order[head])) {
      if (seen[v]) continue;
      seen[v] = 1;
      parent[v] = order[head];
      order.push_back(v);
    }
  }
  std::vector<std::uint64_t> below(n, 1);  // subtree sizes
  for (std::size_t i = order.size(); i-- > 1;) below[parent[order[i]]] += below[order[i]];
  if (checks.Perturb("tree_lv")) below[order.back()] += 1;

  topogen::hierarchy::LinkValueOptions all;
  all.max_sources = 0;
  const LinkValueResult lv = topogen::hierarchy::ComputeLinkValues(tree, all);
  bool ok = order.size() == n && tree.num_edges() == n - 1 &&
            lv.value.size() == tree.num_edges();
  std::string detail = "Tree link values differ from min(|A|, |B|)";
  for (std::size_t e = 0; ok && e < tree.num_edges(); ++e) {
    const auto [u, v] = tree.edges()[e];
    const NodeId child = parent[v] == u ? v : u;
    const std::uint64_t side = below[child];
    const double expected = static_cast<double>(std::min(side, n - side));
    if (lv.value[e] != expected) {
      ok = false;
      detail += " at edge " + std::to_string(e) + ": " +
                std::to_string(lv.value[e]) + " vs " + std::to_string(expected);
    }
  }
  checks.Expect(ok, "tree_lv", detail);
}

// The benchmark's own queue BFS against graph::BfsDistancesInto.
void CheckBfs(const Graph& g, Checks& checks) {
  const NodeId n = g.num_nodes();
  topogen::graph::BfsScratchLease scratch = topogen::graph::AcquireBfsScratch();
  bool ok = n > 0;
  for (NodeId k = 0; ok && k < 16; ++k) {
    const NodeId src = static_cast<NodeId>((static_cast<std::uint64_t>(k) * n) / 16);
    std::vector<std::uint32_t> dist(n, topogen::graph::kUnreachable);
    std::vector<NodeId> queue{src};
    dist[src] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const NodeId v : g.neighbors(u)) {
        if (dist[v] != topogen::graph::kUnreachable) continue;
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
    if (checks.Perturb("bfs")) dist[queue.back()] += 1;
    topogen::graph::BfsDistancesInto(g, src, *scratch);
    for (NodeId v = 0; ok && v < n; ++v) ok = scratch->dist(v) == dist[v];
  }
  checks.Expect(ok, "bfs", "BfsDistancesInto differs from a queue BFS");
}

void CheckPass(const BatchedPass& pass, Checks& checks) {
  const PassResults& r = pass.results;
  Session& s = *pass.session;
  CheckMeshExpansion(s.Topology("Mesh").graph, checks);
  CheckTreeLinkValues(s.Topology("Tree").graph, checks);
  CheckBfs(s.Topology("PLRG").graph, checks);

  bool present = true;
  for (const BasicMetrics* b : r.basic) present = present && b != nullptr;
  for (const LinkValueResult* lv : r.lv_plain) present = present && lv != nullptr;
  for (const LinkValueResult* lv : r.lv_policy) present = present && lv != nullptr;
  const std::uint64_t degraded = pass.degraded + (checks.Perturb("degraded") ? 1 : 0);
  checks.Expect(present && degraded == 0, "degraded",
                std::to_string(degraded) + " degraded slots");
  if (!present) return;

  Series distortion = r.basic[0]->distortion;  // Tree
  if (checks.Perturb("tree_distortion")) distortion.y.back() = 1.5;
  bool unit = !distortion.empty();
  for (const double y : distortion.y) unit = unit && y == 1.0;
  checks.Expect(unit, "tree_distortion", "Tree distortion is not 1 everywhere");

  for (std::size_t i = 0; i < kNumMetricRequests; ++i) {
    Series e = r.basic[i]->expansion;
    if (checks.Perturb("monotone") && i == 0 && e.size() > 1) {
      std::swap(e.y.front(), e.y.back());
    }
    bool ok = !e.empty();
    for (std::size_t h = 0; ok && h < e.size(); ++h) {
      ok = e.y[h] > 0.0 && e.y[h] <= 1.0 && (h == 0 || e.y[h] >= e.y[h - 1]);
    }
    checks.Expect(ok, "monotone",
                  e.name + " E(h) is not nondecreasing within (0, 1]");

    // Section 4: Mesh and Tiers have low expansion, all others high.
    const std::string id = kMetricRequests[i].id;
    char expected = (id == "Mesh" || id == "Tiers") ? 'L' : 'H';
    if (checks.Perturb("signature") && id == "Mesh") expected = 'H';
    const std::string sig = r.basic[i]->signature.ToString();
    checks.Expect(sig[0] == expected, "signature",
                  r.basic[i]->expansion.name + " signature " + sig +
                      ", expected expansion " + expected);
  }
}

// Sequential layer calls must reproduce the batched Session bit for bit.
void CheckSequential(const BatchedPass& batched, SequentialPass& seq,
                     Checks& checks) {
  if (checks.Perturb("sequential")) seq.basic[3].resilience.y[0] += 1.0;
  bool ok = true;
  for (std::size_t i = 0; i < kNumMetricRequests; ++i) {
    const BasicMetrics* b = batched.results.basic[i];
    ok = ok && b != nullptr && SameSeries(b->expansion, seq.basic[i].expansion) &&
         SameSeries(b->resilience, seq.basic[i].resilience) &&
         SameSeries(b->distortion, seq.basic[i].distortion) &&
         b->signature == seq.basic[i].signature;
  }
  for (std::size_t i = 0; i < kNumLinkValueIds; ++i) {
    const LinkValueResult* lv = batched.results.lv_plain[i];
    ok = ok && lv != nullptr && lv->value == seq.lv_plain[i].value;
  }
  for (std::size_t i = 0; i < kNumPolicyLinkValueIds; ++i) {
    const LinkValueResult* lv = batched.results.lv_policy[i];
    ok = ok && lv != nullptr && lv->value == seq.lv_policy[i].value;
  }
  checks.Expect(ok, "sequential",
                "sequential layer calls differ from the batched Session");
  if (checks.Perturb("digest")) seq.digest ^= 1;
  checks.Expect(seq.digest == batched.digest, "digest",
                "traced pass output digest differs from the untraced pass");
}

// BfsDistancesInto sweeps from evenly spread sources; edges per second
// counts every edge once per sweep.
double BfsEdgesPerSecond(const Graph& g, Tracer& tracer) {
  constexpr NodeId kSources = 256;
  const NodeId n = g.num_nodes();
  topogen::graph::BfsScratchLease scratch = topogen::graph::AcquireBfsScratch();
  const double start = NowS();
  {
    const auto span = tracer.Open("graph.bfs");
    for (NodeId k = 0; k < kSources; ++k) {
      topogen::graph::BfsDistancesInto(
          g, static_cast<NodeId>((static_cast<std::uint64_t>(k) * n) / kSources),
          *scratch);
    }
  }
  const double elapsed = NowS() - start;
  return static_cast<double>(kSources) * static_cast<double>(g.num_edges()) /
         elapsed;
}

}  // namespace

int RunFigures(const RunArgs& args, Checks& checks, Tracer& tracer) {
  // Set-up: one cold pass, pass 0, which the traced mode reproduces.
  const SessionOptions options = FiguresOptions(args.seed, 0);
  const BatchedPass reference = RunBatchedPass(options);
  const double setup_s = NowS();
  // The memory one cold pass needs. Later passes draw other roster seeds,
  // and the high-water mark over several of them would report the
  // largest draw rather than the pass.
  const double pass_rss_mb = PeakRssMb();
  CheckPass(reference, checks);

  std::uint64_t attempted = kArtifactsPerPass;
  std::uint64_t failed = reference.degraded;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::map<std::string, double> layers;

  if (!args.trace) {
    // Passes 1, 2, ... until --seconds of passes have run; the checks
    // run between passes, outside the timed spans.
    double timed_s = 0.0;
    for (std::uint64_t i = 1; timed_s < args.seconds; ++i) {
      const SessionOptions pass_options = FiguresOptions(args.seed, i);
      const double start = NowS();
      const double cpu = ProcessCpuS();
      const BatchedPass pass = RunBatchedPass(pass_options);
      cpu_s.push_back(ProcessCpuS() - cpu);
      wall_s.push_back(NowS() - start);
      timed_s += wall_s.back();
      attempted += kArtifactsPerPass;
      failed += pass.degraded;
      CheckPass(pass, checks);
    }
    double total_s = 0.0;
    for (const double w : wall_s) total_s += w;
    std::fprintf(stderr, "# figures: %zu passes, median %.3f s\n",
                 wall_s.size(), Median(wall_s));
    PrintResult(checks.ok(), attempted, failed,
                {{"setup_s", setup_s, "s"},
                 {"op_p50_ms", 1e3 * Median(wall_s), "ms"},
                 {"op_cpu_ms", 1e3 * Median(cpu_s), "ms"},
                 {"ops_per_s", static_cast<double>(wall_s.size()) / total_s, "1/s"},
                 {"peak_rss_mb", pass_rss_mb, "MB"}});
    return 0;
  }

  // Traced mode: sequential passes under spans for --seconds.
  std::size_t passes = 0;
  double source_edges = 0.0;
  double bfs_rate = 0.0;
  const double begin = NowS();
  do {
    SequentialPass seq;
    RunSequentialPass(options, tracer, seq);
    attempted += kArtifactsPerPass;
    source_edges += seq.source_edges;
    CheckSequential(reference, seq, checks);
    ++passes;
    if (passes == 1) bfs_rate = BfsEdgesPerSecond(seq.topologies.at("PLRG").graph, tracer);
  } while (NowS() - begin < args.seconds);

  const std::map<std::string, Tracer::Totals> totals = tracer.Aggregate();
  auto per_pass = [&](const char* name, double Tracer::Totals::*field) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.*field / static_cast<double>(passes);
  };
  using T = Tracer::Totals;
  for (const char* name : {"gen", "metrics.expansion", "metrics.resilience",
                           "metrics.distortion", "hierarchy.link_values",
                           "hierarchy.policy_link_values"}) {
    layers[std::string(name) + ".s"] = per_pass(name, &T::inclusive_s);
    layers[std::string(name) + ".cpu_s"] = per_pass(name, &T::cpu_s);
  }
  layers["policy.metrics.s"] = per_pass("policy.metrics", &T::inclusive_s);
  layers["core.render.s"] = per_pass("core.render", &T::inclusive_s);
  layers["trace.unattributed_s"] = per_pass("figures.pass", &T::self_s);
  const double lv_s = per_pass("hierarchy.link_values", &T::inclusive_s);
  layers["hierarchy.link_values.source_edges_per_s"] =
      lv_s > 0.0 ? source_edges / static_cast<double>(passes) / lv_s : 0.0;
  layers["graph.bfs.edges_per_s"] = bfs_rate;
  std::fprintf(stderr, "# figures: %zu traced passes, %.3f s per pass\n",
               passes, per_pass("figures.pass", &T::inclusive_s));
  FinishTrace(args, tracer);
  PrintResult(checks.ok(), attempted, failed, LayerMetrics(layers));
  return 0;
}

}  // namespace perfbench
