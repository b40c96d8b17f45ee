// The benchmark's in-process harness: builds sessions through the public
// MiningSession API and times what a user of each workload waits for.
// run.py drives it; every mode writes one JSON document to --out.
//
//   perfbench_harness reference --graph=G [--artifact=A] [--txn-map=T]
//       --requests=R --workers=4 --out=O
//     1-thread RunQuery answers (each worker owns a 1-thread session).
//   perfbench_harness inproc --graph=G --support=3 --threads=4 --requests=R
//       --passes=N --setup-reps=5 --out=O
//     Closed loop with one caller over a resident session: N passes over
//     the request list after one untimed warm-up query.
//   perfbench_harness build --graph=G --support=3 --threads=4 --builds=N
//       --work-dir=D --out=O
//     N load -> mine -> save -> open + validate builds; every artifact must
//     be byte-identical to the first.
//   perfbench_harness trace --graph=G --support=3 --threads=4 [--txn-map=T]
//       [--requests=R] --work-dir=D --spans=P --out=O
//     Per-layer metrics from spans around public calls and a replay of
//     RunQuery, checked against RunQuery's own counters and answers.
//
// A request line is space-separated key=value pairs using the serve
// protocol's keys: k dmax vmin seed seed_count measure txn_sample restarts.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/binary_io.h"
#include "pattern/dfs_code.h"
#include "pattern/spider_set.h"
#include "pattern/vf2.h"
#include "spider/spider_store_mmap.h"
#include "spidermine/session.h"
#include "spidermine/txn_adapter.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace spidermine;

// ------------------------------------------------------------ small utils

using Flags = std::map<std::string, std::string>;

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "1";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string Flag(const Flags& flags, const std::string& key,
                 const std::string& fallback = "") {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int64_t IntFlag(const Flags& flags, const std::string& key, int64_t fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : std::stoll(it->second);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    if constexpr (std::is_same_v<T, std::string>) {
      out += JsonString(values[i]);
    } else {
      out += JsonNumber(static_cast<double>(values[i]));
    }
  }
  return out + "]";
}

/// Ordered key -> already-rendered JSON value.
class JsonObject {
 public:
  void Put(const std::string& key, const std::string& rendered) {
    fields_.emplace_back(key, rendered);
  }
  void Num(const std::string& key, double v) { Put(key, JsonNumber(v)); }
  void Str(const std::string& key, const std::string& v) {
    Put(key, JsonString(v));
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonString(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text << "\n";
  if (!out) Die("cannot write " + path);
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

/// Byte equality of two files, read in chunks.
bool SameBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 20);
  std::vector<char> bb(1 << 20);
  while (true) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    std::streamsize na = fa.gcount();
    std::streamsize nb = fb.gcount();
    if (na != nb) return false;
    if (na == 0) return true;
    if (std::memcmp(ba.data(), bb.data(), static_cast<size_t>(na)) != 0) {
      return false;
    }
  }
}

struct Usage {
  double cpu_s = 0.0;
  int64_t max_rss_kb = 0;
  int64_t invol_ctx_switches = 0;
  int64_t minor_faults = 0;
};

Usage ReadUsage() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.max_rss_kb = ru.ru_maxrss;
  u.invol_ctx_switches = ru.ru_nivcsw;
  u.minor_faults = ru.ru_minflt;
  return u;
}

// --------------------------------------------------------------- requests

const std::vector<std::pair<std::string, SupportMeasureKind>>& Measures() {
  static const auto* measures =
      new std::vector<std::pair<std::string, SupportMeasureKind>>{
          {"vertex-mis", SupportMeasureKind::kGreedyMisVertex},
          {"edge-mis", SupportMeasureKind::kGreedyMisEdge},
          {"mni", SupportMeasureKind::kMinImage},
          {"count", SupportMeasureKind::kEmbeddingCount},
          {"homomorphism", SupportMeasureKind::kHomomorphism},
          {"transaction", SupportMeasureKind::kTransaction},
      };
  return *measures;
}

QueryConfig ParseRequest(const std::string& line) {
  QueryConfig q;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) Die("bad request token: " + token);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "measure") {
      bool found = false;
      for (const auto& [name, kind] : Measures()) {
        if (name == value) {
          q.support_measure = kind;
          found = true;
        }
      }
      if (!found) Die("unknown measure: " + value);
      continue;
    }
    const int64_t n = std::stoll(value);
    if (key == "k") {
      q.k = static_cast<int32_t>(n);
    } else if (key == "dmax") {
      q.dmax = static_cast<int32_t>(n);
    } else if (key == "vmin") {
      q.vmin = n;
    } else if (key == "seed") {
      q.rng_seed = static_cast<uint64_t>(n);
    } else if (key == "seed_count") {
      q.seed_count_override = n;
    } else if (key == "txn_sample") {
      q.txn_sample = n;
    } else if (key == "restarts") {
      q.restarts = static_cast<int32_t>(n);
    } else {
      Die("unknown request key: " + key);
    }
  }
  return q;
}

std::vector<QueryConfig> ReadRequests(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read requests " + path);
  std::vector<QueryConfig> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) requests.push_back(ParseRequest(line));
  }
  if (requests.empty()) Die("no requests in " + path);
  return requests;
}

/// The deterministic middle of a serve "ok" response (tools/serve_loop.cc
/// OkBody): what a transcript compares. Pattern text needs no escaping.
std::string RenderBody(const std::vector<MinedPattern>& patterns) {
  std::string body = ",\"ok\":true,\"patterns\":[";
  for (size_t i = 0; i < patterns.size(); ++i) {
    const MinedPattern& p = patterns[i];
    if (i > 0) body += ",";
    body += StrCat("{\"vertices\":", p.NumVertices(),
                   ",\"edges\":", p.NumEdges(), ",\"support\":", p.support,
                   ",\"pattern\":\"", p.pattern.ToString(), "\"}");
  }
  body += StrCat("],\"count\":", patterns.size());
  return body;
}

int32_t TopEdges(const std::vector<MinedPattern>& patterns) {
  return patterns.empty() ? 0 : patterns.front().NumEdges();
}

// ---------------------------------------------------------------- inputs

/// The graph plus an optional per-vertex transaction map, at stable
/// addresses (sessions borrow both).
struct Inputs {
  std::unique_ptr<LabeledGraph> graph;
  std::unique_ptr<VertexTxnMap> txn_map;
  double load_s = 0.0;
};

Inputs LoadInputs(const Flags& flags) {
  Inputs inputs;
  WallTimer timer;
  inputs.graph = std::make_unique<LabeledGraph>(
      Must(LoadGraphBinary(Flag(flags, "graph")), "load graph"));
  inputs.load_s = timer.ElapsedSeconds();
  const std::string txn = Flag(flags, "txn-map");
  if (!txn.empty()) {
    inputs.txn_map = std::make_unique<VertexTxnMap>(Must(
        LoadVertexTxnMap(txn, inputs.graph->NumVertices()), "load txn map"));
  }
  return inputs;
}

SessionConfig MakeSessionConfig(const Flags& flags, const Inputs& inputs) {
  SessionConfig config;
  config.min_support = IntFlag(flags, "support", 3);
  config.txn_map = inputs.txn_map.get();
  return config;
}

/// Mined in process, or adopted from --artifact when given.
MiningSession OpenSession(const Flags& flags, const Inputs& inputs,
                          SessionConfig config) {
  const std::string artifact = Flag(flags, "artifact");
  if (artifact.empty()) {
    return Must(MiningSession::Create(inputs.graph.get(), config),
                "mine stage I");
  }
  return Must(MiningSession::LoadStage1(inputs.graph.get(), config, artifact),
              "load stage I artifact");
}

// ------------------------------------------------------------- reference

int RunReference(const Flags& flags) {
  Inputs inputs = LoadInputs(flags);
  const std::vector<QueryConfig> requests =
      ReadRequests(Flag(flags, "requests"));
  const int workers = static_cast<int>(std::max<int64_t>(
      1, std::min<int64_t>(IntFlag(flags, "workers", 4),
                           static_cast<int64_t>(requests.size()))));
  std::vector<std::string> bodies(requests.size());
  std::vector<std::string> errors(requests.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      SessionConfig config = MakeSessionConfig(flags, inputs);
      config.num_threads = 1;
      MiningSession session = OpenSession(flags, inputs, config);
      for (size_t i = next++; i < requests.size(); i = next++) {
        Result<QueryResult> result = session.RunQuery(requests[i]);
        if (!result.ok()) {
          errors[i] = result.status().ToString();
          continue;
        }
        bodies[i] = RenderBody(result->patterns);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  JsonObject out;
  out.Put("bodies", JsonArray(bodies));
  out.Put("errors", JsonArray(errors));
  WriteFile(Flag(flags, "out"), out.Render());
  return 0;
}

// ---------------------------------------------------------------- inproc

int RunInproc(const Flags& flags) {
  const std::vector<QueryConfig> requests =
      ReadRequests(Flag(flags, "requests"));
  const int64_t passes = std::max<int64_t>(1, IntFlag(flags, "passes", 1));
  const int64_t setup_reps =
      std::max<int64_t>(1, IntFlag(flags, "setup-reps", 5));
  ThreadPool pool(static_cast<int32_t>(IntFlag(flags, "threads", 4)));

  // Set-up: graph file -> session ready to answer, repeated; the last
  // session serves the timed loop.
  std::vector<double> setup_s;
  Inputs inputs;
  std::optional<MiningSession> session;
  for (int64_t rep = 0; rep < setup_reps; ++rep) {
    session.reset();
    inputs = Inputs();  // free the previous graph outside the timer
    WallTimer timer;
    inputs = LoadInputs(flags);
    SessionConfig config = MakeSessionConfig(flags, inputs);
    config.pool = &pool;
    session.emplace(OpenSession(flags, inputs, config));
    setup_s.push_back(timer.ElapsedSeconds());
  }

  // Untimed warm-up.
  if (!session->RunQuery(requests.front()).ok()) Die("warm-up query failed");

  std::vector<double> latencies;
  std::vector<int64_t> request_index;
  std::vector<std::string> bodies;
  std::vector<std::string> errors;
  std::vector<int32_t> top_edges;
  const Usage before = ReadUsage();
  WallTimer wall;
  const size_t total = static_cast<size_t>(passes) * requests.size();
  for (size_t i = 0; i < total; ++i) {
    const size_t r = i % requests.size();
    WallTimer timer;
    Result<QueryResult> result = session->RunQuery(requests[r]);
    latencies.push_back(timer.ElapsedSeconds());
    request_index.push_back(static_cast<int64_t>(r));
    if (result.ok()) {
      bodies.push_back(RenderBody(result->patterns));
      errors.emplace_back();
      top_edges.push_back(TopEdges(result->patterns));
    } else {
      bodies.emplace_back();
      errors.push_back(result.status().ToString());
      top_edges.push_back(0);
    }
  }
  const double wall_s = wall.ElapsedSeconds();
  const Usage after = ReadUsage();

  JsonObject out;
  out.Put("setup_s", JsonArray(setup_s));
  out.Put("latencies", JsonArray(latencies));
  out.Put("request_index", JsonArray(request_index));
  out.Put("bodies", JsonArray(bodies));
  out.Put("errors", JsonArray(errors));
  out.Put("top_edges", JsonArray(top_edges));
  out.Num("wall_s", wall_s);
  out.Num("cpu_s", after.cpu_s - before.cpu_s);
  out.Num("max_rss_kb", static_cast<double>(after.max_rss_kb));
  WriteFile(Flag(flags, "out"), out.Render());
  return 0;
}

// ----------------------------------------------------------------- build

/// Mean |E| over the stored spiders (a star's edges are its leaves).
double MeanSpiderEdges(const SpiderStore& store) {
  return store.empty() ? 0.0
                       : static_cast<double>(store.TotalLeaves()) /
                             static_cast<double>(store.size());
}

int RunBuild(const Flags& flags) {
  const int64_t builds = std::max<int64_t>(1, IntFlag(flags, "builds", 1));
  const int32_t threads = static_cast<int32_t>(IntFlag(flags, "threads", 4));
  const std::string dir = Flag(flags, "work-dir", ".");
  const std::string first_path = dir + "/build-first.sm2";
  const std::string current_path = dir + "/build-current.sm2";

  std::vector<double> latencies;
  int64_t mismatches = 0;
  int64_t spiders = 0;
  double mean_edges = 0.0;
  const Usage before = ReadUsage();
  WallTimer wall;
  for (int64_t i = 0; i < builds; ++i) {
    const std::string& path = i == 0 ? first_path : current_path;
    WallTimer timer;
    {
      Inputs inputs = LoadInputs(flags);
      SessionConfig config = MakeSessionConfig(flags, inputs);
      config.num_threads = threads;
      MiningSession session = Must(
          MiningSession::Create(inputs.graph.get(), config), "mine stage I");
      MustOk(session.SaveStage1(path), "save artifact");
      std::unique_ptr<MappedStage1> mapped =
          Must(MappedStage1::Open(path), "open artifact");
      MustOk(mapped->EnsureValidated(), "validate artifact");
      latencies.push_back(timer.ElapsedSeconds());
      spiders = session.store().size();
      mean_edges = MeanSpiderEdges(mapped->store());
    }
    if (i > 0 && !SameBytes(first_path, current_path)) ++mismatches;
  }
  const double wall_s = wall.ElapsedSeconds();
  const Usage after = ReadUsage();

  JsonObject out;
  out.Put("latencies", JsonArray(latencies));
  out.Num("artifact_mismatches", static_cast<double>(mismatches));
  out.Num("spiders", static_cast<double>(spiders));
  out.Num("mean_spider_edges", mean_edges);
  out.Num("artifact_bytes", static_cast<double>(FileBytes(first_path)));
  out.Num("wall_s", wall_s);
  out.Num("cpu_s", after.cpu_s - before.cpu_s);
  out.Num("max_rss_kb", static_cast<double>(after.max_rss_kb));
  WriteFile(Flag(flags, "out"), out.Render());
  return 0;
}

// ----------------------------------------------------------------- trace

/// Mean wall microseconds per call of \p fn over \p reps calls.
template <typename Fn>
double MicrosPerCall(int reps, Fn&& fn) {
  WallTimer timer;
  for (int i = 0; i < reps; ++i) fn();
  return timer.ElapsedSeconds() * 1e6 / reps;
}

/// Replay counters that must equal RunQuery's MineStats exactly.
std::vector<std::pair<const char*, int64_t>> ExactCounters(
    const MineStats& s) {
  return {{"extend_calls", s.extend_calls},
          {"growth_steps", s.growth_steps},
          {"merges", s.merges},
          {"merge_attempts", s.merge_attempts},
          {"stage2_iterations", s.stage2_iterations},
          {"stage3_rounds", s.stage3_rounds},
          {"emb_extensions", s.emb_extensions},
          {"pruned_unmerged", s.pruned_unmerged},
          {"nonclosed_dropped", s.nonclosed_dropped},
          {"pattern_cap_hits", s.pattern_cap_hits},
          {"embedding_cap_hits", s.embedding_cap_hits},
          {"iso_checks_run", s.iso_checks_run},
          {"iso_checks_skipped", s.iso_checks_skipped},
          {"emb_carried", s.emb_carried},
          {"vf2_fallbacks", s.vf2_fallbacks},
          {"closure_edges_added", s.closure_edges_added},
          {"seed_count_m", s.seed_count_m}};
}

void FoldCounters(MineStats* sum, const MineStats& s) {
  sum->extend_calls += s.extend_calls;
  sum->growth_steps += s.growth_steps;
  sum->merges += s.merges;
  sum->merge_attempts += s.merge_attempts;
  sum->stage2_iterations += s.stage2_iterations;
  sum->stage3_rounds += s.stage3_rounds;
  sum->emb_extensions += s.emb_extensions;
  sum->pruned_unmerged += s.pruned_unmerged;
  sum->nonclosed_dropped += s.nonclosed_dropped;
  sum->pattern_cap_hits += s.pattern_cap_hits;
  sum->embedding_cap_hits += s.embedding_cap_hits;
  sum->iso_checks_run += s.iso_checks_run;
  sum->iso_checks_skipped += s.iso_checks_skipped;
  sum->emb_carried += s.emb_carried;
  sum->vf2_fallbacks += s.vf2_fallbacks;
  sum->closure_edges_added += s.closure_edges_added;
  sum->seed_count_m += s.seed_count_m;
  sum->stage2_seconds += s.stage2_seconds;
  sum->stage3_seconds += s.stage3_seconds;
}

/// A ratio whose zero base reads as 0 (no attempts, no yield).
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int RunTrace(const Flags& flags) {
  const int32_t threads = static_cast<int32_t>(IntFlag(flags, "threads", 4));
  const std::string artifact = Flag(flags, "work-dir", ".") + "/trace.sm2";
  ThreadPool pool(threads);
  JsonObject metrics;
  SpanRecorder recorder;

  // ---- graph + spider layers: one build, each public call timed. ----
  const Usage build_before = ReadUsage();
  WallTimer build_wall;
  Inputs inputs = LoadInputs(flags);
  metrics.Num("graph.load_s", inputs.load_s);
  metrics.Num("graph.vertices",
              static_cast<double>(inputs.graph->NumVertices()));
  metrics.Num("graph.edges", static_cast<double>(inputs.graph->NumEdges()));
  SessionConfig config = MakeSessionConfig(flags, inputs);
  config.pool = &pool;
  WallTimer timer;
  MiningSession session =
      Must(MiningSession::Create(inputs.graph.get(), config), "mine stage I");
  metrics.Num("spider.mine_s", timer.ElapsedSeconds());
  const MineStats& s1 = session.stage1_stats();
  metrics.Num("spider.spiders", static_cast<double>(s1.num_spiders));
  metrics.Num("spider.closed_spiders",
              static_cast<double>(s1.num_closed_spiders));
  metrics.Num("spider.extension_attempts",
              static_cast<double>(s1.stage1_steps));
  metrics.Num("spider.store_bytes", static_cast<double>(s1.stage1_store_bytes));
  timer.Restart();
  MustOk(session.SaveStage1(artifact), "save artifact");
  metrics.Num("spider.save_s", timer.ElapsedSeconds());
  metrics.Num("spider.artifact_bytes",
              static_cast<double>(FileBytes(artifact)));
  timer.Restart();
  std::unique_ptr<MappedStage1> mapped =
      Must(MappedStage1::Open(artifact), "open artifact");
  metrics.Num("spider.open_s", timer.ElapsedSeconds());
  timer.Restart();
  MustOk(mapped->EnsureValidated(), "validate artifact");
  metrics.Num("spider.validate_s", timer.ElapsedSeconds());
  mapped.reset();
  const double build_wall_s = build_wall.ElapsedSeconds();
  const Usage build_after = ReadUsage();

  // ---- queries: untraced RunQuery, then the traced replay. ----
  std::vector<QueryConfig> requests;
  const std::string requests_path = Flag(flags, "requests");
  if (!requests_path.empty()) requests = ReadRequests(requests_path);
  // Kernel costs need a transaction source even on sessions without one.
  std::vector<int32_t> txn_of_vertex(
      static_cast<size_t>(inputs.graph->NumVertices()));
  for (size_t v = 0; v < txn_of_vertex.size(); ++v) {
    txn_of_vertex[v] = static_cast<int32_t>(v % 64);
  }
  SupportContext kernel_context;
  kernel_context.txn_of_vertex = &txn_of_vertex;
  kernel_context.txn_map = inputs.txn_map.get();

  MineStats run_sum;
  MineStats replay_sum;
  double query_s = 0.0;
  double replay_s = 0.0;
  double post_growth_s = 0.0;
  int64_t replayed = 0;
  int64_t counter_mismatches = 0;
  int64_t answer_mismatches = 0;
  double spider_set_us = 0.0;
  double min_dfs_code_us = 0.0;
  double iso_check_us = 0.0;
  double vf2_enum_s = 0.0;
  int64_t kernel_patterns = 0;
  std::vector<double> support_us(Measures().size(), 0.0);
  std::vector<std::string> mismatch_notes;

  const Usage query_before = ReadUsage();
  WallTimer query_wall;
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryConfig& q = requests[i];
    if (!IsReplayable(q)) continue;
    timer.Restart();
    QueryResult run = Must(session.RunQuery(q), "RunQuery");
    const double run_s = timer.ElapsedSeconds();
    ReplayOutput replay = Must(
        ReplayQuery(session, q, static_cast<int32_t>(i), &recorder),
        "replay");
    ++replayed;
    query_s += run_s;
    replay_s += replay.seconds;
    post_growth_s += run.stats.total_seconds - run.stats.stage2_seconds -
                     run.stats.stage3_seconds;
    const auto expected = ExactCounters(run.stats);
    const auto got = ExactCounters(replay.stats);
    for (size_t c = 0; c < expected.size(); ++c) {
      if (expected[c].second != got[c].second) {
        ++counter_mismatches;
        mismatch_notes.push_back(StrCat("request ", i, " ", expected[c].first,
                                        ": RunQuery ", expected[c].second,
                                        ", replay ", got[c].second));
      }
    }
    if (RenderBody(run.patterns) != RenderBody(replay.patterns)) {
      ++answer_mismatches;
      mismatch_notes.push_back(StrCat("request ", i, ": answers differ"));
    }
    FoldCounters(&run_sum, run.stats);
    FoldCounters(&replay_sum, replay.stats);

    // Per-call kernel costs on this query's answer patterns.
    for (const MinedPattern& mp : run.patterns) {
      ++kernel_patterns;
      spider_set_us += MicrosPerCall(3, [&] {
        SpiderSetRepr::Compute(mp.pattern, session.config().spider_radius);
      });
      min_dfs_code_us += MicrosPerCall(1, [&] {
        DfsCode code;
        MinimumDfsCodeBounded(mp.pattern, 200000, &code);
      });
      iso_check_us += MicrosPerCall(
          3, [&] { ArePatternsIsomorphic(mp.pattern, mp.pattern); });
      Vf2Options vf2_options;
      vf2_options.max_embeddings = q.max_embeddings_per_pattern;
      vf2_enum_s += MicrosPerCall(1, [&] {
                      FindEmbeddings(mp.pattern, *inputs.graph, vf2_options);
                    }) *
                    1e-6;
      for (size_t m = 0; m < Measures().size(); ++m) {
        support_us[m] += MicrosPerCall(1, [&] {
          ComputeSupport(Measures()[m].second, mp.pattern, mp.embeddings,
                         kernel_context);
        });
      }
    }
  }
  const double query_wall_s = query_wall.ElapsedSeconds();
  const Usage query_after = ReadUsage();

  // ---- span sums and self times. ----
  const std::vector<Span> spans = recorder.spans();
  const std::vector<double> self = SpanRecorder::SelfTimes(spans);
  std::map<std::string, double> span_sum;
  double root_self_s = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    span_sum[spans[i].name] += spans[i].end_s - spans[i].start_s;
    if (spans[i].parent < 0) root_self_s += self[i];
  }

  metrics.Num("session.query_s", query_s);
  metrics.Num("session.stage2_s", run_sum.stage2_seconds);
  metrics.Num("session.stage3_s", run_sum.stage3_seconds);
  metrics.Num("session.post_growth_s", post_growth_s);
  metrics.Num("session.seed_count", static_cast<double>(run_sum.seed_count_m));
  metrics.Num("session.replay_self_s", root_self_s);

  const MineStats& g = replay_sum;
  metrics.Num("growth.seed_s", span_sum["seed"]);
  metrics.Num("growth.stage2_round_s", span_sum["stage2_round"]);
  metrics.Num("growth.stage3_round_s", span_sum["stage3_round"]);
  metrics.Num("growth.stage2_iterations",
              static_cast<double>(g.stage2_iterations));
  metrics.Num("growth.stage3_rounds", static_cast<double>(g.stage3_rounds));
  metrics.Num("growth.extend_calls", static_cast<double>(g.extend_calls));
  metrics.Num("growth.spider_appends", static_cast<double>(g.growth_steps));
  metrics.Num("growth.merge_pairs", static_cast<double>(g.merge_attempts));
  metrics.Num("growth.merges", static_cast<double>(g.merges));
  metrics.Num("growth.nonclosed_dropped",
              static_cast<double>(g.nonclosed_dropped));
  metrics.Num("growth.pruned_unmerged",
              static_cast<double>(g.pruned_unmerged));
  metrics.Num("growth.pattern_cap_hits",
              static_cast<double>(g.pattern_cap_hits));
  metrics.Num("growth.embedding_cap_hits",
              static_cast<double>(g.embedding_cap_hits));
  metrics.Num("growth.emb_extensions", static_cast<double>(g.emb_extensions));
  metrics.Num("growth.append_yield",
              Ratio(static_cast<double>(g.growth_steps),
                    static_cast<double>(g.extend_calls)));
  metrics.Num("growth.merge_yield",
              Ratio(static_cast<double>(g.merges),
                    static_cast<double>(g.merge_attempts)));

  metrics.Num("pattern.iso_checks_run", static_cast<double>(g.iso_checks_run));
  metrics.Num("pattern.iso_checks_skipped",
              static_cast<double>(g.iso_checks_skipped));
  metrics.Num("pattern.wl_prefilter_yield",
              Ratio(static_cast<double>(g.iso_checks_skipped),
                    static_cast<double>(g.iso_checks_skipped +
                                        g.iso_checks_run)));
  const double kp = static_cast<double>(kernel_patterns);
  metrics.Num("pattern.spider_set_us", Ratio(spider_set_us, kp));
  metrics.Num("pattern.min_dfs_code_us", Ratio(min_dfs_code_us, kp));
  metrics.Num("pattern.iso_check_us", Ratio(iso_check_us, kp));
  metrics.Num("pattern.vf2_enum_s", Ratio(vf2_enum_s, kp));

  metrics.Num("closure.s", span_sum["closure"]);
  metrics.Num("closure.carried", static_cast<double>(g.emb_carried));
  metrics.Num("closure.vf2_fallbacks", static_cast<double>(g.vf2_fallbacks));
  metrics.Num("closure.edges_added",
              static_cast<double>(g.closure_edges_added));

  for (size_t m = 0; m < Measures().size(); ++m) {
    metrics.Num("support.compute_us." + Measures()[m].first,
                Ratio(support_us[m], kp));
  }
  for (int b = 0; b < kNumAllocBuckets; ++b) {
    const AllocTotals totals = ReadAllocTotals(b);
    metrics.Num(StrCat("alloc.count.", kAllocBucketNames[b]),
                static_cast<double>(totals.count));
    metrics.Num(StrCat("alloc.bytes.", kAllocBucketNames[b]),
                static_cast<double>(totals.bytes));
  }

  // proc.*: the query phase when there are queries, else the build.
  const bool queried = replayed > 0;
  const Usage& u0 = queried ? query_before : build_before;
  const Usage& u1 = queried ? query_after : build_after;
  const double phase_wall = queried ? query_wall_s : build_wall_s;
  const double cpu_s = u1.cpu_s - u0.cpu_s;
  const double nproc = static_cast<double>(std::thread::hardware_concurrency());
  metrics.Num("proc.cpu_s", cpu_s);
  metrics.Num("proc.cpu_util", Ratio(cpu_s, phase_wall * nproc));
  metrics.Num("proc.invol_ctx_switches",
              static_cast<double>(u1.invol_ctx_switches - u0.invol_ctx_switches));
  metrics.Num("proc.minor_faults",
              static_cast<double>(u1.minor_faults - u0.minor_faults));

  metrics.Num("trace.overhead_s", replay_s - query_s);
  metrics.Num("trace.replayed_queries", static_cast<double>(replayed));
  metrics.Num("trace.counter_mismatches",
              static_cast<double>(counter_mismatches));

  // Spans go to their own file at exit.
  std::string span_json = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) span_json += ",\n";
    JsonObject s;
    s.Str("name", spans[i].name);
    s.Num("query", spans[i].query);
    s.Num("parent", spans[i].parent);
    s.Num("start_s", spans[i].start_s);
    s.Num("end_s", spans[i].end_s);
    s.Num("self_s", self[i]);
    span_json += s.Render();
  }
  WriteFile(Flag(flags, "spans"), span_json + "]");

  JsonObject out;
  out.Put("metrics", metrics.Render());
  out.Num("answer_mismatches", static_cast<double>(answer_mismatches));
  out.Put("mismatch_notes", JsonArray(mismatch_notes));
  out.Num("max_rss_kb", static_cast<double>(ReadUsage().max_rss_kb));
  WriteFile(Flag(flags, "out"), out.Render());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) Die("usage: perfbench_harness <reference|inproc|build|trace>");
  spidermine::SetLogLevel(spidermine::LogLevel::kWarning);
  const std::string mode = argv[1];
  const Flags flags = ParseFlags(argc, argv);
  if (mode == "reference") return RunReference(flags);
  if (mode == "inproc") return RunInproc(flags);
  if (mode == "build") return RunBuild(flags);
  if (mode == "trace") return RunTrace(flags);
  Die("unknown mode " + mode);
}
