// Cold-start cost of a serving process: mining Stage I at startup
// (MiningSession::Create) vs adopting the graph's saved `.sm2` artifact
// (MiningSession::LoadStage1).
//
// A deterministic Erdos-Renyi graph is mined kMineRuns times and the
// artifact of the first run saved. The artifact is then loaded "cold"
// (page cache evicted with posix_fadvise DONTNEED first) kLoadRuns times,
// each run timing two things apart:
//   - mmap_cold_open: MappedStage1::Open alone -- the header plus the
//     offset arrays; the bulk pools stay untouched until the lazy CRC
//     pass on the first query;
//   - session_cold_load: the whole LoadStage1 a server pays, i.e. the open
//     plus the session's thread pool (all cores, as Create builds) and the
//     scan of every spider's closed flag.
// A load without eviction models an additional serving replica on the
// same box sharing the page cache. Every figure is the median of its runs;
// the per-run seconds are printed too, so the spread is on record.
//
// Output: a single JSON object on stdout (committed as
// BENCH_artifact_load.json by tools/run_bench_trajectory.sh). Exits 2 when
// the median session cold load is less than 10x faster than the median
// mining at startup.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gen/erdos_renyi.h"
#include "spider/spider_store_mmap.h"
#include "spidermine/session.h"

namespace spidermine::bench {
namespace {

// Graph shape: large enough that Stage I takes seconds and the artifact
// tops 100 MB, while the offset arrays (the only bulk data a load scans)
// stay a small fraction of the file.
constexpr int64_t kNumVertices = 1'000'000;
constexpr double kAvgDegree = 3.0;
constexpr int32_t kNumLabels = 32;
constexpr int64_t kMinSupport = 2;
// Odd, so each median is one run's figure.
constexpr int kMineRuns = 3;
constexpr int kLoadRuns = 5;

// Asks the kernel to drop this file's page-cache pages so the next read is
// a genuine cold start. Advisory, and it skips dirty pages, so the freshly
// saved file is flushed first.
void EvictFromPageCache(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
#if defined(POSIX_FADV_DONTNEED)
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
  ::close(fd);
}

// Current (not peak) resident set size in bytes; 0 where /proc is absent.
// Peak RSS is useless here: mining has already raised the high-water mark
// by the time the artifact is loaded.
int64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t total_pages = 0;
  int64_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  return resident_pages * ::sysconf(_SC_PAGESIZE);
}

double Median(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

// `[a, b, c]` with microsecond precision.
std::string JsonSeconds(const std::vector<double>& runs) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < runs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", runs[i]);
    out += buf;
  }
  return out + "]";
}

int Main() {
  if (!Sm2HostSupported()) {
    std::fprintf(stderr, "big-endian host: .sm2 unsupported, skipping\n");
    return 0;
  }
  Rng rng(20260808);
  Result<LabeledGraph> built =
      GenerateErdosRenyi(kNumVertices, kAvgDegree, kNumLabels, &rng).Build();
  if (!built.ok()) {
    std::fprintf(stderr, "graph build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const LabeledGraph graph = std::move(built).value();
  SessionConfig config;
  config.min_support = kMinSupport;
  config.num_threads = 0;  // all cores: the fairest mining baseline
  std::fprintf(stderr, "mining %lld vertices, %lld edges...\n",
               static_cast<long long>(graph.NumVertices()),
               static_cast<long long>(graph.NumEdges()));

  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_artifact_load.sm2")
          .string();
  std::vector<double> mine_runs;
  int64_t num_spiders = 0;
  uint64_t mined_key = 0;
  for (int run = 0; run < kMineRuns; ++run) {
    // Scoped: each mined store is freed before the next run or load.
    WallTimer mine_timer;
    Result<MiningSession> mined = MiningSession::Create(&graph, config);
    mine_runs.push_back(mine_timer.ElapsedSeconds());
    if (!mined.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   mined.status().ToString().c_str());
      return 1;
    }
    if (run == 0) {
      Status saved = mined->SaveStage1(path);
      if (!saved.ok()) {
        std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
        return 1;
      }
      num_spiders = mined->store().size();
      mined_key = mined->stage1_content_key();
    } else if (mined->stage1_content_key() != mined_key) {
      std::fprintf(stderr, "mining run %d found a different set\n", run);
      return 1;
    }
  }
  const int64_t sm2_bytes = std::filesystem::file_size(path);

  std::vector<double> open_runs;
  std::vector<double> load_runs;
  std::vector<double> warm_runs;
  int64_t open_rss_growth = 0;
  for (int run = 0; run < kLoadRuns; ++run) {
    EvictFromPageCache(path);
    const int64_t rss_before_open = CurrentRssBytes();
    WallTimer open_timer;
    Result<std::unique_ptr<MappedStage1>> opened = MappedStage1::Open(path);
    open_runs.push_back(open_timer.ElapsedSeconds());
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    if (run == 0) open_rss_growth = CurrentRssBytes() - rss_before_open;
    opened->reset();

    EvictFromPageCache(path);
    WallTimer load_timer;
    Result<MiningSession> loaded =
        MiningSession::LoadStage1(&graph, config, path);
    load_runs.push_back(load_timer.ElapsedSeconds());
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (loaded->store().size() != num_spiders ||
        loaded->stage1_content_key() != mined_key) {
      std::fprintf(stderr, "loaded artifact differs from the mined set\n");
      return 1;
    }

    // A second replica loading the same artifact while the first holds
    // it: the offset pages are resident, so this is the page-cache-shared
    // serving cost.
    WallTimer warm_timer;
    Result<MiningSession> replica =
        MiningSession::LoadStage1(&graph, config, path);
    warm_runs.push_back(warm_timer.ElapsedSeconds());
    if (!replica.ok()) return 1;
  }

  // Full validation (bulk CRCs over every section) -- the one-time cost
  // the first query pays, lazily rather than at startup.
  Result<std::unique_ptr<MappedStage1>> mapped = MappedStage1::Open(path);
  if (!mapped.ok()) return 1;
  WallTimer validate_timer;
  Status validated = (*mapped)->EnsureValidated();
  const double validate_seconds = validate_timer.ElapsedSeconds();
  if (!validated.ok()) {
    std::fprintf(stderr, "validation failed: %s\n",
                 validated.ToString().c_str());
    return 1;
  }

  const double mine_seconds = Median(mine_runs);
  const double load_cold_seconds = Median(load_runs);
  const double speedup =
      load_cold_seconds > 0 ? mine_seconds / load_cold_seconds : 0.0;
  std::printf(
      "{\n"
      "  \"bench\": \"artifact_load\",\n"
      "  \"graph_vertices\": %lld,\n"
      "  \"graph_edges\": %lld,\n"
      "  \"num_spiders\": %lld,\n"
      "  \"sm2_file_bytes\": %lld,\n"
      "  \"mine_at_startup_seconds\": %.6f,\n"
      "  \"mmap_cold_open_seconds\": %.6f,\n"
      "  \"session_cold_load_seconds\": %.6f,\n"
      "  \"session_warm_replica_load_seconds\": %.6f,\n"
      "  \"mmap_lazy_full_validate_seconds\": %.6f,\n"
      "  \"cold_load_speedup\": %.1f,\n"
      "  \"mmap_open_rss_growth_bytes\": %lld,\n"
      "  \"mine_at_startup_runs_seconds\": %s,\n"
      "  \"mmap_cold_open_runs_seconds\": %s,\n"
      "  \"session_cold_load_runs_seconds\": %s\n"
      "}\n",
      static_cast<long long>(graph.NumVertices()),
      static_cast<long long>(graph.NumEdges()),
      static_cast<long long>(num_spiders), static_cast<long long>(sm2_bytes),
      mine_seconds, Median(open_runs), load_cold_seconds, Median(warm_runs),
      validate_seconds, speedup, static_cast<long long>(open_rss_growth),
      JsonSeconds(mine_runs).c_str(), JsonSeconds(open_runs).c_str(),
      JsonSeconds(load_runs).c_str());

  std::filesystem::remove(path);
  return speedup >= 10.0 ? 0 : 2;  // exit 2 = ran but missed the 10x bar
}

}  // namespace
}  // namespace spidermine::bench

int main() { return spidermine::bench::Main(); }
