// Reproduces the Section 4.1 worked example and tabulates the Lemma 2
// seed count M across (K, epsilon, Vmin/|V|) settings, then measures the
// practical side of the same knob: one MiningSession per graph (Stage I
// mined once) serving a sweep of queries with increasing seed draws M.
//
// Paper claim: "with eps = 0.1, K = 10, and Vmin = |V|/10, we get M = 85".
// Our exact solver gives 86 (the bound evaluates to 0.8942 at 85); the
// one-off difference is rounding on the paper's side (see
// src/spidermine/seed_count.h).
//
// Output: CSV rows k,epsilon,vmin_ratio,m,success_bound_at_m, then one
// JSON row per swept M with the cold Stage I latency (paid once), the
// warm query latency and the Stage I amortization factor.

#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "spidermine/seed_count.h"
#include "spidermine/session.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Section 4.1 example",
         "Lemma 2 seed counts M(K, epsilon, Vmin/|V|); paper example "
         "(0.1, 10, 1/10) quotes M=85, exact solution is 86");
  std::printf("k,epsilon,vmin_ratio,m,success_bound_at_m\n");

  const int64_t n = 100000;
  for (int32_t k : {1, 5, 10, 20}) {
    for (double epsilon : {0.2, 0.1, 0.05, 0.01}) {
      for (double ratio : {0.05, 0.1, 0.2}) {
        int64_t vmin = static_cast<int64_t>(ratio * static_cast<double>(n));
        Result<int64_t> m = ComputeSeedCount(n, vmin, k, epsilon);
        if (!m.ok()) continue;
        std::printf("%d,%.2f,%.2f,%lld,%.4f\n", k, epsilon, ratio,
                    static_cast<long long>(*m),
                    SeedSuccessLowerBound(n, vmin, k, *m));
      }
    }
  }

  // ---- Empirical M sweep: ONE session per graph, many queries. Before
  // the session API every M point re-ran Stage I; now the sweep pays the
  // spider mining once and each point is a warm query.
  Rng rng(4101);
  GraphBuilder builder = GenerateErdosRenyi(400, 2.0, 18, &rng);
  Pattern planted = RandomConnectedPattern(12, 0.15, 18, &rng);
  PatternInjector injector(&builder);
  if (!injector.Inject(planted, 3, &rng).ok()) {
    std::fprintf(stderr, "injection failed\n");
    return 1;
  }
  const LabeledGraph graph = std::move(builder.Build()).value();

  SessionConfig session_config;
  session_config.min_support = 3;
  session_config.num_threads = 0;  // all cores
  std::optional<MiningSession> session;
  const double cold_seconds =
      BuildMiningSession(graph, session_config, &session);
  if (!session.has_value()) return 1;

  for (int64_t m : {1, 4, 16, 64, 256}) {
    TopKQuery query;
    query.k = 5;
    query.dmax = 4;
    query.vmin = 12;
    query.rng_seed = 7;
    query.seed_count_override = m;
    QueryResult result;
    const double warm_seconds = RunSessionQuery(&*session, query, &result);
    std::printf(
        "{\"bench\":\"seed_count_sweep\",\"m\":%lld,\"patterns\":%zu,"
        "\"largest_vertices\":%d,\"cold_stage1_seconds\":%.4f,"
        "\"warm_query_seconds\":%.4f,\"stage1_amortization\":%.2f,"
        "\"queries_on_session\":%lld}\n",
        static_cast<long long>(m), result.patterns.size(),
        LargestVertices(result.patterns), cold_seconds, warm_seconds,
        warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0,
        static_cast<long long>(session->queries_run()));
    std::fflush(stdout);
  }
  return 0;
}
