#include "spidermine/growth.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "pattern/dfs_code.h"
#include "pattern/vf2.h"
#include "spider/star_miner.h"
#include "spider_test_util.h"
#include "spidermine/session.h"

namespace spidermine {
namespace {

/// Two disjoint copies of the labeled path 0-1-2-3-4 (labels = positions).
LabeledGraph TwoPaths() {
  GraphBuilder b;
  for (int copy = 0; copy < 2; ++copy) {
    VertexId base = b.AddVertex(0);
    for (LabelId l = 1; l <= 4; ++l) b.AddVertex(l);
    for (int i = 0; i < 4; ++i) b.AddEdge(base + i, base + i + 1);
  }
  return std::move(b.Build()).value();
}

struct Fixture {
  LabeledGraph graph;
  StarMineResult stars;
  SessionConfig session_config;
  QueryConfig query_config;
  MineStats stats;
  std::unique_ptr<SpiderIndex> index;
  std::unique_ptr<GrowthEngine> engine;

  explicit Fixture(LabeledGraph g) : graph(std::move(g)) {
    StarMinerConfig star_config;
    star_config.min_support = 2;
    stars = std::move(MineStarSpiders(graph, star_config)).value();
    session_config.min_support = 2;
    session_config.spider_radius = 1;
    query_config.min_support = 2;  // engines take a resolved threshold
    index = std::make_unique<SpiderIndex>(&stars.store,
                                          graph.NumVertices());
    engine = std::make_unique<GrowthEngine>(&graph, index.get(),
                                            &session_config, &query_config,
                                            &stats);
  }

  /// Store id of the star (head, leaf-label multiset), or -1 when absent.
  int32_t FindStar(LabelId head, std::vector<LabelId> leaves) const {
    return spidermine::FindStar(stars.store, head, std::move(leaves));
  }
};

TEST(GrowthTest, SeedFromSpiderBuildsAnchoredEmbeddings) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(1, {0, 2});
  ASSERT_NE(s, -1);
  GrowthPattern seed = f.engine->SeedFromSpider(s);
  EXPECT_EQ(seed.pattern.NumVertices(), 3);
  ASSERT_EQ(seed.embeddings.size(), 2u);  // one per path copy
  EXPECT_EQ(seed.support, 2);
  // Boundary = the leaves.
  EXPECT_EQ(seed.boundary, (std::vector<VertexId>{1, 2}));
  for (const Embedding& e : seed.embeddings) {
    // Head image has label 1.
    EXPECT_EQ(f.graph.Label(e[0]), 1);
  }
}

TEST(GrowthTest, SeedFromSingleVertexSpiderHasHeadBoundary) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {});
  ASSERT_NE(s, -1);
  GrowthPattern seed = f.engine->SeedFromSpider(s);
  EXPECT_EQ(seed.pattern.NumVertices(), 1);
  EXPECT_EQ(seed.boundary, (std::vector<VertexId>{0}));
  EXPECT_EQ(seed.embeddings.size(), 2u);
}

TEST(GrowthTest, GrowRoundExtendsPatternOutward) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(1, {0, 2});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working;
  working.push_back(f.engine->SeedFromSpider(s));
  MergeRegistry previous;
  GrowRoundResult round =
      f.engine->GrowRound(std::move(working), /*enable_merging=*/false,
                          &previous);
  EXPECT_TRUE(round.any_growth);
  // Some output pattern must now contain label 3 (grown through vertex 2).
  bool grew_to_3 = false;
  for (const GrowthPattern& gp : round.patterns) {
    for (VertexId v = 0; v < gp.pattern.NumVertices(); ++v) {
      if (gp.pattern.Label(v) == 3) grew_to_3 = true;
    }
    EXPECT_GE(gp.support, 2);
  }
  EXPECT_TRUE(grew_to_3);
}

TEST(GrowthTest, RepeatedRoundsReachFullPath) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {1, 3});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working;
  working.push_back(f.engine->SeedFromSpider(s));
  MergeRegistry previous;
  for (int round = 0; round < 3; ++round) {
    GrowRoundResult r =
        f.engine->GrowRound(std::move(working), false, &previous);
    working = std::move(r.patterns);
  }
  int32_t best_vertices = 0;
  for (const GrowthPattern& gp : working) {
    best_vertices = std::max(best_vertices, gp.pattern.NumVertices());
  }
  EXPECT_EQ(best_vertices, 5) << "growth should recover the full path";
}

TEST(GrowthTest, NonClosedSubPatternsAreDropped) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {1, 3});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working;
  working.push_back(f.engine->SeedFromSpider(s));
  MergeRegistry previous;
  GrowRoundResult r = f.engine->GrowRound(std::move(working), false,
                                          &previous);
  // The seed extends to label 0 and 4 keeping support 2, so the partial
  // patterns (including the seed itself) must have been dropped as
  // non-closed: every surviving pattern contains labels 0 and 4.
  EXPECT_GT(f.stats.nonclosed_dropped, 0);
  for (const GrowthPattern& gp : r.patterns) {
    std::vector<LabelId> labels = gp.pattern.SortedLabels();
    EXPECT_TRUE(std::binary_search(labels.begin(), labels.end(), 0))
        << gp.pattern.ToString();
    EXPECT_TRUE(std::binary_search(labels.begin(), labels.end(), 4))
        << gp.pattern.ToString();
  }
}

TEST(GrowthTest, DedupTargetsCarryTheirFingerprintsOut) {
  // The same seed twice: the second lineage's extensions all fold into the
  // first's, so every surviving pattern was compared as a pool entry and
  // must leave the round with the fingerprint the dedup index cached.
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {1, 3});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working;
  working.push_back(f.engine->SeedFromSpider(s));
  working.push_back(f.engine->SeedFromSpider(s));
  MergeRegistry previous;
  GrowRoundResult r = f.engine->GrowRound(std::move(working), false,
                                          &previous);
  EXPECT_GT(f.stats.iso_checks_run, 0);
  ASSERT_FALSE(r.patterns.empty());
  for (const GrowthPattern& gp : r.patterns) {
    EXPECT_EQ(gp.iso_hash, PatternIsoHash(gp.pattern))
        << gp.pattern.ToString();
  }
}

TEST(GrowthTest, MergeDetectedWhenSeedsCollide) {
  Fixture f(TwoPaths());
  // Two seeds growing toward each other along the path.
  int32_t left = f.FindStar(1, {0, 2});
  int32_t right = f.FindStar(3, {2, 4});
  ASSERT_NE(left, -1);
  ASSERT_NE(right, -1);
  std::vector<GrowthPattern> working;
  working.push_back(f.engine->SeedFromSpider(left));
  working.push_back(f.engine->SeedFromSpider(right));
  MergeRegistry previous;
  GrowRoundResult r =
      f.engine->GrowRound(std::move(working), /*enable_merging=*/true,
                          &previous);
  EXPECT_GT(f.stats.merges, 0) << "colliding growth must trigger CheckMerge";
  bool merged_full_path = false;
  for (const GrowthPattern& gp : r.patterns) {
    if (gp.merged_ever && gp.pattern.NumVertices() == 5) {
      merged_full_path = true;
      EXPECT_GE(gp.support, 2);
    }
  }
  EXPECT_TRUE(merged_full_path);
}

TEST(GrowthTest, ExhaustedFlagSetAtFixpoint) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {1, 3});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working;
  working.push_back(f.engine->SeedFromSpider(s));
  MergeRegistry previous;
  for (int round = 0; round < 4; ++round) {
    GrowRoundResult r =
        f.engine->GrowRound(std::move(working), false, &previous);
    working = std::move(r.patterns);
  }
  for (const GrowthPattern& gp : working) {
    if (gp.pattern.NumVertices() == 5) {
      EXPECT_TRUE(gp.exhausted) << "full path cannot grow further";
    }
  }
}

/// The engine invariant at growth level: after rounds that exercise
/// seeding, spider extension AND the merge join, every carried unsaturated
/// list is exactly the E[P] a VF2 search enumerates (same set, compared
/// canonically).
TEST(GrowthTest, CarriedListsStayExactAcrossRoundsAndMerges) {
  Fixture f(TwoPaths());
  int32_t left = f.FindStar(1, {0, 2});
  int32_t right = f.FindStar(3, {2, 4});
  ASSERT_NE(left, -1);
  ASSERT_NE(right, -1);
  std::vector<GrowthPattern> working;
  working.push_back(f.engine->SeedFromSpider(left));
  working.push_back(f.engine->SeedFromSpider(right));
  MergeRegistry previous;
  GrowRoundResult r =
      f.engine->GrowRound(std::move(working), /*enable_merging=*/true,
                          &previous);
  ASSERT_GT(f.stats.merges, 0) << "the join path must be exercised";
  int32_t checked = 0;
  for (const GrowthPattern& gp : r.patterns) {
    ASSERT_NE(gp.full_list, nullptr)
        << "engine on (default budget) must carry a list on every pattern";
    if (gp.full_list->saturated) continue;
    std::vector<Embedding> expected =
        FindEmbeddings(gp.pattern, f.graph, Vf2Options{});
    CanonicalizeEmbeddingOrder(&expected);
    std::vector<Embedding> carried = gp.full_list->embeddings;
    CanonicalizeEmbeddingOrder(&carried);
    EXPECT_EQ(carried, expected) << gp.pattern.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

/// Forcing saturation with a tiny budget never changes growth output —
/// lists are never consulted for growth decisions.
TEST(GrowthTest, TinyListBudgetDoesNotChangeGrowth) {
  Fixture engine_on(TwoPaths());
  Fixture tiny(TwoPaths());
  tiny.query_config.embedding_list_budget = 1;
  tiny.engine = std::make_unique<GrowthEngine>(
      &tiny.graph, tiny.index.get(), &tiny.session_config,
      &tiny.query_config, &tiny.stats);
  for (Fixture* f : {&engine_on, &tiny}) {
    int32_t s = f->FindStar(2, {1, 3});
    ASSERT_NE(s, -1);
    std::vector<GrowthPattern> working;
    working.push_back(f->engine->SeedFromSpider(s));
    MergeRegistry previous;
    GrowRoundResult r =
        f->engine->GrowRound(std::move(working), false, &previous);
    working = std::move(r.patterns);
  }
  EXPECT_EQ(engine_on.stats.growth_steps, tiny.stats.growth_steps);
  EXPECT_EQ(engine_on.stats.extend_calls, tiny.stats.extend_calls);
}

TEST(GrowthTest, SupportRecomputationMatchesMeasure) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(1, {0, 2});
  ASSERT_NE(s, -1);
  GrowthPattern seed = f.engine->SeedFromSpider(s);
  EXPECT_EQ(f.engine->Support(seed), seed.support);
}

/// FNV-1a 64 of \p text: a compact, platform-stable pin of a transcript.
uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

/// One query's pinned outputs: a hash of the rendered top-K plus every
/// MineStats counter except the iso-check pair (those count lookup work,
/// which a faster dedup may change without changing any result).
std::string PinnedOutputs(const QueryResult& result) {
  const MineStats& s = result.stats;
  return StrCat(
      "topk=", Fnv1a(PatternsTranscript(result.patterns)),
      " n=", result.patterns.size(), " m=", s.seed_count_m,
      " ext=", s.extend_calls, " steps=", s.growth_steps,
      " merges=", s.merges, " pairs=", s.merge_attempts,
      " pruned=", s.pruned_unmerged, " nonclosed=", s.nonclosed_dropped,
      " embext=", s.emb_extensions, " carried=", s.emb_carried,
      " vf2fb=", s.vf2_fallbacks, " closure=", s.closure_edges_added,
      " embcap=", s.embedding_cap_hits, " patcap=", s.pattern_cap_hits,
      " it2=", s.stage2_iterations, " r3=", s.stage3_rounds,
      " txn=", s.txn_sample_size, " timeout=", s.timed_out);
}

/// Pins the top-K and growth counters of one merge-heavy query per support
/// measure, at 1 and 4 threads. Faster dedup or union classification must
/// leave every line as it is; a deliberate results change (such as
/// re-numbering union columns) re-pins them.
TEST(GrowthTest, MergeOutputsPinnedUnderEveryMeasure) {
  Rng rng(101);
  GraphBuilder builder = GenerateErdosRenyi(200, 2.2, 14, &rng);
  Pattern planted = RandomConnectedPattern(10, 0.15, 14, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 4, &rng).ok());
  const LabeledGraph g = std::move(builder.Build()).value();
  // Vertex v carries every transaction but v % 8, so multi-vertex
  // occurrences still intersect in several transactions.
  VertexTxnMap txn_map;
  txn_map.num_transactions = 8;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    txn_map.offsets.push_back(static_cast<int64_t>(txn_map.txn_ids.size()));
    for (int32_t t = 0; t < 8; ++t) {
      if (t != v % 8) txn_map.txn_ids.push_back(t);
    }
  }
  txn_map.offsets.push_back(static_cast<int64_t>(txn_map.txn_ids.size()));

  const std::vector<std::pair<SupportMeasureKind, std::string>> expected = {
      {SupportMeasureKind::kGreedyMisVertex,
        "topk=14376621648426631556 n=10 m=24 ext=544 steps=128 merges=22"
        " pairs=313 pruned=52 nonclosed=65 embext=174 carried=50 vf2fb=0"
        " closure=21 embcap=0 patcap=0 it2=2 r3=3 txn=0 timeout=0"},
      {SupportMeasureKind::kGreedyMisEdge,
        "topk=17952451758039943566 n=10 m=24 ext=580 steps=142 merges=26"
        " pairs=386 pruned=54 nonclosed=72 embext=192 carried=61 vf2fb=0"
        " closure=21 embcap=0 patcap=0 it2=2 r3=3 txn=0 timeout=0"},
      {SupportMeasureKind::kMinImage,
        "topk=15352511601661921193 n=10 m=24 ext=608 steps=149 merges=26"
        " pairs=395 pruned=54 nonclosed=82 embext=199 carried=66 vf2fb=0"
        " closure=21 embcap=0 patcap=0 it2=2 r3=4 txn=0 timeout=0"},
      {SupportMeasureKind::kEmbeddingCount,
        "topk=2741502731549608982 n=10 m=24 ext=8811 steps=3992 merges=811"
        " pairs=1668 pruned=111 nonclosed=1857 embext=4818 carried=80"
        " vf2fb=0 closure=162 embcap=0 patcap=694 it2=2 r3=8 txn=0"
        " timeout=0"},
      {SupportMeasureKind::kHomomorphism,
        "topk=14574972671459484390 n=10 m=24 ext=608 steps=149 merges=26"
        " pairs=395 pruned=54 nonclosed=82 embext=199 carried=66 vf2fb=0"
        " closure=21 embcap=0 patcap=0 it2=2 r3=4 txn=0 timeout=0"},
      {SupportMeasureKind::kTransaction,
        "topk=14648999355373183388 n=10 m=24 ext=4733 steps=1928 merges=381"
        " pairs=1405 pruned=216 nonclosed=969 embext=2332 carried=80"
        " vf2fb=0 closure=8 embcap=0 patcap=257 it2=2 r3=5 txn=0 timeout=0"},
  };
  for (int32_t threads : {1, 4}) {
    SessionConfig session_config;
    session_config.min_support = 3;
    session_config.num_threads = threads;
    session_config.txn_map = &txn_map;
    Result<MiningSession> session = MiningSession::Create(&g, session_config);
    ASSERT_TRUE(session.ok()) << session.status();
    for (const auto& [measure, pinned] : expected) {
      TopKQuery query;
      query.k = 10;
      query.dmax = 4;
      query.vmin = 8;
      query.rng_seed = 7;
      query.seed_count_override = 24;
      query.max_patterns_per_round = 600;
      query.max_embeddings_per_pattern = 1000;
      query.support_measure = measure;
      Result<QueryResult> result = session->RunQuery(query);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_GT(result->stats.merges, 0)
          << SupportMeasureName(measure) << " must exercise RunMerges";
      EXPECT_EQ(PinnedOutputs(*result), pinned)
          << SupportMeasureName(measure) << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace spidermine
