#include "pattern/pattern_dedup_index.h"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/pattern_factory.h"
#include "pattern/dfs_code.h"
#include "pattern/vf2.h"

namespace spidermine {
namespace {

/// \p p with vertex v renumbered to perm[v] (labels and edge labels kept).
Pattern Permuted(const Pattern& p, const std::vector<VertexId>& perm) {
  Pattern q;
  std::vector<LabelId> labels(perm.size());
  for (VertexId v = 0; v < p.NumVertices(); ++v) labels[perm[v]] = p.Label(v);
  for (LabelId l : labels) q.AddVertex(l);
  for (const auto& [u, v] : p.Edges()) {
    q.AddEdge(perm[u], perm[v], p.EdgeLabel(u, v));
  }
  return q;
}

std::vector<VertexId> Reversed(int32_t n) {
  std::vector<VertexId> perm(static_cast<size_t>(n));
  std::iota(perm.rbegin(), perm.rend(), 0);
  return perm;
}

Pattern Cycle(int32_t n) {
  Pattern p;
  for (int32_t i = 0; i < n; ++i) p.AddVertex(0);
  for (int32_t i = 0; i < n; ++i) p.AddEdge(i, (i + 1) % n);
  return p;
}

Pattern TwoTriangles() {
  Pattern p;
  for (int i = 0; i < 6; ++i) p.AddVertex(0);
  for (int base : {0, 3}) {
    p.AddEdge(base, base + 1);
    p.AddEdge(base + 1, base + 2);
    p.AddEdge(base + 2, base);
  }
  return p;
}

Pattern Cube() {
  Pattern p;
  for (int i = 0; i < 8; ++i) p.AddVertex(0);
  for (int i = 0; i < 4; ++i) {
    p.AddEdge(i, (i + 1) % 4);
    p.AddEdge(4 + i, 4 + (i + 1) % 4);
    p.AddEdge(i, 4 + i);
  }
  return p;
}

Pattern Moebius() {
  Pattern p = Cycle(8);
  for (int i = 0; i < 4; ++i) p.AddEdge(i, i + 4);
  return p;
}

/// Owns the entries' patterns, as every caller of the index does.
struct Pool {
  std::vector<Pattern> patterns;
  PatternDedupIndex index;
  int64_t skipped = 0;
  int64_t run = 0;

  int64_t Add(uint64_t key, Pattern p) {
    patterns.push_back(std::move(p));
    return index.Add(key);
  }
  int64_t Find(uint64_t key, const Pattern& p, uint64_t* hash) {
    return index.Find(
        key, p, hash,
        [this](int64_t i) -> const Pattern& {
          return patterns[static_cast<size_t>(i)];
        },
        &skipped, &run);
  }
  int64_t Find(uint64_t key, const Pattern& p) {
    uint64_t hash = 0;
    return Find(key, p, &hash);
  }
};

TEST(PatternDedupIndexTest, FindsRelabelledIsomorphicPattern) {
  Rng rng(11);
  const Pattern p = RandomConnectedPattern(9, 0.4, 3, &rng);
  const Pattern q = Permuted(p, Reversed(p.NumVertices()));
  Pool pool;
  const uint64_t key = PatternDedupIndex::SizeKey(p);
  ASSERT_EQ(pool.Add(key, p), 0);
  uint64_t hash = 0;
  EXPECT_EQ(pool.Find(key, q, &hash), 0);
  EXPECT_EQ(pool.run, 1);
  EXPECT_EQ(pool.skipped, 0);
  // Both fingerprints are now cached, and they agree.
  EXPECT_EQ(hash, PatternIsoHash(q));
  EXPECT_EQ(pool.index.iso_hash(0), hash);
}

TEST(PatternDedupIndexTest, FirstMatchInInsertionOrderWins) {
  Rng rng(12);
  const Pattern p = RandomConnectedPattern(8, 0.3, 2, &rng);
  const uint64_t key = 7;
  Pool pool;
  pool.Add(key, Cycle(p.NumVertices()));  // same key, not isomorphic
  pool.Add(key, Permuted(p, Reversed(p.NumVertices())));
  pool.Add(key, p);
  EXPECT_EQ(pool.Find(key, p), 1);
}

TEST(PatternDedupIndexTest, DifferentKeysAreNeverCompared) {
  const Pattern p = Cycle(5);
  Pool pool;
  pool.Add(1, p);
  uint64_t hash = 0;
  EXPECT_EQ(pool.Find(2, p, &hash), -1);
  EXPECT_EQ(pool.skipped, 0);
  EXPECT_EQ(pool.run, 0);
  EXPECT_EQ(hash, 0u) << "no comparison, so no fingerprint";
  EXPECT_EQ(pool.index.iso_hash(0), 0u);
}

TEST(PatternDedupIndexTest, WlEquivalentNonIsomorphicPairsStayApart) {
  const std::pair<Pattern, Pattern> pairs[] = {{Cycle(6), TwoTriangles()},
                                               {Cube(), Moebius()}};
  for (const auto& [a, b] : pairs) {
    ASSERT_FALSE(ArePatternsIsomorphic(a, b));
    ASSERT_EQ(PatternIsoHash(a), PatternIsoHash(b))
        << "the pair must defeat the fingerprint prefilter";
    Pool pool;
    const uint64_t key = PatternDedupIndex::SizeKey(a);
    ASSERT_EQ(key, PatternDedupIndex::SizeKey(b));
    pool.Add(key, a);
    EXPECT_EQ(pool.Find(key, b), -1);
    EXPECT_EQ(pool.run, 1);
    EXPECT_EQ(pool.skipped, 0);
  }
}

TEST(PatternDedupIndexTest, FingerprintMismatchCountsAsSkipped) {
  // A 4-path and a 4-star: same key, different WL colours.
  Pattern path;
  Pattern star;
  for (int i = 0; i < 4; ++i) {
    path.AddVertex(0);
    star.AddVertex(0);
  }
  for (int i = 0; i < 3; ++i) {
    path.AddEdge(i, i + 1);
    star.AddEdge(0, i + 1);
  }
  Pool pool;
  const uint64_t key = PatternDedupIndex::SizeKey(path);
  pool.Add(key, path);
  EXPECT_EQ(pool.Find(key, star), -1);
  EXPECT_EQ(pool.skipped, 1);
  EXPECT_EQ(pool.run, 0);
}

TEST(PatternDedupIndexTest, NullCountersAreAllowed) {
  const Pattern p = Cube();
  std::vector<Pattern> patterns = {Moebius(), p};
  PatternDedupIndex index;
  index.Add(3);
  index.Add(3);
  uint64_t hash = 0;
  const int64_t found = index.Find(
      3, Permuted(p, Reversed(8)), &hash,
      [&patterns](int64_t i) -> const Pattern& {
        return patterns[static_cast<size_t>(i)];
      },
      /*iso_checks_skipped=*/nullptr, /*iso_checks_run=*/nullptr);
  EXPECT_EQ(found, 1);
}

TEST(PatternDedupIndexTest, StoresKeysAndCachedFingerprints) {
  Pool pool;
  pool.Add(1, Cycle(4));
  pool.Add(2, Cycle(5));
  pool.Add(1, Cycle(6));
  EXPECT_EQ(pool.index.key(1), 2u);
  EXPECT_EQ(pool.index.iso_hash(1), 0u) << "never compared";
  // A lookup in bucket 1 fingerprints both of its entries, nothing else.
  ASSERT_EQ(pool.Find(1, Cycle(6)), 2);
  EXPECT_EQ(pool.index.iso_hash(0), PatternIsoHash(Cycle(4)));
  EXPECT_EQ(pool.index.iso_hash(2), PatternIsoHash(Cycle(6)));
  EXPECT_EQ(pool.index.iso_hash(1), 0u);
  // A fingerprint handed to Add is kept, not recomputed.
  const int64_t id = pool.index.Add(3, /*iso_hash=*/42);
  EXPECT_EQ(pool.index.iso_hash(id), 42u);
}

TEST(PatternDedupIndexTest, SizeKeySeparatesEdgeAndVertexCounts) {
  Pattern star;
  for (int i = 0; i < 5; ++i) star.AddVertex(0);
  for (int i = 1; i < 5; ++i) star.AddEdge(0, i);
  EXPECT_NE(PatternDedupIndex::SizeKey(Cycle(5)),
            PatternDedupIndex::SizeKey(star));
  EXPECT_NE(PatternDedupIndex::SizeKey(Cycle(5)),
            PatternDedupIndex::SizeKey(Cycle(6)));
  EXPECT_EQ(PatternDedupIndex::SizeKey(Cycle(6)),
            PatternDedupIndex::SizeKey(TwoTriangles()));
}

}  // namespace
}  // namespace spidermine
