#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "spidermine/session.h"

/// \file trace.h
/// The benchmark's traced run: spans recorded around calls into the
/// library's public functions, allocation counts attributed to the open
/// span, and a replay of MiningSession::RunQuery's stage sequence through
/// the public API so each stage can be timed without touching the library.

namespace perfbench {

/// Allocation buckets the counting operator new attributes to. kNone (the
/// default) counts nothing, so untraced code pays one relaxed load.
enum AllocBucket : int {
  kAllocNone = -1,
  kAllocSeed = 0,
  kAllocStage2 = 1,
  kAllocStage3 = 2,
  kAllocClosure = 3,
  kNumAllocBuckets = 4,
};

/// Bucket names, indexed by AllocBucket.
extern const char* const kAllocBucketNames[kNumAllocBuckets];

struct AllocTotals {
  int64_t count = 0;
  int64_t bytes = 0;
};

/// Totals counted into \p bucket since program start.
AllocTotals ReadAllocTotals(int bucket);

/// One recorded span. Times are seconds since the recorder was created.
struct Span {
  const char* name = "";  ///< a string literal: recording never allocates
  int32_t query = -1;
  int32_t parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Keeps spans in memory until the run ends. Begin/End may be called from
/// pool workers (closure sub-calls), so both take a mutex. Opening a span
/// with an allocation bucket makes it the bucket new allocations count
/// into until the span ends (spans with a bucket never nest).
class SpanRecorder {
 public:
  SpanRecorder();

  int32_t Begin(const char* name, int32_t query, int32_t parent,
                int bucket = kAllocNone);
  void End(int32_t index);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Span duration minus the union of its children's intervals.
  static std::vector<double> SelfTimes(const std::vector<Span>& spans);

 private:
  double Now() const;

  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::vector<int> buckets_;  // guarded by mu_
};

/// A replayed query: the result RunQuery would return plus its counters.
struct ReplayOutput {
  std::vector<spidermine::MinedPattern> patterns;
  spidermine::MineStats stats;
  double seconds = 0.0;
};

/// True when ReplayQuery supports \p query: one restart and no transaction
/// sample (the per-run sample draw is private to session.cc).
bool IsReplayable(const spidermine::QueryConfig& query);

/// Runs RunQuery's Stage II/III + closure sequence on \p session through
/// the public API (ComputeSeedCount, GrowthEngine::SeedPatterns and
/// GrowRound, FindEmbeddings/ComputeSupport/CloseInternalEdges), recording
/// one span per call under a root "query" span. The session's config must
/// carry the pool the engine fans out over.
spidermine::Result<ReplayOutput> ReplayQuery(
    const spidermine::MiningSession& session,
    const spidermine::QueryConfig& query, int32_t query_id,
    SpanRecorder* recorder);

}  // namespace perfbench
