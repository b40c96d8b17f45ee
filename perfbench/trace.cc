#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "pattern/dfs_code.h"
#include "pattern/spider_set.h"
#include "pattern/vf2.h"
#include "spidermine/closure.h"
#include "spidermine/growth.h"
#include "spidermine/seed_count.h"

// ------------------------------------------------------------------------
// Counting replacement of the global allocation functions. Every
// allocation made while a bucketed span is open (on any thread: the traced
// replay runs one query at a time, so pool workers allocate on its behalf)
// counts into that span's bucket. Over-aligned allocations keep the
// library's default functions and are not counted.

namespace {

std::atomic<int> g_alloc_bucket{perfbench::kAllocNone};

/// Per-thread counters: each thread writes only its own cache line, so
/// counting adds no contention between pool workers. Threads past the last
/// slot share it (with a benign undercount).
struct alignas(64) AllocSlot {
  std::atomic<int64_t> count[perfbench::kNumAllocBuckets];
  std::atomic<int64_t> bytes[perfbench::kNumAllocBuckets];
};
constexpr int kAllocSlots = 256;
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<int> g_next_alloc_slot{0};
thread_local int tls_alloc_slot = -1;

void CountAlloc(int bucket, std::size_t size) {
  if (tls_alloc_slot < 0) {
    tls_alloc_slot = std::min(g_next_alloc_slot.fetch_add(1), kAllocSlots - 1);
  }
  AllocSlot& slot = g_alloc_slots[tls_alloc_slot];
  // Single writer per slot: a relaxed load + store is enough.
  slot.count[bucket].store(slot.count[bucket].load(std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
  slot.bytes[bucket].store(
      slot.bytes[bucket].load(std::memory_order_relaxed) +
          static_cast<int64_t>(size),
      std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  const int bucket = g_alloc_bucket.load(std::memory_order_relaxed);
  if (bucket >= 0) CountAlloc(bucket, size);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

using namespace spidermine;

const char* const kAllocBucketNames[kNumAllocBuckets] = {"seed", "stage2",
                                                         "stage3", "closure"};

AllocTotals ReadAllocTotals(int bucket) {
  AllocTotals totals;
  for (const AllocSlot& slot : g_alloc_slots) {
    totals.count += slot.count[bucket].load(std::memory_order_relaxed);
    totals.bytes += slot.bytes[bucket].load(std::memory_order_relaxed);
  }
  return totals;
}

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(SteadyNanos()) {
  // Growing the vectors inside a span would count into its bucket.
  spans_.reserve(1 << 16);
  buckets_.reserve(1 << 16);
}

double SpanRecorder::Now() const {
  return static_cast<double>(SteadyNanos() - origin_ns_) * 1e-9;
}

int32_t SpanRecorder::Begin(const char* name, int32_t query, int32_t parent,
                            int bucket) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.query = query;
  span.parent = parent;
  spans_.push_back(std::move(span));
  buckets_.push_back(bucket);
  if (bucket != kAllocNone) {
    g_alloc_bucket.store(bucket, std::memory_order_relaxed);
  }
  // Stamp last so the span's own bookkeeping stays outside its interval.
  spans_.back().start_s = Now();
  return static_cast<int32_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int32_t index) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_s = now;
  if (buckets_[static_cast<size_t>(index)] != kAllocNone) {
    g_alloc_bucket.store(kAllocNone, std::memory_order_relaxed);
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_s,
                                                              span.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Children of parallel sub-calls overlap: subtract their union once.
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    for (const auto& [start, end] : kids) {
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return self;
}

namespace {

bool LargerPattern(const MinedPattern& a, const MinedPattern& b) {
  if (a.NumEdges() != b.NumEdges()) return a.NumEdges() > b.NumEdges();
  if (a.NumVertices() != b.NumVertices()) {
    return a.NumVertices() > b.NumVertices();
  }
  return a.support > b.support;
}

/// Same accumulation semantics as RunQuery's result collector: spider-set
/// digest buckets, WL-hash prefilter, exact isomorphism, best support wins.
class Collector {
 public:
  Collector(const QueryConfig* query, int32_t spider_radius, MineStats* stats)
      : query_(query), spider_radius_(spider_radius), stats_(stats) {}

  void Add(const GrowthPattern& gp) {
    auto [it, inserted] = buckets_.try_emplace(gp.spider_set.digest());
    uint64_t gp_hash = gp.iso_hash;
    for (int64_t idx : it->second) {
      MinedPattern& existing = results_[static_cast<size_t>(idx)];
      if (gp_hash == 0) gp_hash = PatternIsoHash(gp.pattern);
      if (hashes_[static_cast<size_t>(idx)] == 0) {
        hashes_[static_cast<size_t>(idx)] = PatternIsoHash(existing.pattern);
      }
      if (hashes_[static_cast<size_t>(idx)] != gp_hash) {
        ++stats_->iso_checks_skipped;
        continue;
      }
      ++stats_->iso_checks_run;
      if (ArePatternsIsomorphic(existing.pattern, gp.pattern)) {
        if (gp.support > existing.support) {
          existing.pattern = gp.pattern;
          existing.support = gp.support;
          existing.embeddings = gp.embeddings;
          existing.full_list = gp.full_list;
        }
        existing.from_merge |= gp.merged_ever;
        return;
      }
    }
    MinedPattern mp;
    mp.pattern = gp.pattern;
    mp.embeddings = gp.embeddings;
    mp.full_list = gp.full_list;
    mp.support = gp.support;
    mp.from_merge = gp.merged_ever;
    it->second.push_back(static_cast<int64_t>(results_.size()));
    results_.push_back(std::move(mp));
    hashes_.push_back(gp_hash);
    if (static_cast<int64_t>(results_.size()) >
        query_->max_results + kCompactionSlack) {
      Compact();
    }
  }

  std::vector<MinedPattern> TakeSorted() {
    std::sort(results_.begin(), results_.end(), LargerPattern);
    return std::move(results_);
  }

 private:
  static constexpr int64_t kCompactionSlack = 1024;

  void Compact() {
    std::sort(results_.begin(), results_.end(), LargerPattern);
    results_.resize(static_cast<size_t>(query_->max_results));
    buckets_.clear();
    hashes_.assign(results_.size(), 0);
    for (size_t i = 0; i < results_.size(); ++i) {
      SpiderSetRepr repr =
          SpiderSetRepr::Compute(results_[i].pattern, spider_radius_);
      buckets_[repr.digest()].push_back(static_cast<int64_t>(i));
    }
  }

  const QueryConfig* query_;
  int32_t spider_radius_;
  MineStats* stats_;
  std::vector<MinedPattern> results_;
  std::vector<uint64_t> hashes_;
  std::unordered_map<uint64_t, std::vector<int64_t>> buckets_;
};

/// Scoped span: ends when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int32_t query,
             int32_t parent, int bucket = kAllocNone)
      : recorder_(recorder),
        index_(recorder->Begin(name, query, parent, bucket)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

/// RunQuery's internal-edge closure and post-closure dedup, with one span
/// per FindEmbeddings / ComputeSupport / CloseInternalEdges call.
void ReplayClosure(const MiningSession& session, const QueryConfig& q,
                   std::vector<MinedPattern>* all_patterns, MineStats* stats,
                   const CancellationToken* cancel, int32_t query_id,
                   int32_t parent, SpanRecorder* recorder) {
  std::vector<MinedPattern>& all = *all_patterns;
  const SessionConfig& config = session.config();
  const LabeledGraph& graph = session.graph();
  const bool homomorphic =
      q.support_measure == SupportMeasureKind::kHomomorphism;
  if (!q.close_internal_edges && !homomorphic) return;
  const int64_t window = q.closure_window > 0
                             ? q.closure_window
                             : std::max<int64_t>(64, 8LL * q.k);
  const size_t limit = std::min(all.size(), static_cast<size_t>(window));
  struct ClosureSlot {
    int32_t edges_added = 0;
    int32_t carried = 0;
    int32_t fallbacks = 0;
  };
  std::vector<ClosureSlot> slots(limit);
  config.pool->ParallelForChunks(
      static_cast<int64_t>(limit), /*grain=*/1,
      [&](int64_t begin, int64_t end) {
        SupportContext support_context;
        support_context.txn_of_vertex = config.txn_of_vertex;
        support_context.txn_map = config.txn_map;
        for (int64_t i = begin; i < end; ++i) {
          MinedPattern& mp = all[static_cast<size_t>(i)];
          ClosureSlot& slot = slots[static_cast<size_t>(i)];
          std::vector<Embedding> full;
          if (mp.full_list != nullptr && !mp.full_list->saturated) {
            full = mp.full_list->embeddings;
            ++slot.carried;
          } else {
            Vf2Options vf2_options;
            vf2_options.max_embeddings = q.max_embeddings_per_pattern;
            vf2_options.homomorphic = homomorphic;
            ScopedSpan span(recorder, "closure.find_embeddings", query_id,
                            parent);
            full = FindEmbeddings(mp.pattern, graph, vf2_options);
            ++slot.fallbacks;
          }
          if (!full.empty()) {
            CanonicalizeEmbeddingOrder(&full);
            if (!homomorphic) DedupEmbeddingsByImage(&full);
            mp.embeddings = std::move(full);
            ScopedSpan span(recorder, "closure.compute_support", query_id,
                            parent);
            mp.support = ComputeSupport(q.support_measure, mp.pattern,
                                        mp.embeddings, support_context);
          }
          if (q.close_internal_edges) {
            ScopedSpan span(recorder, "closure.close_internal_edges",
                            query_id, parent);
            slot.edges_added = CloseInternalEdges(
                graph, &mp.pattern, &mp.embeddings, q.support_measure,
                q.min_support, &mp.support, support_context);
            if (slot.edges_added > 0) mp.full_list.reset();
          }
        }
      },
      cancel);
  for (size_t i = 0; i < limit; ++i) {
    stats->closure_edges_added += slots[i].edges_added;
    stats->emb_carried += slots[i].carried;
    stats->vf2_fallbacks += slots[i].fallbacks;
  }
  if (stats->closure_edges_added == 0) return;
  std::sort(all.begin(), all.end(), LargerPattern);
  std::vector<MinedPattern> deduped;
  std::vector<uint64_t> deduped_hashes;
  for (MinedPattern& mp : all) {
    bool duplicate = false;
    uint64_t mp_hash = 0;
    for (size_t j = 0; j < deduped.size(); ++j) {
      MinedPattern& kept = deduped[j];
      if (kept.NumEdges() != mp.NumEdges() ||
          kept.NumVertices() != mp.NumVertices()) {
        continue;
      }
      if (mp_hash == 0) mp_hash = PatternIsoHash(mp.pattern);
      if (deduped_hashes[j] == 0) {
        deduped_hashes[j] = PatternIsoHash(kept.pattern);
      }
      if (deduped_hashes[j] != mp_hash) {
        ++stats->iso_checks_skipped;
        continue;
      }
      ++stats->iso_checks_run;
      if (ArePatternsIsomorphic(kept.pattern, mp.pattern)) {
        if (mp.support > kept.support) {
          kept.pattern = mp.pattern;
          kept.support = mp.support;
          kept.embeddings = mp.embeddings;
          kept.full_list = mp.full_list;
        }
        kept.from_merge |= mp.from_merge;
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      deduped.push_back(std::move(mp));
      deduped_hashes.push_back(mp_hash);
    }
    if (static_cast<int64_t>(deduped.size()) > 4 * q.k + 16) break;
  }
  all = std::move(deduped);
}

}  // namespace

bool IsReplayable(const QueryConfig& query) {
  return query.restarts == 1 && query.txn_sample == 0;
}

Result<ReplayOutput> ReplayQuery(const MiningSession& session,
                                 const QueryConfig& query, int32_t query_id,
                                 SpanRecorder* recorder) {
  SM_RETURN_NOT_OK(query.Validate());
  if (!IsReplayable(query)) {
    return Status::InvalidArgument(
        "replay supports one restart and no txn_sample");
  }
  const SessionConfig& config = session.config();
  if (config.pool == nullptr) {
    return Status::InvalidArgument("replay needs the session's pool");
  }
  QueryConfig q = query;
  if (q.min_support == 0) q.min_support = config.min_support;
  if (q.min_support < config.min_support) {
    return Status::InvalidArgument("query min_support below the floor");
  }
  if (q.support_measure == SupportMeasureKind::kTransaction &&
      config.txn_of_vertex == nullptr && config.txn_map == nullptr) {
    return Status::InvalidArgument(
        "transaction support requires a transaction source");
  }
  const LabeledGraph& graph = session.graph();
  const SpiderStore& store = session.store();

  ReplayOutput out;
  MineStats& stats = out.stats;
  stats.support_measure = q.support_measure;
  WallTimer total_timer;
  Deadline deadline(q.time_budget_seconds);
  CancellationToken cancel(&deadline);
  ScopedSpan root(recorder, "query", query_id, -1);
  if (store.empty()) {
    out.seconds = total_timer.ElapsedSeconds();
    return out;
  }

  int64_t m = q.seed_count_override;
  {
    ScopedSpan span(recorder, "seed_count", query_id, root.index());
    if (m <= 0) {
      int64_t vmin = q.vmin > 0
                         ? q.vmin
                         : std::max<int64_t>(1, graph.NumVertices() / 10);
      vmin = std::min(vmin, graph.NumVertices());
      Result<int64_t> computed =
          ComputeSeedCount(graph.NumVertices(), vmin, q.k, q.epsilon);
      m = computed.ok() ? *computed : store.size();
    }
  }
  stats.seed_count_m = m;

  GrowthEngine engine(&graph, &session.index(), &config, &q, &stats,
                      &deadline, config.pool, &cancel);
  Collector collector(&q, config.spider_radius, &stats);
  WallTimer stage_timer;

  // ---------------- Stage II (run 0 only: restarts == 1). ----------------
  // Run r draws from substream rng_seed ^ (r * stride); run 0 is the seed.
  Rng run_rng(q.rng_seed);
  std::vector<GrowthPattern> working;
  {
    ScopedSpan span(recorder, "seed", query_id, root.index(), kAllocSeed);
    size_t draw = std::min<size_t>(static_cast<size_t>(m),
                                   static_cast<size_t>(store.size()));
    std::vector<size_t> picks = run_rng.SampleWithoutReplacement(
        static_cast<size_t>(store.size()), draw);
    std::vector<int32_t> pick_ids;
    pick_ids.reserve(picks.size());
    for (size_t pick : picks) pick_ids.push_back(static_cast<int32_t>(pick));
    std::vector<GrowthPattern> seeds = engine.SeedPatterns(pick_ids);
    for (GrowthPattern& seed : seeds) {
      if (seed.embeddings.empty()) continue;
      working.push_back(std::move(seed));
    }
  }

  MergeRegistry previous;
  const int32_t iterations = std::max(1, q.dmax / (2 * config.spider_radius));
  for (int32_t iter = 0; iter < iterations; ++iter) {
    if (cancel.IsCancelled()) {
      stats.timed_out = true;
      break;
    }
    ScopedSpan span(recorder, "stage2_round", query_id, root.index(),
                    kAllocStage2);
    GrowRoundResult round = engine.GrowRound(
        std::move(working), /*enable_merging=*/true, &previous);
    working = std::move(round.patterns);
    ++stats.stage2_iterations;
  }

  if (!q.keep_unmerged) {
    ScopedSpan span(recorder, "prune", query_id, root.index(), kAllocStage2);
    bool any_merged =
        std::any_of(working.begin(), working.end(),
                    [](const GrowthPattern& gp) { return gp.merged_ever; });
    if (any_merged) {
      size_t before = working.size();
      std::erase_if(working,
                    [](const GrowthPattern& gp) { return !gp.merged_ever; });
      stats.pruned_unmerged += static_cast<int64_t>(before - working.size());
    } else if (static_cast<int64_t>(working.size()) > 4 * q.k) {
      std::sort(working.begin(), working.end(),
                [](const GrowthPattern& a, const GrowthPattern& b) {
                  return a.pattern.NumEdges() > b.pattern.NumEdges();
                });
      working.resize(static_cast<size_t>(4 * q.k));
    }
  }
  stats.stage2_seconds += stage_timer.ElapsedSeconds();

  // ---------------- Stage III. ----------------
  stage_timer.Restart();
  {
    ScopedSpan span(recorder, "collect", query_id, root.index(),
                    kAllocStage3);
    for (const GrowthPattern& gp : working) collector.Add(gp);
  }
  for (int32_t round = 0; round < q.stage3_max_rounds; ++round) {
    if (working.empty()) break;
    if (cancel.IsCancelled()) {
      stats.timed_out = true;
      break;
    }
    ScopedSpan span(recorder, "stage3_round", query_id, root.index(),
                    kAllocStage3);
    GrowRoundResult grown = engine.GrowRound(
        std::move(working), /*enable_merging=*/true, &previous);
    ++stats.stage3_rounds;
    working.clear();
    for (GrowthPattern& gp : grown.patterns) {
      collector.Add(gp);
      if (!gp.exhausted) working.push_back(std::move(gp));
    }
    if (!grown.any_growth) break;
  }
  std::vector<MinedPattern> all;
  {
    ScopedSpan span(recorder, "collect", query_id, root.index(),
                    kAllocStage3);
    for (const GrowthPattern& gp : working) collector.Add(gp);
    all = collector.TakeSorted();
  }
  stats.stage3_seconds += stage_timer.ElapsedSeconds();

  {
    ScopedSpan span(recorder, "closure", query_id, root.index(),
                    kAllocClosure);
    ReplayClosure(session, q, &all, &stats, &cancel, query_id, span.index(),
                  recorder);
  }

  if (q.min_support > config.min_support) {
    std::erase_if(all, [&q](const MinedPattern& mp) {
      return mp.support < q.min_support;
    });
  }
  if (q.enforce_dmax_on_results) {
    std::erase_if(all, [&q](const MinedPattern& mp) {
      return mp.pattern.Diameter() > q.dmax;
    });
  }
  if (static_cast<int64_t>(all.size()) > q.k) {
    all.resize(static_cast<size_t>(q.k));
  }
  out.patterns = std::move(all);
  stats.total_seconds = total_timer.ElapsedSeconds();
  out.seconds = stats.total_seconds;
  return out;
}

}  // namespace perfbench
