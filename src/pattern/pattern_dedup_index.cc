#include "pattern/pattern_dedup_index.h"

#include "pattern/dfs_code.h"
#include "pattern/vf2.h"

namespace spidermine {

int64_t PatternDedupIndex::Find(
    uint64_t key, const Pattern& pattern, uint64_t* pattern_hash,
    const std::function<const Pattern&(int64_t)>& pattern_of,
    int64_t* iso_checks_skipped, int64_t* iso_checks_run) {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return -1;
  for (int64_t id : it->second) {
    const Pattern& entry = pattern_of(id);
    // A fingerprint mismatch certifies non-isomorphism, so the
    // exponential-worst-case exact test runs only on fingerprint collisions.
    if (*pattern_hash == 0) *pattern_hash = PatternIsoHash(pattern);
    uint64_t& entry_hash = entries_[static_cast<size_t>(id)].iso_hash;
    if (entry_hash == 0) entry_hash = PatternIsoHash(entry);
    if (entry_hash != *pattern_hash) {
      if (iso_checks_skipped != nullptr) ++*iso_checks_skipped;
      continue;
    }
    if (iso_checks_run != nullptr) ++*iso_checks_run;
    if (ArePatternsIsomorphic(entry, pattern)) return id;
  }
  return -1;
}

int64_t PatternDedupIndex::Add(uint64_t key, uint64_t iso_hash) {
  const int64_t id = static_cast<int64_t>(entries_.size());
  entries_.push_back({key, iso_hash});
  buckets_[key].push_back(id);
  return id;
}

}  // namespace spidermine
