#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "pattern/pattern.h"

/// \file pattern_dedup_index.h
/// The one pattern-dedup lookup (the paper's SpiderSetCheck, Sec. 4.2.2,
/// Theorem 2): a cheap isomorphism-invariant bucket key rules out most
/// pairs, a lazily cached WL fingerprint (dfs_code.h::PatternIsoHash) most
/// of the rest, and vf2.h::ArePatternsIsomorphic confirms what remains.
/// Callers own the patterns; entry ids are dense, in insertion order.

namespace spidermine {

class PatternDedupIndex {
 public:
  /// Bucket key for callers without a spider-set digest: (|E|, |V|).
  static uint64_t SizeKey(const Pattern& pattern) {
    return (static_cast<uint64_t>(pattern.NumEdges()) << 32) |
           static_cast<uint32_t>(pattern.NumVertices());
  }

  /// Returns the id of the first entry under \p key, in insertion order,
  /// that is isomorphic to \p pattern, or -1. \p pattern_of(id) yields
  /// entry id's pattern. *\p pattern_hash is the candidate's cached
  /// fingerprint (0 = not yet computed), filled at its first comparison;
  /// entry fingerprints are cached the same way. A fingerprint mismatch
  /// counts in *\p iso_checks_skipped, an exact test in *\p iso_checks_run;
  /// either counter may be null.
  int64_t Find(uint64_t key, const Pattern& pattern, uint64_t* pattern_hash,
               const std::function<const Pattern&(int64_t)>& pattern_of,
               int64_t* iso_checks_skipped, int64_t* iso_checks_run);

  /// Appends an entry under \p key with cached fingerprint \p iso_hash
  /// (0 = not yet computed) and returns its id.
  int64_t Add(uint64_t key, uint64_t iso_hash = 0);

  /// Entry \p id's bucket key.
  uint64_t key(int64_t id) const {
    return entries_[static_cast<size_t>(id)].key;
  }
  /// Entry \p id's cached fingerprint (0 = never computed).
  uint64_t iso_hash(int64_t id) const {
    return entries_[static_cast<size_t>(id)].iso_hash;
  }

 private:
  struct Entry {
    uint64_t key = 0;
    uint64_t iso_hash = 0;
  };
  std::vector<Entry> entries_;
  std::unordered_map<uint64_t, std::vector<int64_t>> buckets_;
};

}  // namespace spidermine
