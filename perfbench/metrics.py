"""Metric names, units and the summary statistics the benchmark reports.

BENCHMARK.json lists the same names; test_metrics.py checks that the two
agree and that every name is well formed.
"""

import math
import re
import statistics

# End-to-end metrics, measured with tracing off: name -> unit. Their
# meanings per workload are in README.md.
END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "top_pattern_edges_mean": "edges",
}

# Per-layer metrics from the traced run: name -> unit. Layers are the
# repository's modules; counts and times are sums over the run's replayed
# queries, *_us kernel costs are means per call.
PER_LAYER = {
    "graph.load_s": "s",
    "graph.vertices": "count",
    "graph.edges": "count",
    "spider.mine_s": "s",
    "spider.spiders": "count",
    "spider.closed_spiders": "count",
    "spider.extension_attempts": "count",
    "spider.store_bytes": "bytes",
    "spider.save_s": "s",
    "spider.artifact_bytes": "bytes",
    "spider.open_s": "s",
    "spider.validate_s": "s",
    "session.query_s": "s",
    "session.stage2_s": "s",
    "session.stage3_s": "s",
    "session.post_growth_s": "s",
    "session.seed_count": "count",
    "session.replay_self_s": "s",
    "growth.seed_s": "s",
    "growth.stage2_round_s": "s",
    "growth.stage3_round_s": "s",
    "growth.stage2_iterations": "count",
    "growth.stage3_rounds": "count",
    "growth.extend_calls": "count",
    "growth.spider_appends": "count",
    "growth.merge_pairs": "count",
    "growth.merges": "count",
    "growth.nonclosed_dropped": "count",
    "growth.pruned_unmerged": "count",
    "growth.pattern_cap_hits": "count",
    "growth.embedding_cap_hits": "count",
    "growth.emb_extensions": "count",
    "growth.append_yield": "ratio",
    "growth.merge_yield": "ratio",
    "pattern.iso_checks_run": "count",
    "pattern.iso_checks_skipped": "count",
    "pattern.wl_prefilter_yield": "ratio",
    "pattern.spider_set_us": "us",
    "pattern.min_dfs_code_us": "us",
    "pattern.iso_check_us": "us",
    "pattern.vf2_enum_s": "s",
    "closure.s": "s",
    "closure.carried": "count",
    "closure.vf2_fallbacks": "count",
    "closure.edges_added": "count",
    "support.compute_us.vertex-mis": "us",
    "support.compute_us.edge-mis": "us",
    "support.compute_us.mni": "us",
    "support.compute_us.count": "us",
    "support.compute_us.homomorphism": "us",
    "support.compute_us.transaction": "us",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.bytes": "bytes",
    "serve.hit_p50_s": "s",
    "serve.miss_p50_s": "s",
    "serve.overhead_p50_s": "s",
    "serve.requests": "count",
    "serve.errors": "count",
    "serve.rejected": "count",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "proc.invol_ctx_switches": "count",
    "proc.minor_faults": "count",
    "alloc.count.seed": "count",
    "alloc.count.stage2": "count",
    "alloc.count.stage3": "count",
    "alloc.count.closure": "count",
    "alloc.bytes.seed": "bytes",
    "alloc.bytes.stage2": "bytes",
    "alloc.bytes.stage3": "bytes",
    "alloc.bytes.closure": "bytes",
    "trace.overhead_s": "s",
    "trace.replayed_queries": "count",
    "trace.counter_mismatches": "count",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The tail rule: report the highest percentile that still has at least this
# many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Returns (value, percentile, samples_beyond) under the tail rule.

    With n sorted samples the answer is the (TAIL_BEYOND + 1)-th largest:
    exactly TAIL_BEYOND samples lie beyond it, at percentile
    100 * (n - TAIL_BEYOND) / n. With n <= TAIL_BEYOND no percentile
    qualifies; the maximum is returned with the true (smaller) count beyond
    it so the caller can see the rule was not met.
    """
    if not values:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


def ratio(numerator, denominator):
    """numerator / denominator, with a zero base reading as 0 (no attempts,
    nothing to yield) instead of raising or producing NaN."""
    if not denominator:
        return 0.0
    value = numerator / denominator
    return 0.0 if math.isnan(value) else value

