#pragma once

#include <cstdint>

#include "common/result.h"

/// \file seed_count.h
/// The randomized-guarantee arithmetic of the paper's Lemma 2:
///
///   P_success >= (1 - (M+1) (1 - Vmin/|V(G)|)^M)^K
///
/// Solving P_success >= 1 - epsilon for the smallest M gives the number of
/// seed spiders to draw. The paper's worked example (epsilon = 0.1, K = 10,
/// Vmin = |V|/10) quotes M = 85; the exact smallest integer satisfying the
/// bound is 86 (the bound evaluates to 0.8942 at M = 85), which the unit
/// tests pin down.

namespace spidermine {

/// Evaluates the Lemma 2 lower bound on P_success for a given draw size M.
/// Returns a value in [0, 1] (clamped; the bound is vacuous when
/// (M+1)(1-p)^M >= 1).
double SeedSuccessLowerBound(int64_t num_vertices, int64_t vmin, int32_t k,
                             int64_t m);

/// Smallest M with SeedSuccessLowerBound(...) >= 1 - epsilon.
///
/// Fails with kInvalidArgument for nonsensical inputs and with
/// kResourceExhausted when no M up to \p max_m satisfies the bound
/// (epsilon too small for the graph).
Result<int64_t> ComputeSeedCount(int64_t num_vertices, int64_t vmin,
                                 int32_t k, double epsilon,
                                 int64_t max_m = 10'000'000);

}  // namespace spidermine
