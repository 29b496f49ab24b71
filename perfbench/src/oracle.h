#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// 1-based rank of the q-quantile among \p n values: Pos(q) = ceil(q * n),
/// clamped to [1, n] (0 when n is 0).
uint64_t OracleRank(double q, uint64_t n);

/// Exact q-quantiles of \p values for every q in \p qs, taken from a sorted
/// copy; empty when \p values is empty. Standard library only: the oracle
/// shares no code with the program it checks.
std::vector<double> OracleQuantiles(std::vector<double> values,
                                    const std::vector<double>& qs);

/// True when a result is exact and equals the oracle: not degraded, the same
/// global window size, and every quantile value bit-for-bit equal.
bool ResultMatches(uint64_t want_size, const double* want_values,
                   size_t num_quantiles, uint64_t got_size,
                   const double* got_values, size_t got_count, bool degraded);

}  // namespace perfbench
