#include "oracle.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t OracleRank(double q, uint64_t n) {
  if (n == 0) return 0;
  const double pos = std::ceil(q * static_cast<double>(n));
  if (pos < 1) return 1;
  if (pos > static_cast<double>(n)) return n;
  return static_cast<uint64_t>(pos);
}

std::vector<double> OracleQuantiles(std::vector<double> values,
                                    const std::vector<double>& qs) {
  std::vector<double> out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  for (double q : qs) out.push_back(values[OracleRank(q, values.size()) - 1]);
  return out;
}

bool ResultMatches(uint64_t want_size, const double* want_values,
                   size_t num_quantiles, uint64_t got_size,
                   const double* got_values, size_t got_count, bool degraded) {
  if (degraded || got_size != want_size) return false;
  if (got_count != num_quantiles) return false;
  for (size_t i = 0; i < num_quantiles; ++i) {
    if (!(got_values[i] == want_values[i])) return false;
  }
  return true;
}

}  // namespace perfbench
