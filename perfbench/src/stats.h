// Sample statistics for the benchmark's reported timings.
//
// Percentile rule: a timing is reported as its median and the highest
// percentile of the ladder p90, p99, p99.9, ... that still has at least ten
// samples beyond it, together with the sample count. Percentiles are
// nearest-rank, so with n samples pXX.9..9 (k nines) is the sample at rank
// n - floor(n / 10^k) and has floor(n / 10^k) samples beyond it. A sample
// set too small for p90 (fewer than 100 samples) reports the median as its
// tail.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (nearest-rank, lower middle for even counts); 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

/// A timing distribution reduced by the percentile rule.
struct TailSummary {
    std::size_t count = 0;
    double p50 = 0.0;
    /// Highest ladder percentile with >= 10 samples beyond it (50 when the
    /// set is too small for p90), and its value.
    double tail_percentile = 50.0;
    double tail = 0.0;
};

[[nodiscard]] TailSummary summarize(std::vector<double> samples);

}  // namespace perfbench
