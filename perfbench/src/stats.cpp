#include "stats.h"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    // Nearest rank ceil(n/2), i.e. index (n - 1) / 2.
    const auto mid = samples.begin() + static_cast<std::ptrdiff_t>((samples.size() - 1) / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    return *mid;
}

TailSummary summarize(std::vector<double> samples) {
    TailSummary out;
    out.count = samples.size();
    if (samples.empty()) return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    out.p50 = samples[(n - 1) / 2];
    out.tail = out.p50;
    // k nines: p = 100 * (1 - 10^-k) needs floor(n / 10^k) >= 10 samples
    // beyond its rank n - floor(n / 10^k).
    std::size_t scale = 10;
    double nines = 90.0;
    double step = 10.0;
    while (n / scale >= 10) {
        out.tail_percentile = nines;
        out.tail = samples[n - n / scale - 1];
        scale *= 10;
        step /= 10.0;
        nines += 9.0 * step;
    }
    return out;
}

}  // namespace perfbench
