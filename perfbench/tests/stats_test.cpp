// Tests of the benchmark's own arithmetic: the percentile rule and span
// self-time. Exit code 0 when every check passes.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        std::printf("FAIL: %s\n", what.c_str());
        ++g_failures;
    }
}

std::vector<double> one_to(std::size_t n) {
    std::vector<double> out;
    for (std::size_t i = n; i >= 1; --i) out.push_back(static_cast<double>(i));
    return out;
}

void test_percentile_rule() {
    // Too few samples for p90: the tail falls back to the median.
    auto s = perfbench::summarize(one_to(99));
    expect(s.count == 99 && s.p50 == 50.0, "median of 1..99 is 50");
    expect(s.tail_percentile == 50.0 && s.tail == 50.0, "99 samples report no p90");

    // 100 samples: p90 is the 90th value, with exactly 10 beyond it.
    s = perfbench::summarize(one_to(100));
    expect(s.p50 == 50.0, "median of 1..100 is the lower middle, 50");
    expect(s.tail_percentile == 90.0 && s.tail == 90.0, "p90 of 1..100 is 90");

    // 999 samples: p99 would leave only 9 beyond, so p90 (99 beyond).
    s = perfbench::summarize(one_to(999));
    expect(s.tail_percentile == 90.0 && s.tail == 900.0, "p90 of 1..999 is 900");

    // 1000 samples: p99 is the 990th value, 10 beyond.
    s = perfbench::summarize(one_to(1000));
    expect(s.tail_percentile == 99.0 && s.tail == 990.0, "p99 of 1..1000 is 990");

    // 10000 samples: p99.9, 10 beyond.
    s = perfbench::summarize(one_to(10000));
    expect(s.tail_percentile > 99.89 && s.tail_percentile < 99.91 && s.tail == 9990.0,
           "p99.9 of 1..10000 is 9990");

    s = perfbench::summarize({});
    expect(s.count == 0 && s.p50 == 0.0, "empty sample set");
    expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

perfbench::SpanRecord span(std::uint64_t id, std::uint64_t parent, const char* name,
                           std::uint64_t start, std::uint64_t end) {
    perfbench::SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

void test_self_time() {
    // Root [0,100) with children [10,30) and [20,50) overlapping (two
    // threads), and [90,120) running past the root's end. Covered:
    // [10,50) + [90,100) = 50, so self = 50. Grandchild [12,18) sits in
    // the first child: its self time is 20 - 6 = 14.
    const std::vector<perfbench::SpanRecord> spans = {
        span(1, 0, "bench.run", 0, 100),
        span(2, 1, "store.a", 10, 30),
        span(3, 1, "store.b", 20, 50),
        span(4, 1, "sim.c", 90, 120),
        span(5, 2, "sim.d", 12, 18),
        span(6, 1, "serve.open", 60, 0),  // still open: ignored
    };
    const auto self = perfbench::self_times_ns(spans);
    expect(self[0] == 50, "root self time excludes the union of children");
    expect(self[1] == 14, "child self time excludes its grandchild");
    expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self time is its duration");
    expect(self[5] == 0, "open span has no self time");

    const auto layers = perfbench::layer_self_ns(spans);
    expect(layers.at("bench") == 50, "bench layer");
    expect(layers.at("store") == 44, "store layer sums its spans");
    expect(layers.at("sim") == 36, "sim layer sums its spans");

    // Self times partition the root's interval when children nest.
    const std::vector<perfbench::SpanRecord> nested = {
        span(1, 0, "bench.run", 0, 100),
        span(2, 1, "sched.x", 0, 60),
        span(3, 2, "store.y", 10, 60),
    };
    const auto nested_self = perfbench::self_times_ns(nested);
    expect(nested_self[0] + nested_self[1] + nested_self[2] == 100,
           "nested self times sum to the root duration");
}

void test_chrome_trace() {
    const std::vector<perfbench::SpanRecord> spans = {
        span(1, 0, "bench.run", 1000, 5000),
        span(2, 1, "store.\"q\"", 2000, 3000),
    };
    const std::string json = perfbench::chrome_trace_json(spans, "run-1", 7);
    expect(json.find("\"ts\":0,\"dur\":4,\"pid\":7") != std::string::npos,
           "timestamps are microseconds from the first span");
    expect(json.find("store.\\\"q\\\"") != std::string::npos, "names are escaped");
    expect(json.find("\"parent\":1,\"run\":\"run-1\"") != std::string::npos,
           "args carry parent and run id");
}

}  // namespace

int main() {
    test_percentile_rule();
    test_self_time();
    test_chrome_trace();
    if (g_failures == 0) std::printf("perfbench_tests: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
