// In-memory span tracer for the benchmark's traced runs.
//
// The benchmark records spans around its own calls into each layer's
// public functions; nothing inside the toolkit is traced. Span names are
// "<layer>.<call>" (sim, qrn, store, sched, serve; "bench" for the
// benchmark's own phases), so a layer's time is the summed self-time of the
// spans carrying its prefix. Spans stay in memory until the run ends and
// are then written as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One closed (or still open, end_ns == 0) span.
struct SpanRecord {
    std::uint64_t id = 0;      ///< 1-based; 0 means "no span".
    std::uint64_t parent = 0;  ///< Enclosing span id, 0 for a root.
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t tid = 0;     ///< Small per-thread number, 1 = first thread seen.
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval that the union of its children's intervals
/// covers. Children may overlap each other (they can run on several
/// threads); covered time is counted once. Open spans count as empty.
[[nodiscard]] std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Sums self time by layer, the span-name prefix before the first '.'.
[[nodiscard]] std::map<std::string, std::uint64_t> layer_self_ns(
    const std::vector<SpanRecord>& spans);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps
/// relative to the first span) with the run id and span/parent ids in each
/// event's args.
[[nodiscard]] std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                                            std::string_view run_id, int pid);

/// Process-wide span store. Disabled by default: a disabled tracer makes
/// Span a no-op apart from one relaxed load.
class Tracer {
public:
    static Tracer& global();

    void set_enabled(bool on);
    [[nodiscard]] bool enabled() const;

    std::uint64_t open(std::string_view name, std::uint64_t parent);
    void close(std::uint64_t id);

    [[nodiscard]] std::vector<SpanRecord> spans() const;

private:
    Tracer() = default;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// RAII span. The parent defaults to the innermost span open on this
/// thread; work handed to another thread passes its parent explicitly.
class Span {
public:
    explicit Span(std::string_view name);
    Span(std::string_view name, std::uint64_t parent);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

private:
    std::uint64_t id_ = 0;
    std::uint64_t previous_ = 0;
};

}  // namespace perfbench
