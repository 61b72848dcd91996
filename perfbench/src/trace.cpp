#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "qrn/json.h"

namespace perfbench {

namespace {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint32_t thread_number() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

thread_local std::uint64_t t_current = 0;

}  // namespace

std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
    std::map<std::uint64_t, std::size_t> index_of;
    for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
    for (const auto& span : spans) {
        if (span.parent == 0 || span.end_ns == 0) continue;
        const auto parent = index_of.find(span.parent);
        if (parent != index_of.end()) {
            children[parent->second].emplace_back(span.start_ns, span.end_ns);
        }
    }
    std::vector<std::uint64_t> out(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& span = spans[i];
        if (span.end_ns <= span.start_ns) continue;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::uint64_t covered = 0;
        std::uint64_t cursor = span.start_ns;  // covered up to here
        for (auto [from, to] : kids) {
            from = std::max(from, cursor);
            to = std::min(to, span.end_ns);
            if (to > from) {
                covered += to - from;
                cursor = to;
            }
        }
        out[i] = (span.end_ns - span.start_ns) - covered;
    }
    return out;
}

std::map<std::string, std::uint64_t> layer_self_ns(const std::vector<SpanRecord>& spans) {
    const auto self = self_times_ns(spans);
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& name = spans[i].name;
        out[name.substr(0, name.find('.'))] += self[i];
    }
    return out;
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              std::string_view run_id, int pid) {
    namespace json = qrn::json;
    std::uint64_t origin = 0;
    for (const auto& span : spans) {
        if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
    }
    json::Array events;
    for (const auto& span : spans) {
        if (span.end_ns < span.start_ns) continue;
        events.push_back(json::Value(json::Object{
            {"name", span.name},
            {"cat", span.name.substr(0, span.name.find('.'))},
            {"ph", "X"},
            {"ts", static_cast<double>(span.start_ns - origin) / 1e3},
            {"dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3},
            {"pid", pid},
            {"tid", static_cast<double>(span.tid)},
            {"args", json::Object{{"span", static_cast<double>(span.id)},
                                  {"parent", static_cast<double>(span.parent)},
                                  {"run", std::string(run_id)}}},
        }));
    }
    return json::Value(json::Object{{"displayTimeUnit", "ms"}, {"traceEvents", std::move(events)}})
               .dump() +
           "\n";
}

Tracer& Tracer::global() {
    static Tracer tracer;
    return tracer;
}

void Tracer::set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() const { return enabled_.load(std::memory_order_relaxed); }

std::uint64_t Tracer::open(std::string_view name, std::uint64_t parent) {
    if (!enabled()) return 0;
    const std::uint32_t tid = thread_number();
    const std::uint64_t start = now_ns();
    const std::lock_guard lock(mutex_);
    SpanRecord span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.name = std::string(name);
    span.start_ns = start;
    span.tid = tid;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
    const std::uint64_t end = now_ns();
    const std::lock_guard lock(mutex_);
    if (id == 0 || id > spans_.size()) return;
    spans_[id - 1].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
    const std::lock_guard lock(mutex_);
    return spans_;
}

Span::Span(std::string_view name) : Span(name, t_current) {}

Span::Span(std::string_view name, std::uint64_t parent)
    : id_(Tracer::global().open(name, parent)), previous_(t_current) {
    if (id_ != 0) t_current = id_;
}

Span::~Span() {
    if (id_ == 0) return;
    Tracer::global().close(id_);
    t_current = previous_;
}

}  // namespace perfbench
