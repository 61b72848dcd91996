// perfbench: the toolkit's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out PATH] [--report PATH]
//             [--git-describe TEXT] [--source-digest TEXT]
//
// Runs one workload in this process (a fresh process per workload, so the
// peak RSS belongs to it), checks its outputs, and prints a report whose
// last line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 spans are recorded around the calls into each layer, qrn_obs
// instrumentation is armed, and the metrics are the per-layer ones. Exit
// code 0 only when every check passed; 2 on a usage error or an
// unoptimised build.
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "common.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "qrn/json.h"
#include "trace.h"

namespace {

using perfbench::Options;
using perfbench::Result;

using Workload = void (*)(const Options&, Result&);

const std::map<std::string, Workload>& workloads() {
    static const std::map<std::string, Workload> table = {
        {"evidence_compute", perfbench::run_evidence_compute},
        {"store_churn", perfbench::run_store_churn},
        {"distributed_churn", perfbench::run_distributed_churn},
        {"serve_ingest", perfbench::run_serve_ingest},
    };
    return table;
}

std::string filesystem_type(const std::string& dir) {
    struct statfs info {};
    if (::statfs(dir.c_str(), &info) != 0) return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
        case 0xEF53UL: return "ext4";
        case 0x58465342UL: return "xfs";
        case 0x9123683EUL: return "btrfs";
        case 0x01021994UL: return "tmpfs";
        case 0x794C7630UL: return "overlayfs";
        case 0x6969UL: return "nfs";
        case 0x65735546UL: return "fuse";
        default: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(info.f_type));
            return buf;
        }
    }
}

std::string load_average() {
    std::ifstream in("/proc/loadavg");
    std::string one, five, fifteen;
    in >> one >> five >> fifteen;
    return in ? one + " " + five + " " + fifteen : "unknown";
}

bool optimised_build() {
    const std::string type = PERFBENCH_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo";
}

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-out PATH] [--report PATH] [--git-describe TEXT] "
                 "[--source-digest TEXT]\nworkloads:";
    for (const auto& [name, run] : workloads()) std::cerr << ' ' << name;
    std::cerr << '\n';
    return 2;
}

/// Per-layer numbers every workload shares: exec counters and span
/// self-time by layer.
void fill_common_layers(const Options& options, double wall_s, Result& result) {
    auto& layer = result.per_layer;
    const double chunk_s = static_cast<double>(perfbench::obs_timer_ns("exec.chunk_ns")) / 1e9;
    layer["exec.busy_share"] = chunk_s / (static_cast<double>(options.jobs) * wall_s);
    layer["exec.task_wait_s"] =
        static_cast<double>(perfbench::obs_timer_ns("exec.task_wait_ns")) / 1e9;
    layer["exec.chunks_executed"] =
        static_cast<double>(perfbench::obs_counter("exec.chunks_executed"));
    const auto spans = perfbench::Tracer::global().spans();
    for (const auto& [name, ns] : perfbench::layer_self_ns(spans)) {
        layer[name + ".span_self_s"] = static_cast<double>(ns) / 1e9;
    }
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    std::string report_path, git_describe = "unknown", source_digest = "unknown";
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) return usage("missing value for " + arg);
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
                have_seconds = options.seconds > 0.0 && options.seconds <= 600.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
                options.trace = value == "1";
                have_trace = true;
            } else if (arg == "--work-dir") {
                options.work_dir = value;
            } else if (arg == "--trace-out") {
                options.trace_out = value;
            } else if (arg == "--report") {
                report_path = value;
            } else if (arg == "--git-describe") {
                git_describe = value;
            } else if (arg == "--source-digest") {
                source_digest = value;
            } else {
                return usage("unknown option " + arg);
            }
        }
    } catch (const std::exception&) {
        return usage("malformed number");
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace || options.work_dir.empty()) {
        return usage("--workload, --seed, --seconds (0, 600], --trace and --work-dir are required");
    }
    const auto workload = workloads().find(options.workload);
    if (workload == workloads().end()) return usage("unknown workload " + options.workload);
    if (!optimised_build()) {
        std::cerr << "perfbench: refusing to measure a '" << PERFBENCH_BUILD_TYPE
                  << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }
    options.jobs = qrn::exec::default_jobs();
    perfbench::remove_dir(options.work_dir);
    std::error_code mkdir_error;
    std::filesystem::create_directories(options.work_dir, mkdir_error);

    namespace json = qrn::json;
    const json::Value provenance(json::Object{
        {"git_describe", git_describe},
        {"source_digest", source_digest},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"nproc", static_cast<double>(options.jobs)},
        {"loadavg_at_start", load_average()},
        {"store_fs", filesystem_type(options.work_dir)},
        {"workload", options.workload},
        {"seed", static_cast<double>(options.seed)},
        {"seconds", options.seconds},
        {"trace", options.trace},
    });

    Result result;
    if (options.trace) {
        qrn::obs::reset();
        qrn::obs::set_enabled(true);
        perfbench::Tracer::global().set_enabled(true);
    }
    const auto start = perfbench::Clock::now();
    try {
        workload->second(options, result);
    } catch (const std::exception& error) {
        result.check(false, std::string("workload aborted: ") + error.what());
    }
    const double wall_s = perfbench::seconds_since(start);
    perfbench::remove_dir(options.work_dir);

    const auto& specs =
        options.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
    if (options.trace) {
        fill_common_layers(options, wall_s, result);
        const std::string run_id =
            options.workload + "-" + std::to_string(options.seed) + "-" + std::to_string(::getpid());
        if (!options.trace_out.empty()) {
            std::ofstream out(options.trace_out);
            out << perfbench::chrome_trace_json(perfbench::Tracer::global().spans(), run_id,
                                                static_cast<int>(::getpid()));
            result.check(static_cast<bool>(out), "trace written to " + options.trace_out);
        }
    }
    const auto& values = options.trace ? result.per_layer : result.end_to_end;
    json::Object metrics;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto found = values.find(specs[i].name);
        double value = found == values.end() ? 0.0 : found->second;
        // An end-to-end metric must be measured and positive; a per-layer
        // metric of a bypassed layer is 0.
        const bool ok = std::isfinite(value) && (options.trace || value > 0.0);
        result.check(ok, std::string("metric ") + specs[i].name + " measured");
        if (!std::isfinite(value)) value = 0.0;
        std::printf("%-32s %16.6g %s\n", specs[i].name, value, specs[i].unit);
        metrics.emplace_back(specs[i].name,
                             json::Object{{"value", value}, {"unit", specs[i].unit}});
    }
    // failed_share is the result line's failed / attempted; it is 0 on a
    // correct run, so it is printed here rather than gated as a metric.
    std::printf("%-32s %16.6g %s\n", "failed_share",
                result.attempted == 0 ? 1.0
                                      : static_cast<double>(result.failed) /
                                            static_cast<double>(result.attempted),
                "share");
    for (const auto& line : result.notes) std::printf("note: %s\n", line.c_str());
    for (const auto& what : result.failures) std::printf("FAILED: %s\n", what.c_str());
    std::printf("wall %.3f s, %llu attempted, %llu failed\n", wall_s,
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    std::printf("provenance %s\n", provenance.dump().c_str());

    const bool correct = result.failed == 0;
    const json::Value line(json::Object{
        {"correct", correct},
        {"attempted", static_cast<double>(result.attempted)},
        {"failed", static_cast<double>(result.failed)},
        {"metrics", std::move(metrics)},
    });
    if (!report_path.empty()) {
        // The full record: provenance, every metric either table holds,
        // notes and failures, beside the result line.
        const auto object = [](const std::map<std::string, double>& map) {
            json::Object out;
            for (const auto& [name, value] : map) {
                out.emplace_back(name, std::isfinite(value) ? value : 0.0);
            }
            return out;
        };
        const auto array = [](const std::vector<std::string>& lines) {
            return json::Array(lines.begin(), lines.end());
        };
        std::ofstream report(report_path);
        report << json::Value(json::Object{
                                  {"provenance", provenance},
                                  {"end_to_end", object(result.end_to_end)},
                                  {"per_layer", object(result.per_layer)},
                                  {"notes", array(result.notes)},
                                  {"failures", array(result.failures)},
                                  {"result", line},
                              })
                      .dump()
               << '\n';
    }
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
