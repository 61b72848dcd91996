// serve_ingest: Service and Server in process on a fresh store, loaded by
// serve::Client over loopback TCP with the canonical serve/stream.h
// incident stream. The only workload that runs decode, classify, append
// and roll-seal. The dispatcher is single-threaded, so seal stalls show in
// tail latency before they show in throughput.
//
// Phases: a closed-loop saturation phase (nproc connections, each sending
// its next batch as soon as the previous reply arrives), then an open-loop
// phase at half the saturation rate just measured, with periodic Verify
// requests, each request timed from the moment it was due. After a drain,
// a Service is rebuilt over the populated store to time the restart
// rescan.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "obs/metrics.h"
#include "qrn/classification.h"
#include "qrn/risk_norm.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kShardRoll = 4096;
/// Records per classify request in both phases: the batch size of the
/// repository's load tool, qrn-serve-load.
constexpr std::uint64_t kBatch = 256;
constexpr double kHoursPerRecord = 10.0 / 256.0;
/// The open-loop rate as a share of the saturation median: the dispatcher
/// is busy about half the time, so a roll-seal stall queues the batches
/// due behind it and shows in the tail latency.
constexpr double kOpenLoad = 0.5;
/// Gives the Verify latency at least 50 samples in a 20 s run.
constexpr double kVerifyPeriodS = 0.1;
constexpr double kWindowS = 0.1;
constexpr int kSetupSamples = 15;
/// Set-ups timed back to back as one sample: a single Service construction
/// plus listen takes about 0.1 ms, too short to time one at a time steadily.
constexpr int kSetupsPerSample = 8;
constexpr int kRescans = 9;
/// Every this-many-th accepted batch has all its rows checked against
/// direct classification.
constexpr std::uint64_t kSampleEvery = 8;

/// Direct (in-process, no daemon) classification of the stream, the
/// reference the daemon's reply rows are checked against.
class Reference {
public:
    Reference()
        : types_(qrn::IncidentTypeSet::paper_vru_example()),
          tree_(qrn::ClassificationTree::paper_example()) {
        std::uint16_t next = 0;
        for (const auto& leaf : tree_.leaves()) leaf_index_.emplace(leaf.joined(), next++);
    }

    [[nodiscard]] bool matches(const std::vector<qrn::Incident>& batch,
                               const std::vector<qrn::serve::ClassifyRow>& rows) const {
        if (rows.size() != batch.size()) return false;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const auto leaf = leaf_index_.find(tree_.classify(batch[i]).joined());
            const std::uint16_t want_leaf = leaf == leaf_index_.end() ? 0xFFFF : leaf->second;
            const auto type = types_.classify(batch[i]);
            const std::uint16_t want_type =
                type ? static_cast<std::uint16_t>(*type) : qrn::serve::kNoType;
            if (rows[i].leaf != want_leaf || rows[i].type != want_type) return false;
        }
        return true;
    }

private:
    qrn::IncidentTypeSet types_;
    qrn::ClassificationTree tree_;
    std::unordered_map<std::string, std::uint16_t> leaf_index_;
};

std::vector<qrn::Incident> stream_batch(std::uint64_t first, std::uint64_t count) {
    std::vector<qrn::Incident> batch;
    batch.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        batch.push_back(qrn::serve::stream_incident(first + i));
    }
    return batch;
}

/// Thread-safe tallies shared by the load threads.
struct Load {
    std::atomic<std::uint64_t> next_record{0};
    std::atomic<std::uint64_t> records{0};
    std::mutex mutex;
    std::vector<double> latencies_ms;  // guarded by mutex
    std::vector<double> lags_ms;       // guarded by mutex
    std::vector<double> verify_ms;     // guarded by mutex
};

struct Outcome {
    bool ok = false;
    std::string what;
};

/// Sends one batch with Busy retries and checks the reply.
Outcome send_batch(qrn::serve::Client& client, const Reference& reference,
                   const std::vector<qrn::Incident>& batch, std::uint64_t batch_number,
                   std::uint64_t parent) {
    qrn::serve::Client::ClassifyReply reply;
    {
        const Span span("serve.Client.classify", parent);
        reply = client.classify_with_retry(
            kHoursPerRecord * static_cast<double>(batch.size()), batch);
    }
    if (reply.status != qrn::serve::Status::Ok) {
        return {false, reply.status == qrn::serve::Status::Busy
                           ? "classify still busy after its retries"
                           : "classify error: " + reply.payload};
    }
    if (reply.rows.size() != batch.size()) return {false, "reply row count mismatch"};
    if (batch_number % kSampleEvery == 0 && !reference.matches(batch, reply.rows)) {
        return {false, "reply rows differ from direct classification"};
    }
    return {true, {}};
}

}  // namespace

void run_serve_ingest(const Options& options, Result& result) {
    using namespace qrn;
    const Span root("bench.serve_ingest");
    const Reference reference;
    // One connection per core keeps the most batches queued at the single
    // dispatcher, so it waits least on a reader thread being woken: with
    // fewer, saturation throughput halved in some runs.
    const unsigned connections = options.jobs;
    const std::uint64_t stream_start = derive_seed(options.seed, 5) % 1'000'000 * 64;

    serve::ServiceConfig service_config;
    service_config.shard_roll = kShardRoll;
    // Classification runs serially in the dispatcher: fanning 256-record
    // batches out over the exec pool made saturation throughput bimodal
    // from run to run (0.4M or 1.1M records/s), too unsteady to gate.
    service_config.jobs = 1;
    const auto make_service = [&](const std::string& dir) {
        serve::ServiceConfig config = service_config;
        config.store_dir = dir;
        return std::make_unique<serve::Service>(RiskNorm::paper_example(),
                                                IncidentTypeSet::paper_vru_example(), config);
    };

    // Set-up: Service construction over a fresh store plus listen, in
    // samples of several servers started back to back, each on its own
    // store. The very last server, with the default config, stays up for
    // the load phases. The others poll fast only so that their drains are
    // quick; polling does not enter the timed construction and listen.
    std::vector<double> setups;
    std::unique_ptr<serve::Server> server;
    std::string dir;
    for (int sample = 0; sample < kSetupSamples; ++sample) {
        std::vector<std::string> dirs;
        std::vector<std::unique_ptr<serve::Server>> servers;
        for (int i = 0; i < kSetupsPerSample; ++i) {
            dirs.push_back(fresh_dir(options, "serve_ingest_" + std::to_string(i)));
        }
        {
            const Span phase("bench.setup");
            const auto start = Clock::now();
            for (const auto& store_dir : dirs) {
                serve::ServerConfig server_config;
                const bool keep = sample + 1 == kSetupSamples && &store_dir == &dirs.back();
                if (!keep) server_config.poll_ms = 5;
                std::unique_ptr<serve::Service> service;
                {
                    const Span span("serve.Service");
                    service = make_service(store_dir);
                }
                const Span span("serve.Server.start");
                servers.push_back(
                    std::make_unique<serve::Server>(std::move(service), server_config));
                servers.back()->start();
            }
            setups.push_back(seconds_since(start) / kSetupsPerSample);
        }
        if (sample + 1 == kSetupSamples) {
            server = std::move(servers.back());
            dir = dirs.back();
            servers.pop_back();
            dirs.pop_back();
        }
        for (auto& stopped : servers) stopped->drain();
        servers.clear();
        for (const auto& store_dir : dirs) remove_dir(store_dir);
    }
    const std::uint16_t port = server->port();

    Load load;
    load.next_record = stream_start;
    std::mutex failure_mutex;
    std::vector<std::string> failures;  // guarded by failure_mutex
    std::atomic<std::uint64_t> attempted{0};
    const auto record_failure = [&](const std::string& what) {
        const std::lock_guard lock(failure_mutex);
        failures.push_back(what);
    };
    const std::uint64_t batch_ns_before = obs_timer_ns("serve.batch_ns");
    const std::uint64_t verify_ns_before = obs_timer_ns("serve.verify_ns");
    const std::uint64_t busy_before = obs_counter("serve.rejected_busy");
    const std::uint64_t batches_before = obs_counter("serve.batches");
    const auto load_start = Clock::now();

    // Closed-loop saturation: accepted records are sampled per window.
    std::vector<double> window_rates;
    {
        const Span phase("bench.saturation");
        const std::uint64_t parent = phase.id();
        std::atomic<bool> stop{false};
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < connections; ++c) {
            threads.emplace_back([&] {
                try {
                    serve::Client client = serve::Client::connect_tcp(port);
                    while (!stop.load()) {
                        const std::uint64_t first = load.next_record.fetch_add(kBatch);
                        const auto batch = stream_batch(first, kBatch);
                        attempted.fetch_add(1);
                        const Outcome outcome = send_batch(
                            client, reference, batch, (first - stream_start) / kBatch, parent);
                        if (!outcome.ok) {
                            record_failure(outcome.what);
                            return;
                        }
                        load.records.fetch_add(batch.size());
                    }
                } catch (const std::exception& error) {
                    record_failure(std::string("saturation client: ") + error.what());
                }
            });
        }
        const double phase_s = 0.4 * options.seconds;
        std::uint64_t last = 0;
        auto window_start = Clock::now();
        for (double t = kWindowS; t <= phase_s + 1e-9; t += kWindowS) {
            std::this_thread::sleep_until(load_start + std::chrono::duration<double>(t));
            const std::uint64_t now_records = load.records.load();
            const auto now = Clock::now();
            window_rates.push_back(static_cast<double>(now_records - last) /
                                   seconds_between(window_start, now));
            last = now_records;
            window_start = now;
        }
        stop = true;
        for (auto& thread : threads) thread.join();
    }
    const double saturation_s = seconds_since(load_start);
    const double records_per_s = median(window_rates);
    const double open_batches_per_s =
        std::max(1.0, kOpenLoad * records_per_s / static_cast<double>(kBatch));

    // Open loop: batch k is due at open_start + k / rate and goes out on
    // connection k % connections; Verify requests are due every period.
    {
        const Span phase("bench.open_loop");
        const std::uint64_t parent = phase.id();
        const double phase_s = 0.35 * options.seconds;
        const auto open_start = Clock::now() + std::chrono::milliseconds(20);
        const auto due_at = [&](double offset_s) {
            return open_start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(offset_s));
        };
        const std::uint64_t total = static_cast<std::uint64_t>(phase_s * open_batches_per_s);
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < connections; ++c) {
            threads.emplace_back([&, c] {
                try {
                    serve::Client client = serve::Client::connect_tcp(port);
                    std::vector<double> latencies, lags;
                    for (std::uint64_t k = c; k < total; k += connections) {
                        const auto due = due_at(static_cast<double>(k) / open_batches_per_s);
                        const std::uint64_t first = load.next_record.fetch_add(kBatch);
                        const auto batch = stream_batch(first, kBatch);
                        std::this_thread::sleep_until(due);
                        lags.push_back(seconds_since(due) * 1e3);
                        attempted.fetch_add(1);
                        const Outcome outcome = send_batch(client, reference, batch, k, parent);
                        latencies.push_back(seconds_since(due) * 1e3);
                        if (!outcome.ok) {
                            record_failure(outcome.what);
                            return;
                        }
                        load.records.fetch_add(batch.size());
                    }
                    const std::lock_guard lock(load.mutex);
                    load.latencies_ms.insert(load.latencies_ms.end(), latencies.begin(),
                                             latencies.end());
                    load.lags_ms.insert(load.lags_ms.end(), lags.begin(), lags.end());
                } catch (const std::exception& error) {
                    record_failure(std::string("open-loop client: ") + error.what());
                }
            });
        }
        threads.emplace_back([&] {
            try {
                serve::Client client = serve::Client::connect_tcp(port);
                std::vector<double> latencies;
                for (double t = 0.0; t < phase_s; t += kVerifyPeriodS) {
                    const auto due = due_at(t);
                    std::this_thread::sleep_until(due);
                    attempted.fetch_add(1);
                    serve::Reply reply;
                    {
                        const Span span("serve.Client.verify", parent);
                        reply = client.verify(0.95);
                    }
                    latencies.push_back(seconds_since(due) * 1e3);
                    if (reply.status != serve::Status::Ok) {
                        record_failure("verify failed: " + reply.payload);
                        return;
                    }
                }
                const std::lock_guard lock(load.mutex);
                load.verify_ms = std::move(latencies);
            } catch (const std::exception& error) {
                record_failure(std::string("verify client: ") + error.what());
            }
        });
        for (auto& thread : threads) thread.join();
    }
    const double load_s = seconds_since(load_start);
    const double dispatcher_ns =
        static_cast<double>(obs_timer_ns("serve.batch_ns") - batch_ns_before +
                            obs_timer_ns("serve.verify_ns") - verify_ns_before);
    const std::uint64_t busy = obs_counter("serve.rejected_busy") - busy_before;
    const std::uint64_t served_batches = obs_counter("serve.batches") - batches_before;

    result.attempted += attempted.load();
    for (const auto& what : failures) result.fail(what);

    {
        const Span span("serve.Server.drain");
        server->drain();
    }
    const serve::StatusReply status = server->service().status();
    server.reset();
    const std::uint64_t accepted = load.records.load();
    result.check(status.records_sealed == accepted && status.records_pending == 0,
                 "every accepted record sealed after the drain");

    // Restart: a Service rebuilt over the populated store re-scans every
    // sealed shard.
    std::vector<double> rescans;
    for (int i = 0; i < kRescans; ++i) {
        const Span span("serve.Service");
        const auto start = Clock::now();
        const auto restarted = make_service(dir);
        rescans.push_back(seconds_since(start));
        result.check(restarted->status() == status, "restarted service resumes the sealed state");
    }
    remove_dir(dir);

    const auto classify = summarize(load.latencies_ms);
    const auto lag = summarize(load.lags_ms);
    const auto verify = summarize(load.verify_ms);
    result.end_to_end["setup_s"] = median(setups);
    result.end_to_end["fleet_hours_per_s"] = records_per_s * kHoursPerRecord;
    result.end_to_end["rerun_fleet_hours_per_s"] = status.exposure_sealed_hours / median(rescans);
    result.end_to_end["peak_rss_mb"] = peak_rss_mb();

    auto& layer = result.per_layer;
    layer["serve.service_start_s"] = median(setups);
    layer["serve.restart_rescan_s"] = median(rescans);
    layer["serve.batch_s"] = obs_timer_mean_ms("serve.batch_ns") / 1e3;
    layer["serve.dispatcher_busy_share"] = dispatcher_ns / 1e9 / load_s;
    layer["serve.busy_share"] =
        busy + served_batches == 0
            ? 0.0
            : static_cast<double>(busy) / static_cast<double>(busy + served_batches);
    layer["serve.seal_ms_mean"] = obs_timer_mean_ms("serve.seal_ns");
    layer["serve.generator_lag_p99_ms"] = lag.tail;
    layer["serve.records_per_s"] = records_per_s;
    layer["serve.classify_p50_ms"] = classify.p50;
    layer["serve.classify_tail_ms"] = classify.tail;
    layer["serve.verify_p50_ms"] = verify.p50;
    layer["store.seal_ms_mean"] = obs_timer_mean_ms("store.shard_write_ns");

    char line[320];
    std::snprintf(line, sizeof line,
                  "saturation %u connections x %llu-record batches: %.0f records/s "
                  "(median of %zu windows, %.2f s)",
                  connections, static_cast<unsigned long long>(kBatch),
                  records_per_s, window_rates.size(), saturation_s);
    result.note(line);
    std::snprintf(line, sizeof line,
                  "open loop %.0f batches/s x %llu records: classify p50 %.3f ms, p%g %.3f ms "
                  "(n=%zu); verify p50 %.3f ms, p%g %.3f ms (n=%zu); generator lag p%g %.3f ms",
                  open_batches_per_s, static_cast<unsigned long long>(kBatch),
                  classify.p50, classify.tail_percentile, classify.tail, classify.count,
                  verify.p50, verify.tail_percentile, verify.tail, verify.count,
                  lag.tail_percentile, lag.tail);
    result.note(line);
}

}  // namespace perfbench
