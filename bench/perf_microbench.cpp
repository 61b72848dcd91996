// Performance microbenchmarks (google-benchmark): the hot paths a fleet-
// scale deployment of the toolkit would exercise - incident classification,
// allocation solving, Eq. 1 verification, Monte-Carlo simulation and exact
// interval estimation - plus serial-vs-parallel campaign runs on the
// qrn_exec thread pool.
//
// Besides the normal console output, the run writes a machine-readable
// baseline (name -> ns/op and items/s) to BENCH_perf.json in the working
// directory (override the path with the QRN_BENCH_JSON environment
// variable), so perf regressions can be diffed between commits: the
// repo-root copy is the tracked baseline and CI gates every PR against it
// with qrn-perfdiff (docs/OBSERVABILITY.md). A failed baseline write is a
// hard error (non-zero exit) - a bench run whose evidence silently
// vanishes is how the baseline went dead for three PRs.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "sched/plan.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "store/shard.h"
#include "qrn/qrn.h"
#include "qrn/banding.h"
#include "qrn/serialize.h"
#include "quant/architecture.h"
#include "sim/sim.h"
#include "sim/splitting.h"
#include "stats/sequential.h"
#include "stats/rate_estimation.h"
#include "stats/rng.h"

namespace {

using namespace qrn;

Incident sample_incident(stats::Rng& rng) {
    Incident i;
    i.second = actor_type_from_index(
        static_cast<std::size_t>(rng.uniform_int(1, kActorTypeCount - 1)));
    if (rng.bernoulli(0.5)) {
        i.mechanism = IncidentMechanism::NearMiss;
        i.min_distance_m = rng.uniform(0.0, 5.0);
    }
    i.relative_speed_kmh = rng.uniform(0.0, 150.0);
    return i;
}

void BM_ClassifyIncident(benchmark::State& state) {
    const auto tree = ClassificationTree::paper_example();
    stats::Rng rng(1);
    std::vector<Incident> incidents;
    for (int n = 0; n < 1024; ++n) incidents.push_back(sample_incident(rng));
    std::size_t idx = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tree.classify(incidents[idx++ & 1023]));
    }
}
BENCHMARK(BM_ClassifyIncident);

void BM_TypeSetClassify(benchmark::State& state) {
    const auto types = IncidentTypeSet::paper_vru_example();
    stats::Rng rng(2);
    std::vector<Incident> incidents;
    for (int n = 0; n < 1024; ++n) incidents.push_back(sample_incident(rng));
    std::size_t idx = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(types.classify(incidents[idx++ & 1023]));
    }
}
BENCHMARK(BM_TypeSetClassify);

void BM_AllocateWaterFilling(benchmark::State& state) {
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel injury;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
    const AllocationProblem problem(norm, types, matrix);
    for (auto _ : state) {
        benchmark::DoNotOptimize(allocate_water_filling(problem));
    }
}
BENCHMARK(BM_AllocateWaterFilling);

void BM_VerifyAgainstEvidence(benchmark::State& state) {
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel injury;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
    const AllocationProblem problem(norm, types, matrix);
    const auto allocation = allocate_water_filling(problem);
    const std::vector<TypeEvidence> evidence{{"I1", 3, ExposureHours(1e7)},
                                             {"I2", 1, ExposureHours(1e7)},
                                             {"I3", 0, ExposureHours(1e7)}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            verify_against_evidence(problem, allocation, evidence, 0.95));
    }
}
BENCHMARK(BM_VerifyAgainstEvidence);

void BM_FleetSimulationPerHour(benchmark::State& state) {
    sim::FleetConfig config;
    config.seed = 3;
    const sim::FleetSimulator fleet(config);
    const auto hours = static_cast<double>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet.run(hours));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FleetSimulationPerHour)->Arg(10)->Arg(100)->Arg(1000);

/// One operational stretch end to end: a single-stretch run() isolates the
/// refactored sim inner loop (batched count draws, columnar incident
/// accumulation) plus the fixed per-run prologue, so regressions in the
/// per-stretch cost are tracked separately from campaign scheduling.
void BM_RunStretch(benchmark::State& state) {
    sim::FleetConfig config;
    config.seed = 3;
    const sim::FleetSimulator fleet(config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet.run(1.0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunStretch);

void BM_GarwoodUpperBound(benchmark::State& state) {
    const stats::RateObservation obs{static_cast<std::uint64_t>(state.range(0)), 1e6};
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::rate_upper_bound(obs, 0.95));
    }
}
BENCHMARK(BM_GarwoodUpperBound)->Arg(0)->Arg(10)->Arg(1000);

void BM_MeceCertification(benchmark::State& state) {
    const auto tree = ClassificationTree::paper_example();
    for (auto _ : state) {
        stats::Rng rng(4);
        benchmark::DoNotOptimize(tree.certify_mece(
            static_cast<std::size_t>(state.range(0)),
            [&](std::size_t) { return sample_incident(rng); }));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MeceCertification)->Arg(1000)->Arg(10000);

void BM_GenerateCompleteTypes(benchmark::State& state) {
    const InjuryRiskModel model;
    for (auto _ : state) {
        benchmark::DoNotOptimize(generate_complete_types(model));
    }
}
BENCHMARK(BM_GenerateCompleteTypes);

void BM_MinimalCutSets(benchmark::State& state) {
    // A representative redundant architecture with k-of-n voting.
    std::vector<std::unique_ptr<quant::ArchNode>> top;
    top.push_back(quant::ArchNode::k_of_n("sensing", 2, 5, Frequency::per_hour(1e-4), 0.1));
    top.push_back(quant::ArchNode::element("arbiter", Frequency::per_hour(1e-9)));
    std::vector<std::unique_ptr<quant::ArchNode>> pair;
    pair.push_back(quant::ArchNode::element("a", Frequency::per_hour(1e-4)));
    pair.push_back(quant::ArchNode::element("b", Frequency::per_hour(1e-4)));
    top.push_back(quant::ArchNode::all_of("planner pair", std::move(pair), 0.5));
    const auto tree = quant::ArchNode::any_of("top", std::move(top));
    for (auto _ : state) {
        benchmark::DoNotOptimize(quant::minimal_cut_sets(*tree));
    }
}
BENCHMARK(BM_MinimalCutSets);

void BM_SprtObserve(benchmark::State& state) {
    for (auto _ : state) {
        stats::PoissonSprt sprt(1e-4, 1e-3, 0.05, 0.05);
        for (int i = 0; i < 1000; ++i) sprt.observe(i % 97 == 0 ? 1 : 0, 1.0);
        benchmark::DoNotOptimize(sprt.decision());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SprtObserve);

void BM_JsonRoundTrip(benchmark::State& state) {
    const InjuryRiskModel model;
    const auto types = generate_complete_types(model);
    const auto document = to_json(types).dump(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(incident_types_from_json(json::parse(document)));
    }
    state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(document.size()));
}
BENCHMARK(BM_JsonRoundTrip);

void BM_CampaignRun(benchmark::State& state) {
    sim::CampaignConfig config;
    config.fleets = 4;
    config.hours_per_fleet = 25.0;
    config.base.seed = 11;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::run_campaign(config));
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CampaignRun);

/// Serial-vs-parallel campaign throughput: the same workload (8 fleets x
/// 50 h) at jobs = range(0). jobs=1 is the serial baseline; the outputs
/// are bit-identical across the arguments, so the only difference the
/// benchmark sees is scheduling.
void BM_CampaignJobs(benchmark::State& state) {
    sim::CampaignConfig config;
    config.fleets = 8;
    config.hours_per_fleet = 50.0;
    config.base.seed = 11;
    config.jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::run_campaign(config));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(config.fleets * config.hours_per_fleet));
}
BENCHMARK(BM_CampaignJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// The same campaign workload with the observability layer armed: the
/// delta against BM_CampaignJobs at the same jobs value IS the
/// instrumentation overhead (budget: < 2%; the hooks are one relaxed
/// atomic load when disarmed and per-chunk registry ops when armed).
void BM_CampaignJobsMetrics(benchmark::State& state) {
    sim::CampaignConfig config;
    config.fleets = 8;
    config.hours_per_fleet = 50.0;
    config.base.seed = 11;
    config.jobs = static_cast<unsigned>(state.range(0));
    obs::set_enabled(true);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::run_campaign(config));
    }
    obs::set_enabled(false);
    obs::reset();
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(config.fleets * config.hours_per_fleet));
}
BENCHMARK(BM_CampaignJobsMetrics)->Arg(1)->Arg(4)->UseRealTime();

/// The rare-event path: one clone-and-prune splitting campaign over the
/// fleet severity model (3 levels x range(0) trials, jobs=2). Covers the
/// lineage replay cost - clones re-execute their parents' episode prefixes
/// - on top of the per-encounter resolution the fleet benches measure, so
/// a regression in either the driver bookkeeping or resolve_encounter
/// shows up here scaled by the replay factor.
void BM_SplittingCampaign(benchmark::State& state) {
    sim::FleetConfig fleet;
    fleet.seed = 11;
    const sim::FleetSeverityModel model(fleet);
    sim::SplittingConfig config;
    config.levels = {40.0, 120.0, 210.0};
    config.trials_per_level = static_cast<std::uint64_t>(state.range(0));
    config.seed = 11;
    std::uint64_t trials = 0;
    for (auto _ : state) {
        const auto result = sim::run_splitting(model, config, /*jobs=*/2);
        trials += result.total_trials;
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<int64_t>(trials));
}
BENCHMARK(BM_SplittingCampaign)->Arg(100)->Arg(500)->UseRealTime();

/// A synthetic fleet log of `records` validate-passing incidents for the
/// shard codec benchmarks below.
sim::IncidentLog shard_bench_log(std::size_t records) {
    stats::Rng rng(17);
    sim::IncidentLog log;
    for (std::size_t n = 0; n < records; ++n) {
        log.incidents.push_back(sample_incident(rng));
    }
    log.exposure = ExposureHours(static_cast<double>(records));
    return log;
}

std::string shard_bench_path(const char* name) {
    return (std::filesystem::temp_directory_path() /
            (std::string("qrn_bench_") + name + ".qrs"))
        .string();
}

/// The one-pass evidence scan: every per-type count from a single sweep
/// over the incident columns (count_matching_all), per record scanned.
/// This is the path pooled_evidence and evidence_for take after the
/// columnar refactor; the former per-type rescan cost K sweeps.
void BM_EvidenceScan(benchmark::State& state) {
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto log = shard_bench_log(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(log.evidence_for(types));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvidenceScan)->Arg(10000);

/// Sealed-shard write throughput: header + CRC'd blocks + footer + the
/// atomic rename, end to end, per record.
void BM_ShardWrite(benchmark::State& state) {
    const auto log = shard_bench_log(static_cast<std::size_t>(state.range(0)));
    const std::string path = shard_bench_path("write");
    for (auto _ : state) {
        store::write_shard(path, 0xbe5c, 0, log);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    std::filesystem::remove(path);
}
BENCHMARK(BM_ShardWrite)->Arg(1000)->Arg(10000);

/// Streaming read + checksum verification throughput over a sealed shard,
/// per record; the same path the warm campaign cache and `store verify`
/// take.
void BM_ShardRead(benchmark::State& state) {
    const std::string path = shard_bench_path("read");
    store::write_shard(path, 0xbe5c, 0,
                       shard_bench_log(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state) {
        sim::IncidentLog log;
        benchmark::DoNotOptimize(store::read_shard(path, log));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    std::filesystem::remove(path);
}
BENCHMARK(BM_ShardRead)->Arg(1000)->Arg(10000);

/// A started Server over a fresh store in `dir`, listening on
/// `dir/qrn.sock`.
std::unique_ptr<serve::Server> start_bench_server(const std::filesystem::path& dir,
                                                  std::uint64_t shard_roll) {
    std::filesystem::remove_all(dir);
    serve::ServiceConfig service_config;
    service_config.store_dir = (dir / "store").string();
    service_config.shard_roll = shard_roll;
    auto service = std::make_unique<serve::Service>(
        RiskNorm::paper_example(), IncidentTypeSet::paper_vru_example(),
        service_config);
    serve::ServerConfig server_config;
    server_config.socket_path = (dir / "qrn.sock").string();
    auto server = std::make_unique<serve::Server>(std::move(service), server_config);
    server->start();
    return server;
}

/// The serve daemon's hot path, end to end over loopback: one client
/// streaming classify batches of range(0) records each through a real
/// Server on a Unix-domain socket - frame encode/decode, bounded queue,
/// dispatcher, batch classification and the live shard append - per
/// record. The acceptance floor is 1M records/s at the batched sizes.
void BM_ServeClassify(benchmark::State& state) {
    const auto dir =
        std::filesystem::temp_directory_path() / "qrn_bench_serve";
    const auto server = start_bench_server(dir, 1u << 16);
    {
        auto client = serve::Client::connect_unix((dir / "qrn.sock").string());
        const auto count = static_cast<std::size_t>(state.range(0));
        std::vector<Incident> batch;
        batch.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            batch.push_back(serve::stream_incident(i));
        }
        for (auto _ : state) {
            auto reply = client.classify_with_retry(1.0, batch);
            if (reply.status != serve::Status::Ok) {
                state.SkipWithError("classify batch rejected");
                break;
            }
            benchmark::DoNotOptimize(reply.rows.data());
        }
        client.close();
    }
    server->drain();
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ServeClassify)->Arg(512)->Arg(4096)->UseRealTime();

/// The serve_ingest shape, where shards roll: 4 connections streaming
/// 256-record classify batches into a real Server at the default
/// shard_roll of 4096, so every 16 batches seal a shard (fsyncs, rename,
/// checksummed read-back). Each iteration sends 16 batches per connection,
/// four rolls. BM_ServeClassify rolls once per 65,536 records on one
/// connection and so cannot see the cost of a seal.
void BM_ServeRoll(benchmark::State& state) {
    constexpr unsigned kConnections = 4;
    constexpr std::size_t kBatch = 256;
    constexpr std::size_t kBatchesPerConnection = 16;
    const auto dir = std::filesystem::temp_directory_path() / "qrn_bench_serve_roll";
    const auto server = start_bench_server(dir, 4096);
    {
        std::vector<serve::Client> clients;
        for (unsigned c = 0; c < kConnections; ++c) {
            clients.push_back(serve::Client::connect_unix((dir / "qrn.sock").string()));
        }
        std::vector<Incident> batch;
        batch.reserve(kBatch);
        for (std::size_t i = 0; i < kBatch; ++i) batch.push_back(serve::stream_incident(i));
        std::atomic<bool> rejected{false};
        for (auto _ : state) {
            // One pool task per connection, each a blocking client.
            exec::parallel_for(kConnections, kConnections, [&](const exec::ChunkRange& range) {
                for (std::size_t c = range.begin; c < range.end; ++c) {
                    for (std::size_t b = 0; b < kBatchesPerConnection; ++b) {
                        const auto reply = clients[c].classify_with_retry(10.0, batch);
                        if (reply.status != serve::Status::Ok) rejected = true;
                    }
                }
            });
            if (rejected) {
                state.SkipWithError("classify batch rejected");
                break;
            }
        }
        for (auto& client : clients) client.close();
    }
    server->drain();
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kConnections * kBatchesPerConnection * kBatch));
}
BENCHMARK(BM_ServeRoll)->UseRealTime();

/// The distributed coordinator's per-campaign set-up cost besides the
/// plan itself: compile a range(0)-fleet plan into its work DAG, measure
/// its shape and gate it against the default budget, per fleet node. The
/// budget admits 100000 fleets, so the /100000 row is the largest
/// campaign the CLI accepts; every step is linear in the node count.
void BM_SchedDispatch(benchmark::State& state) {
    sched::CampaignPlan shape;
    shape.policy = "nominal";
    shape.odd = "urban";
    shape.seed = 11;
    shape.fleets = static_cast<std::uint64_t>(state.range(0));
    shape.hours_per_fleet = 50.0;
    const sim::CampaignConfig config = sched::config_from_plan(shape, 1);
    const sched::CampaignPlan plan = sched::make_plan(
        shape.policy, shape.odd, config, sched::campaign_inputs_digest());
    for (auto _ : state) {
        const sched::Dag dag = sched::build_campaign_dag(plan);
        benchmark::DoNotOptimize(sched::check_budget(
            sched::compute_metrics(dag), sched::DagBudget::campaign_default()));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedDispatch)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

/// Collects finished runs so a JSON baseline can be written after the
/// console report. GetAdjustedRealTime() already folds in the per-
/// iteration normalization google-benchmark applies for console output.
class BaselineCollector : public benchmark::BenchmarkReporter {
public:
    bool ReportContext(const Context& context) override {
        return console_.ReportContext(context);
    }

    void ReportRuns(const std::vector<Run>& runs) override {
        console_.ReportRuns(runs);
        for (const Run& run : runs) {
            if (run.error_occurred) continue;
            Entry entry;
            entry.name = run.benchmark_name();
            entry.ns_per_op = run.GetAdjustedRealTime();
            const auto items = run.counters.find("items_per_second");
            if (items != run.counters.end()) entry.items_per_second = items->second;
            entries_.push_back(std::move(entry));
        }
    }

    void Finalize() override { console_.Finalize(); }

    /// Writes `{"benchmarks":[{"name":...,"ns_per_op":...},...]}`.
    /// Returns false when the file cannot be created or the write fails;
    /// main() turns that into a non-zero exit so a lost baseline is loud.
    [[nodiscard]] bool write_json(const std::string& path) const {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "perf_microbench: cannot write " << path << '\n';
            return false;
        }
        out << "{\n  \"benchmarks\": [\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry& e = entries_[i];
            out << "    {\"name\": \"" << e.name << "\", \"ns_per_op\": " << e.ns_per_op;
            if (e.items_per_second > 0.0) {
                out << ", \"items_per_second\": " << e.items_per_second;
            }
            out << '}' << (i + 1 < entries_.size() ? "," : "") << '\n';
        }
        out << "  ]\n}\n";
        out.flush();
        if (!out.good()) {
            std::cerr << "perf_microbench: write failed for " << path << '\n';
            return false;
        }
        return true;
    }

private:
    struct Entry {
        std::string name;
        double ns_per_op = 0.0;
        double items_per_second = 0.0;
    };

    benchmark::ConsoleReporter console_;
    std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    BaselineCollector collector;
    benchmark::RunSpecifiedBenchmarks(&collector);
    benchmark::Shutdown();
    const char* path = std::getenv("QRN_BENCH_JSON");
    return collector.write_json(path != nullptr ? path : "BENCH_perf.json") ? 0 : 1;
}
