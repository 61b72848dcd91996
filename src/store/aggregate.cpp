#include "store/aggregate.h"

#include "exec/parallel.h"
#include "stats/rng.h"
#include "store/format.h"
#include "store/shard.h"

namespace qrn::store {

namespace {

/// Per-shard partial for the evidence aggregate: integer tallies plus the
/// shard's own totals, folded serially in fleet order afterwards.
struct ShardScan {
    std::uint64_t records = 0;
    double exposure_hours = 0.0;
    std::vector<std::uint64_t> type_events;
};

/// Per-shard partial for the contribution aggregate. Cell sums commute,
/// so folding order cannot change the result.
struct ShardTally {
    std::vector<std::vector<std::uint64_t>> counts;
    std::vector<std::uint64_t> totals;
};

}  // namespace

Frequency StoreAggregate::pooled_incident_rate() const {
    return Frequency::of_count(total_events, total_exposure);
}

stats::HeterogeneityResult StoreAggregate::heterogeneity() const {
    return stats::rate_heterogeneity_test(observations);
}

StoreAggregate aggregate_evidence(const std::vector<ShardRef>& shards,
                                  const IncidentTypeSet& types, unsigned jobs) {
    const std::vector<ShardScan> scans = exec::parallel_map<ShardScan>(
        jobs, shards.size(), [&](std::size_t s) {
            ShardScan scan;
            scan.type_events.assign(types.size(), 0);
            ShardReader reader(shards[s].path);
            // Columnar block scan: every per-type count of the block in
            // one pass, summed into the shard partial.
            const ShardInfo info =
                reader.for_each_block([&](const qrn::IncidentColumns& block) {
                    add_matching_counts(block, types, scan.type_events);
                });
            scan.records = info.records;
            scan.exposure_hours = info.totals.exposure_hours;
            return scan;
        });

    StoreAggregate out;
    out.shard_count = shards.size();
    out.evidence.reserve(types.size());
    for (std::size_t k = 0; k < types.size(); ++k) {
        TypeEvidence e;
        e.incident_type_id = types.at(k).id();
        out.evidence.push_back(std::move(e));
    }
    out.observations.reserve(scans.size());
    // Serial fleet-order folds: the double sums below must reproduce the
    // in-memory loops over CampaignResult::logs term for term.
    for (const ShardScan& scan : scans) {
        const ExposureHours exposure(scan.exposure_hours);
        out.total_exposure += exposure;
        out.total_events += static_cast<double>(scan.records);
        out.total_records += scan.records;
        out.per_fleet_rates.add(
            Frequency::of_count(static_cast<double>(scan.records), exposure)
                .per_hour_value());
        out.observations.push_back({scan.records, scan.exposure_hours});
        for (std::size_t k = 0; k < types.size(); ++k) {
            out.evidence[k].events += scan.type_events[k];
        }
    }
    for (auto& e : out.evidence) e.exposure = out.total_exposure;
    return out;
}

ContributionCounts aggregate_contributions(
    const std::vector<ShardRef>& shards, const IncidentTypeSet& types,
    std::size_t class_count, const RiskNorm& norm, const InjuryRiskModel& model,
    const std::vector<double>& near_miss_profile, std::uint64_t seed,
    unsigned jobs) {
    if (class_count == 0) {
        throw std::invalid_argument(
            "aggregate_contributions: class_count must be >= 1");
    }
    // Pass 1: record counts, to pin each shard's global index offset. The
    // counts come from verified footers; pass 2 re-checks them and throws
    // Inconsistent if a shard changed between the passes.
    const std::vector<std::uint64_t> counts = exec::parallel_map<std::uint64_t>(
        jobs, shards.size(),
        [&](std::size_t s) { return verify_shard(shards[s].path).records; });
    std::vector<std::uint64_t> offsets(shards.size(), 0);
    for (std::size_t s = 1; s < shards.size(); ++s) {
        offsets[s] = offsets[s - 1] + counts[s - 1];
    }

    // Pass 2: label record j of shard s with stream(seed, offset_s + j) -
    // the stream the in-memory label_incidents overload would give it.
    const std::vector<ShardTally> tallies = exec::parallel_map<ShardTally>(
        jobs, shards.size(), [&](std::size_t s) {
            ShardTally tally;
            tally.counts.assign(class_count,
                                std::vector<std::uint64_t>(types.size(), 0));
            tally.totals.assign(types.size(), 0);
            std::uint64_t j = 0;
            ShardReader reader(shards[s].path);
            const ShardInfo info = reader.for_each([&](const Incident& incident) {
                stats::Rng rng = stats::Rng::stream(seed, offsets[s] + j);
                ++j;
                const auto label =
                    sample_consequence(incident, norm, model, near_miss_profile, rng);
                const auto type_index = types.classify(incident);
                if (!type_index) return;
                ++tally.totals[*type_index];
                if (label) {
                    if (*label >= class_count) {
                        throw std::invalid_argument(
                            "aggregate_contributions: label out of range");
                    }
                    ++tally.counts[*label][*type_index];
                }
            });
            if (info.records != counts[s]) {
                throw StoreError(StoreErrorKind::Inconsistent,
                                 "shard '" + shards[s].path +
                                     "' changed between aggregation passes");
            }
            return tally;
        });

    ContributionCounts out;
    out.counts.assign(class_count, std::vector<std::uint64_t>(types.size(), 0));
    out.totals.assign(types.size(), 0);
    for (const ShardTally& tally : tallies) {
        for (std::size_t k = 0; k < types.size(); ++k) {
            out.totals[k] += tally.totals[k];
            for (std::size_t j = 0; j < class_count; ++j) {
                out.counts[j][k] += tally.counts[j][k];
            }
        }
    }
    return out;
}

}  // namespace qrn::store
